"""Region-backed, region-checked guest physical memory."""

import mmap

from repro.errors import MemoryFault
from repro.layout import MMIO_BASE, MMIO_LIMIT

_WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

#: A ``hit`` entry no access can match (base > limit).
_NO_HIT = (1, 0, None)


class Memory:
    """Byte-addressable guest memory, one flat buffer per mapped region.

    Regions must be mapped before use; access outside any mapped region
    raises :class:`~repro.errors.MemoryFault`, which is how wild driver
    accesses surface during both concrete and symbolic runs.  An access
    must lie wholly inside one region: one that straddles two adjacent
    regions faults too.

    Each region is a private anonymous ``mmap``: the kernel zero-fills
    its pages and commits them only when first touched, so a mostly idle
    1.5 MiB heap costs a few resident pages, not 1.5 MiB.  Accesses test
    the last region hit first (two compares) and scan the few regions
    only on a miss.

    ``hit``, ``watch_lo``/``watch_hi`` and ``write_epoch`` are public
    because compiled IR blocks (:mod:`repro.ir.compile`) access RAM
    inline through them: a load or store wholly inside ``hit`` -- and,
    for a store, clear of the watched span -- is exactly what
    :meth:`read`/:meth:`write` would do, without the calls.  No region
    may intersect the bus's MMIO window, so a hit is never a device
    access.
    """

    def __init__(self):
        self._regions = []  # (base, limit, name, buffer), sorted by base
        self.hit = _NO_HIT  # (base, limit, buffer) of the last region hit
        #: Bumped whenever a write (CPU store, DMA, loader) intersects
        #: the watched code span below.  Consumers that cache derived
        #: views of guest code -- the superblock tier's per-chain byte
        #: revalidation -- compare epochs to skip re-reading code that
        #: cannot have changed.  Data writes never bump it.
        self.write_epoch = 0
        self.watch_lo = 1   # empty span (lo > hi): nothing watched yet
        self.watch_hi = 0

    # ------------------------------------------------------------------
    # Region management

    def map_region(self, base, size, name="ram"):
        """Map ``size`` bytes at ``base``; overlapping maps are rejected."""
        if size <= 0:
            raise ValueError("region size must be positive")
        limit = base + size
        if base < MMIO_LIMIT and MMIO_BASE < limit:
            raise ValueError("region %r overlaps the MMIO window" % name)
        for rbase, rlimit, rname, _buf in self._regions:
            if base < rlimit and rbase < limit:
                raise ValueError("region %r overlaps %r" % (name, rname))
        buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._regions.append((base, limit, name, buffer))
        self._regions.sort(key=lambda region: region[0])

    def region_name(self, address):
        """Name of the region containing ``address`` or ``None``."""
        for base, limit, name, _buf in self._regions:
            if base <= address < limit:
                return name
        return None

    def is_mapped(self, address, size=1):
        """True when ``[address, address+size)`` lies in one region."""
        for base, limit, _name, _buf in self._regions:
            if base <= address and address + size <= limit:
                return True
        return False

    def _region(self, address, size, kind):
        """``(base, buffer)`` of the region holding ``[address,
        address+size)``; remembers it as the last hit."""
        for base, limit, _name, buf in self._regions:
            if base <= address and address + size <= limit:
                self.hit = (base, limit, buf)
                return base, buf
        raise MemoryFault(address, kind)

    # ------------------------------------------------------------------
    # Typed access

    def read(self, address, width):
        """Read an unsigned little-endian integer of ``width`` bytes."""
        base, limit, buf = self.hit
        if not (base <= address and address + width <= limit):
            base, buf = self._region(address, width, "read")
        offset = address - base
        return int.from_bytes(buf[offset:offset + width], "little")

    def write(self, address, width, value):
        """Write an unsigned little-endian integer of ``width`` bytes."""
        base, limit, buf = self.hit
        if not (base <= address and address + width <= limit):
            base, buf = self._region(address, width, "write")
        if address < self.watch_hi and address + width > self.watch_lo:
            self.write_epoch += 1
        offset = address - base
        buf[offset:offset + width] = \
            (value & _WIDTH_MASK[width]).to_bytes(width, "little")

    def read_bytes(self, address, size):
        """Read ``size`` raw bytes."""
        if size == 0:
            return b""
        base, limit, buf = self.hit
        if not (base <= address and address + size <= limit):
            base, buf = self._region(address, size, "read")
        offset = address - base
        return buf[offset:offset + size]

    def write_bytes(self, address, data):
        """Write raw bytes."""
        size = len(data)
        if not size:
            return
        base, limit, buf = self.hit
        if not (base <= address and address + size <= limit):
            base, buf = self._region(address, size, "write")
        if address < self.watch_hi and address + size > self.watch_lo:
            self.write_epoch += 1
        offset = address - base
        buf[offset:offset + size] = data

    def watch_code_span(self, lo, hi):
        """Grow the watched code span to include ``[lo, hi)``.  One flat
        span (not a list) keeps the per-write check to two compares; the
        over-approximation only costs spurious epoch bumps."""
        if self.watch_lo > self.watch_hi:
            self.watch_lo, self.watch_hi = lo, hi
        else:
            self.watch_lo = min(self.watch_lo, lo)
            self.watch_hi = max(self.watch_hi, hi)


class _NeverHit:
    """The ``ram`` of an environment whose loads and stores must all go
    through its callables: every compiled access misses ``hit``."""

    __slots__ = ()
    hit = _NO_HIT
    watch_lo = 1
    watch_hi = 0
    write_epoch = 0


#: Shared stand-in for :class:`Memory` in custom execution environments.
NEVER_HIT = _NeverHit()
