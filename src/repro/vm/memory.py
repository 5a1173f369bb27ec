"""Region-backed, region-checked guest physical memory."""

import mmap

from repro.errors import MemoryFault

_WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

#: A ``_hit`` entry no access can match (base > limit).
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
    """

    def __init__(self):
        self._regions = []  # (base, limit, name, buffer), sorted by base
        self._hit = _NO_HIT  # (base, limit, buffer) of the last region hit
        #: Bumped whenever a write (CPU store, DMA, loader) intersects
        #: the watched code span below.  Consumers that cache derived
        #: views of guest code -- the superblock tier's per-chain byte
        #: revalidation -- compare epochs to skip re-reading code that
        #: cannot have changed.  Data writes never bump it.
        self.write_epoch = 0
        self._watch_lo = 1   # empty span (lo > hi): nothing watched yet
        self._watch_hi = 0

    # ------------------------------------------------------------------
    # Region management

    def map_region(self, base, size, name="ram"):
        """Map ``size`` bytes at ``base``; overlapping maps are rejected."""
        if size <= 0:
            raise ValueError("region size must be positive")
        limit = base + size
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
                self._hit = (base, limit, buf)
                return base, buf
        raise MemoryFault(address, kind)

    # ------------------------------------------------------------------
    # Typed access

    def read(self, address, width):
        """Read an unsigned little-endian integer of ``width`` bytes."""
        base, limit, buf = self._hit
        if not (base <= address and address + width <= limit):
            base, buf = self._region(address, width, "read")
        offset = address - base
        return int.from_bytes(buf[offset:offset + width], "little")

    def write(self, address, width, value):
        """Write an unsigned little-endian integer of ``width`` bytes."""
        base, limit, buf = self._hit
        if not (base <= address and address + width <= limit):
            base, buf = self._region(address, width, "write")
        if address < self._watch_hi and address + width > self._watch_lo:
            self.write_epoch += 1
        offset = address - base
        buf[offset:offset + width] = \
            (value & _WIDTH_MASK[width]).to_bytes(width, "little")

    def read_bytes(self, address, size):
        """Read ``size`` raw bytes."""
        if size == 0:
            return b""
        base, limit, buf = self._hit
        if not (base <= address and address + size <= limit):
            base, buf = self._region(address, size, "read")
        offset = address - base
        return buf[offset:offset + size]

    def write_bytes(self, address, data):
        """Write raw bytes."""
        size = len(data)
        if not size:
            return
        base, limit, buf = self._hit
        if not (base <= address and address + size <= limit):
            base, buf = self._region(address, size, "write")
        if address < self._watch_hi and address + size > self._watch_lo:
            self.write_epoch += 1
        offset = address - base
        buf[offset:offset + size] = data

    def watch_code_span(self, lo, hi):
        """Grow the watched code span to include ``[lo, hi)``.  One flat
        span (not a list) keeps the per-write check to two compares; the
        over-approximation only costs spurious epoch bumps."""
        if self._watch_lo > self._watch_hi:
            self._watch_lo, self._watch_hi = lo, hi
        else:
            self._watch_lo = min(self._watch_lo, lo)
            self._watch_hi = max(self._watch_hi, hi)
