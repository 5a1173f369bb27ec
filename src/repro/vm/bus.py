"""I/O bus: routes port I/O and MMIO accesses to device models.

The bus is the point where the paper's "VM catches all hardware accesses"
property comes from: any access through :meth:`Bus.mem_read` /
:meth:`Bus.mem_write` that falls in the MMIO window is a *device* access,
everything else is regular memory.  RevNIC's wiretap taps exactly this
boundary to classify memory operations (paper section 2).
"""

from dataclasses import dataclass

from repro.errors import BusError
from repro.layout import MMIO_BASE, MMIO_LIMIT, is_mmio

#: A ``port_hit``/``mmio_hit`` binding no access can match (base >
#: limit): every access takes the bus's own dispatch.
NO_DEVICE = (1, 0, None, None)


@dataclass(frozen=True)
class PortRange:
    """A claimed range in the port-I/O space."""

    base: int
    size: int
    device: object


@dataclass(frozen=True)
class MmioRange:
    """A claimed range in the MMIO window."""

    base: int
    size: int
    device: object


class Bus:
    """Port + MMIO router in front of :class:`~repro.vm.memory.Memory`.

    ``port_hit`` and ``mmio_hit`` are public for the same reason as
    ``Memory.hit``: compiled IR blocks (:mod:`repro.ir.compile`) reach
    the device through them without a call into the bus.  Each is a
    ``(base, limit, read, write)`` tuple holding the device's bound
    ``io_read``/``io_write`` (``mmio_read``/``mmio_write``) when exactly
    one range of its space is claimed; an access with ``base <= address
    < limit`` calls ``read(address - base, width)`` or ``write(address -
    base, width, value)``, which is exactly what :meth:`io_read` /
    :meth:`mem_read` (and the writes) would do.  Otherwise -- no range,
    several ranges, or an :attr:`observer` set -- the tuple is
    :data:`NO_DEVICE`, so every access comes through the bus.

    The observer contract: setting or clearing :attr:`observer` rebinds
    both tuples, and compiled code reads them on every access, so an
    observer attached at any time -- also after an execution environment
    was built over this bus -- sees every later device access, and
    clearing it restores the direct path.
    """

    def __init__(self, memory):
        self.memory = memory
        self._ports = []
        self._mmio = []
        self._observer = None
        self.port_hit = NO_DEVICE
        self.mmio_hit = NO_DEVICE

    @property
    def observer(self):
        """Optional callable invoked as ``(kind, address, width, value,
        is_write)`` for every device access; RevNIC's wiretap hooks this."""
        return self._observer

    @observer.setter
    def observer(self, callback):
        self._observer = callback
        self._bind()

    def _bind(self):
        """Publish the direct-dispatch tuples (see the class docstring)."""
        self.port_hit = self.mmio_hit = NO_DEVICE
        if self._observer is not None:
            return
        if len(self._ports) == 1:
            entry = self._ports[0]
            self.port_hit = (entry.base, entry.base + entry.size,
                             entry.device.io_read, entry.device.io_write)
        if len(self._mmio) == 1:
            entry = self._mmio[0]
            self.mmio_hit = (entry.base, entry.base + entry.size,
                             entry.device.mmio_read, entry.device.mmio_write)

    # ------------------------------------------------------------------
    # Device registration

    def attach_ports(self, base, size, device):
        """Claim ``[base, base+size)`` in port space for ``device``."""
        for existing in self._ports:
            if base < existing.base + existing.size and existing.base < base + size:
                raise ValueError("port range overlap at 0x%x" % base)
        self._ports.append(PortRange(base, size, device))
        self._bind()

    def attach_mmio(self, base, size, device):
        """Claim ``[base, base+size)`` in the MMIO window for ``device``."""
        if not is_mmio(base) or not is_mmio(base + size - 1):
            raise ValueError("MMIO range outside the MMIO window")
        for existing in self._mmio:
            if base < existing.base + existing.size and existing.base < base + size:
                raise ValueError("MMIO range overlap at 0x%x" % base)
        self._mmio.append(MmioRange(base, size, device))
        self._bind()

    def _find_port(self, port):
        for entry in self._ports:
            if entry.base <= port < entry.base + entry.size:
                return entry
        return None

    def _find_mmio(self, address):
        for entry in self._mmio:
            if entry.base <= address < entry.base + entry.size:
                return entry
        return None

    # ------------------------------------------------------------------
    # Port I/O

    def io_read(self, port, width):
        """Dispatch an ``IN`` instruction."""
        entry = self._find_port(port)
        if entry is None:
            raise BusError("IN from unclaimed port 0x%x" % port)
        value = entry.device.io_read(port - entry.base, width)
        if self._observer is not None:
            self._observer("port", port, width, value, False)
        return value

    def io_write(self, port, width, value):
        """Dispatch an ``OUT`` instruction."""
        entry = self._find_port(port)
        if entry is None:
            raise BusError("OUT to unclaimed port 0x%x" % port)
        if self._observer is not None:
            self._observer("port", port, width, value, True)
        entry.device.io_write(port - entry.base, width, value)

    # ------------------------------------------------------------------
    # Memory (RAM or MMIO).  The window test is ``layout.is_mmio`` inlined:
    # these run on every guest load and store.

    def mem_read(self, address, width):
        """Read memory, routing MMIO-window addresses to devices."""
        if MMIO_BASE <= address < MMIO_LIMIT:
            entry = self._find_mmio(address)
            if entry is None:
                raise BusError("MMIO read from unclaimed 0x%08x" % address)
            value = entry.device.mmio_read(address - entry.base, width)
            if self._observer is not None:
                self._observer("mmio", address, width, value, False)
            return value
        return self.memory.read(address, width)

    def mem_write(self, address, width, value):
        """Write memory, routing MMIO-window addresses to devices."""
        if MMIO_BASE <= address < MMIO_LIMIT:
            entry = self._find_mmio(address)
            if entry is None:
                raise BusError("MMIO write to unclaimed 0x%08x" % address)
            if self._observer is not None:
                self._observer("mmio", address, width, value, True)
            entry.device.mmio_write(address - entry.base, width, value)
            return
        self.memory.write(address, width, value)

    def is_device_address(self, address):
        """True when a load/store at ``address`` would hit a device."""
        return MMIO_BASE <= address < MMIO_LIMIT

    # ------------------------------------------------------------------
    # DMA (devices reading/writing guest RAM directly)

    def dma_read(self, address, size):
        """Device-initiated read of guest RAM (descriptor/buffer fetch)."""
        return self.memory.read_bytes(address, size)

    def dma_write(self, address, data):
        """Device-initiated write to guest RAM (received frame, status)."""
        self.memory.write_bytes(address, data)


class _NoDevices:
    """The ``devices`` of an environment whose port and MMIO accesses
    must all go through its callables: every compiled access misses."""

    __slots__ = ()
    port_hit = NO_DEVICE
    mmio_hit = NO_DEVICE


#: Shared stand-in for :class:`Bus` in custom execution environments.
NO_DEVICES = _NoDevices()
