"""Shared machinery for NIC device models."""

from dataclasses import dataclass

from repro.net.ethernet import BROADCAST_MAC, is_multicast
from repro.net.crc import crc32_ethernet


@dataclass(frozen=True)
class PciDescriptor:
    """The PCI configuration-space summary of a device.

    This is exactly the information the paper says the developer obtains
    from the Windows device manager and passes to RevNIC on the command
    line (section 3.4): vendor/product identifiers, I/O ranges and the
    interrupt line.  The shell symbolic device is constructed from one of
    these.
    """

    vendor_id: int
    device_id: int
    io_base: int = 0
    io_size: int = 0
    mmio_base: int = 0
    mmio_size: int = 0
    irq_line: int = 0


class NicDevice:
    """Base class for NIC models.

    Subclasses implement the register interface (``io_read``/``io_write``
    and/or ``mmio_read``/``mmio_write``) and the RX path
    (:meth:`receive_frame`).  This base provides the wire side, interrupt
    plumbing, address filtering and feature-observability used by the
    Table 2 functional checks.
    """

    #: Subclasses override with their PCI identity.
    PCI = PciDescriptor(vendor_id=0, device_id=0)

    def __init__(self, mac, medium=None, irq_callback=None, bus=None):
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        self.mac = bytearray(mac)
        self.medium = medium
        self.irq_callback = irq_callback
        #: DMA port into guest memory (set for bus-master devices).
        self.bus = bus
        self.promiscuous = False
        self.rx_enabled = False
        self.tx_enabled = False
        self.full_duplex = False
        self.wol_enabled = False
        self.led_state = 0
        self.multicast_hash = bytearray(8)
        self.stats = {"tx_frames": 0, "rx_frames": 0, "rx_dropped": 0,
                      "tx_bytes": 0, "rx_bytes": 0}

    # ------------------------------------------------------------------
    # Interrupts

    def raise_interrupt(self):
        """Assert the device's interrupt line."""
        if self.irq_callback is not None:
            self.irq_callback()

    # ------------------------------------------------------------------
    # Wire side

    def transmit(self, frame_bytes):
        """Put a frame on the medium and account for it."""
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += len(frame_bytes)
        if self.medium is not None:
            self.medium.transmit(frame_bytes)

    def accepts(self, frame_bytes):
        """Destination-address filter shared by all models."""
        if not self.rx_enabled:
            return False
        if self.promiscuous:
            return True
        dst = frame_bytes[0:6]
        if dst == bytes(self.mac):
            return True
        if dst == BROADCAST_MAC:
            return True
        if is_multicast(dst):
            return self._multicast_match(dst)
        return False

    def _multicast_match(self, dst):
        """64-bin CRC hash filter (the classic Ethernet scheme)."""
        index = crc32_ethernet(dst) >> 26
        return bool(self.multicast_hash[index >> 3] & (1 << (index & 7)))

    def receive_frame(self, frame_bytes):
        """Deliver a frame from the medium into the device (RX path)."""
        raise NotImplementedError

    def reset(self):
        """Soft-reset device state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Register interface defaults (subclasses override the ones they use)

    def io_read(self, offset, width):
        raise NotImplementedError

    def io_write(self, offset, width, value):
        raise NotImplementedError

    def mmio_read(self, offset, width):
        raise NotImplementedError

    def mmio_write(self, offset, width, value):
        raise NotImplementedError


def mask_width(value, width):
    """Truncate ``value`` to ``width`` bytes."""
    return value & ((1 << (8 * width)) - 1)
