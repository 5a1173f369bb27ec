"""Realtek RTL8139 device model.

Programming style: **bus-master DMA** -- four TX descriptor slots whose
buffers the device fetches from guest memory, and an RX ring written by the
device directly into guest memory.  Also carries the feature set Table 2
checks for this chip: Wake-on-LAN (Config3 magic-packet bit), LED control
(Config1) and full duplex (BMCR).

Register map (port I/O, 0x100 bytes):

====== =================================================
0x00   IDR0-5: station MAC (byte access, writable)
0x08   MAR0-7: multicast hash
0x10   TSD0-3 (u32 x4): tx status/size; writing size starts DMA
       bits: size in 0..12, OWN=0x2000 (cleared on write=DMA pending),
       TOK=0x8000 set by device when sent
0x20   TSAD0-3 (u32 x4): tx buffer physical addresses
0x30   RBSTART (u32): rx ring physical base
0x37   CR (u8): RST=0x10 RE=0x08 TE=0x04 BUFE=0x01(ro)
0x38   CAPR (u16): driver read pointer minus 0x10
0x3A   CBR (u16, ro): device write pointer
0x3C   IMR (u16)   0x3E ISR (u16, write-1-clear): ROK=0x01 TOK=0x04
0x44   RCR (u32): AAP=0x01(promisc) APM=0x02 AM=0x04 AB=0x08
0x50   Cfg9346 (u8): 0xC0 unlocks config registers
0x52   Config1 (u8): LED mode in bits 6-7
0x59   Config3 (u8): MAGIC=0x20 enables Wake-on-LAN
0x64   BMCR (u16): FDX=0x0100, SPEED100=0x2000
====== =================================================

RX ring format (classic 8139): per packet a 4-byte header -- u16 status
(ROK=0x01), u16 length (frame + 4 FCS bytes) -- then the frame, padded to a
4-byte boundary.
"""

from repro.hw.base import NicDevice, PciDescriptor, mask_width

RX_RING_SIZE = 8192 + 16

#: The ring wraps to offset 0 once the write pointer passes this threshold,
#: guaranteeing each record is contiguous.  The driver applies the same
#: rule, so both sides stay in lockstep deterministically.
RX_WRAP_THRESHOLD = RX_RING_SIZE - 2048

#: Plain registers by offset: the attribute each one reads back.
_REG_NAMES = {
    0x30: "rbstart", 0x37: "cr", 0x38: "capr", 0x3A: "cbr", 0x3C: "imr",
    0x3E: "isr", 0x40: "tcr", 0x44: "rcr", 0x50: "cfg9346",
    0x52: "config1", 0x59: "config3", 0x64: "bmcr",
}

# CR bits
CR_BUFE = 0x01
CR_TE = 0x04
CR_RE = 0x08
CR_RST = 0x10

# ISR bits
ISR_ROK = 0x01
ISR_TOK = 0x04

# TSD bits
TSD_SIZE_MASK = 0x1FFF
TSD_OWN = 0x2000
TSD_TOK = 0x8000

# RCR bits
RCR_AAP = 0x01
RCR_APM = 0x02
RCR_AM = 0x04
RCR_AB = 0x08

# Config
CFG9346_UNLOCK = 0xC0
CONFIG3_MAGIC = 0x20
BMCR_FDX = 0x0100


class Rtl8139Device(NicDevice):
    """Behavioural RTL8139 model (DMA-capable)."""

    PCI = PciDescriptor(vendor_id=0x10EC, device_id=0x8139,
                        io_base=0xC000, io_size=0x100, irq_line=11)

    NUM_TX_SLOTS = 4

    def __init__(self, mac, **kwargs):
        super().__init__(mac, **kwargs)
        self.idr = bytearray(mac)
        self.tsd = [TSD_OWN] * self.NUM_TX_SLOTS
        self.tsad = [0] * self.NUM_TX_SLOTS
        self.rbstart = 0
        self.cr = CR_BUFE
        self.capr = 0xFFF0
        self.cbr = 0
        self.imr = 0
        self.isr = 0
        self.rcr = 0
        self.tcr = 0
        self.cfg9346 = 0
        self.config1 = 0
        self.config3 = 0
        self.bmcr = 0x2000
        self._rx_offset = 0

    # ------------------------------------------------------------------

    def reset(self):
        self.cr = CR_BUFE
        self.isr = 0
        self.imr = 0
        self.capr = 0xFFF0
        self.cbr = 0
        self._rx_offset = 0
        self.tsd = [TSD_OWN] * self.NUM_TX_SLOTS
        self.rx_enabled = False
        self.tx_enabled = False

    def _update_irq(self):
        if self.isr & self.imr:
            self.raise_interrupt()

    # ------------------------------------------------------------------
    # Register access

    def io_read(self, offset, width):
        if 0x00 <= offset < 0x06:
            return self._read_bytes(self.idr, offset, width)
        if 0x08 <= offset < 0x10:
            return self._read_bytes(self.multicast_hash, offset - 0x08, width)
        if 0x10 <= offset < 0x20 and width == 4:
            return self.tsd[(offset - 0x10) // 4]
        if 0x20 <= offset < 0x30 and width == 4:
            return self.tsad[(offset - 0x20) // 4]
        name = _REG_NAMES.get(offset)
        if name is None:
            return 0
        return getattr(self, name) & ((1 << 8 * width) - 1)

    def io_write(self, offset, width, value):
        value = mask_width(value, width)
        if 0x00 <= offset < 0x06:
            self._write_bytes(self.idr, offset, width, value)
            self.mac[:] = self.idr
            return
        if 0x08 <= offset < 0x10:
            self._write_bytes(self.multicast_hash, offset - 0x08, width, value)
            return
        if 0x10 <= offset < 0x20 and width == 4:
            self._write_tsd((offset - 0x10) // 4, value)
            return
        if 0x20 <= offset < 0x30 and width == 4:
            self.tsad[(offset - 0x20) // 4] = value
            return
        if offset == 0x30:
            self.rbstart = value
        elif offset == 0x37:
            self._write_cr(value)
        elif offset == 0x38:
            self.capr = value & 0xFFFF
        elif offset == 0x3C:
            self.imr = value & 0xFFFF
            self._update_irq()
        elif offset == 0x3E:
            self.isr &= ~value  # write-1-to-clear
        elif offset == 0x40:
            self.tcr = value
        elif offset == 0x44:
            self.rcr = value
            self.promiscuous = bool(value & RCR_AAP)
        elif offset == 0x50:
            self.cfg9346 = value
        elif offset == 0x52:
            if self.cfg9346 == CFG9346_UNLOCK:
                self.config1 = value
                self.led_state = (value >> 6) & 0x3
        elif offset == 0x59:
            if self.cfg9346 == CFG9346_UNLOCK:
                self.config3 = value
                self.wol_enabled = bool(value & CONFIG3_MAGIC)
        elif offset == 0x64:
            self.bmcr = value
            self.full_duplex = bool(value & BMCR_FDX)

    @staticmethod
    def _read_bytes(buf, offset, width):
        value = 0
        for i in range(width):
            if offset + i < len(buf):
                value |= buf[offset + i] << (8 * i)
        return value

    @staticmethod
    def _write_bytes(buf, offset, width, value):
        for i in range(width):
            if offset + i < len(buf):
                buf[offset + i] = (value >> (8 * i)) & 0xFF

    def _write_cr(self, value):
        if value & CR_RST:
            self.reset()
            return
        self.cr = (value & ~CR_BUFE) | (self.cr & CR_BUFE)
        self.rx_enabled = bool(value & CR_RE)
        self.tx_enabled = bool(value & CR_TE)

    # ------------------------------------------------------------------
    # TX path (bus-master: device fetches the buffer via DMA)

    def _write_tsd(self, slot, value):
        size = value & TSD_SIZE_MASK
        self.tsd[slot] = value & ~(TSD_OWN | TSD_TOK)
        if not self.tx_enabled or self.bus is None:
            return
        frame = self.bus.dma_read(self.tsad[slot], size)
        self.transmit(frame)
        self.tsd[slot] |= TSD_OWN | TSD_TOK
        self.isr |= ISR_TOK
        self._update_irq()

    # ------------------------------------------------------------------
    # RX path (device writes the ring in guest memory)

    def receive_frame(self, frame_bytes):
        if not self.accepts(frame_bytes):
            self.stats["rx_dropped"] += 1
            return
        if self.bus is None or self.rbstart == 0:
            self.stats["rx_dropped"] += 1
            return
        length = len(frame_bytes) + 4  # device counts the FCS
        header = (0x0001).to_bytes(2, "little") + length.to_bytes(2, "little")
        # The chip stores the frame followed by the 4 FCS bytes (modeled as
        # zeros); drivers compute the next-record offset from the length
        # field, which includes them.
        record = header + frame_bytes + b"\0\0\0\0"
        pad = (-len(record)) % 4
        record += b"\0" * pad
        self.bus.dma_write(self.rbstart + self._rx_offset, record)
        self._rx_offset += len(record)
        if self._rx_offset > RX_WRAP_THRESHOLD:
            self._rx_offset = 0
        self.cbr = self._rx_offset
        self.cr &= ~CR_BUFE
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame_bytes)
        self.isr |= ISR_ROK
        self._update_irq()
