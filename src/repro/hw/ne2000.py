"""NE2000-class device model (the Realtek RTL8029 analog).

Programming style: **page-selected registers + remote DMA through a data
port**, no bus mastering.  The driver copies every frame through the data
port by hand, which is why the paper's RTL8029 figures show ~100% CPU
utilization (section 5.3).

Register map (port I/O, 32 bytes):

====== ======================================================
offset register
====== ======================================================
0x00   CR: STP=0x01 STA=0x02 TXP=0x04 RD(remote dma)=bits3-5,
       PS(page select)=bits6-7
page 0 regs (CR.PS == 0):
0x01   PSTART (rx ring start page)   0x02 PSTOP (ring end page)
0x03   BNRY (boundary page)          0x04 TPSR(w) / TSR(r)
0x05   TBCR0  0x06 TBCR1 (tx byte count lo/hi)
0x07   ISR: PRX=0x01 PTX=0x02 RXE=0x04 TXE=0x08 OVW=0x10 RDC=0x40
       (write-1-to-clear)
0x08   RSAR0  0x09 RSAR1 (remote start address lo/hi)
0x0A   RBCR0  0x0B RBCR1 (remote byte count lo/hi)
0x0C   RCR: AB=0x04 AM=0x08 PRO=0x10
0x0D   TCR (loopback bits ignored)   0x0E DCR: FDX=0x40
0x0F   IMR (interrupt mask, same bits as ISR)
page 1 regs (CR.PS == 1):
0x01.. 0x06 PAR0-5 (station MAC)     0x07 CURR (current rx page)
0x08.. 0x0F MAR0-7 (multicast hash)
0x10   data port (remote DMA window, any width)
0x1F   reset (read triggers soft reset)
====== ======================================================

Internal packet memory: 16 KiB (pages 0x40..0x7F, 256 bytes each).
Received frames are stored in the ring with the classic 4-byte header
(status, next-page, count lo, count hi).
"""

from operator import attrgetter

from repro.hw.base import NicDevice, PciDescriptor

PAGE_SIZE = 256
MEM_START_PAGE = 0x40
MEM_STOP_PAGE = 0x80
#: Packet memory as NE2000 addresses: ``[MEM_BASE, MEM_LIMIT)``.
MEM_BASE = MEM_START_PAGE * PAGE_SIZE
MEM_LIMIT = MEM_STOP_PAGE * PAGE_SIZE

# CR bits
CR_STP = 0x01
CR_STA = 0x02
CR_TXP = 0x04
CR_RD_MASK = 0x38
CR_RD_READ = 0x08
CR_RD_WRITE = 0x10
CR_RD_ABORT = 0x20
CR_PS_SHIFT = 6

# ISR bits
ISR_PRX = 0x01
ISR_PTX = 0x02
ISR_RXE = 0x04
ISR_TXE = 0x08
ISR_OVW = 0x10
ISR_RDC = 0x40

# RCR bits
RCR_AB = 0x04
RCR_AM = 0x08
RCR_PRO = 0x10

# DCR bits
DCR_FDX = 0x40

REG_CR = 0x00
REG_DATA = 0x10
REG_RESET = 0x1F


def _reads_as(value):
    return lambda device: value


_ZERO = _reads_as(0)

#: Page-0 register reads, indexed by port offset: a getter of the
#: device state each register reports.  Offsets without a readable
#: page-0 register read 0; CR, the data port and reset never get here.
_PAGE0_READS = (
    _ZERO, attrgetter("pstart"), attrgetter("pstop"), attrgetter("bnry"),
    _reads_as(0x01),  # TSR: transmit OK
    _ZERO, _ZERO, attrgetter("isr"),
    _ZERO, _ZERO, _ZERO, _ZERO,
    attrgetter("rcr"), attrgetter("tcr"), attrgetter("dcr"),
    attrgetter("imr"),
) + (_ZERO,) * 16


class Ne2000Device(NicDevice):
    """Behavioural NE2000 (RTL8029) model."""

    PCI = PciDescriptor(vendor_id=0x10EC, device_id=0x8029,
                        io_base=0x300, io_size=0x20, irq_line=9)

    def __init__(self, mac, **kwargs):
        super().__init__(mac, **kwargs)
        self.mem = bytearray(PAGE_SIZE * (MEM_STOP_PAGE - MEM_START_PAGE))
        self.cr = CR_STP
        self.isr = 0
        self.imr = 0
        self.pstart = MEM_START_PAGE
        self.pstop = MEM_STOP_PAGE
        self.bnry = MEM_START_PAGE
        self.curr = MEM_START_PAGE
        self.tpsr = MEM_START_PAGE
        self.tbcr = 0
        self.rsar = 0
        self.rbcr = 0
        self.rcr = 0
        self.tcr = 0
        self.dcr = 0
        self.par = bytearray(mac)

    # ------------------------------------------------------------------

    def reset(self):
        self.cr = CR_STP
        self.isr = 0x80  # RST bit set after reset, drivers poll it
        self.imr = 0
        self.rx_enabled = False
        self.tx_enabled = False

    def _page(self):
        return (self.cr >> CR_PS_SHIFT) & 0x3

    def _update_irq(self):
        if self.isr & self.imr:
            self.raise_interrupt()

    def _mem_index(self, address):
        if not MEM_BASE <= address < MEM_LIMIT:
            return None
        return address - MEM_BASE

    # ------------------------------------------------------------------
    # Register access

    def io_read(self, offset, width):
        if offset == REG_DATA:
            return self._remote_read(width)
        return self._read_reg(offset) & ((1 << 8 * width) - 1)

    def io_write(self, offset, width, value):
        if offset == REG_DATA:
            self._remote_write(value, width)
            return
        self._write_reg(offset, value & 0xFF)

    def _read_reg(self, offset):
        if offset == REG_CR:
            return self.cr
        if offset == REG_RESET:
            self.reset()
            return 0
        page = (self.cr >> CR_PS_SHIFT) & 0x3
        if page == 0:
            return _PAGE0_READS[offset](self)
        if page == 1:
            if 0x01 <= offset <= 0x06:
                return self.par[offset - 0x01]
            if offset == 0x07:
                return self.curr
            if 0x08 <= offset <= 0x0F:
                return self.multicast_hash[offset - 0x08]
        return 0

    def _write_reg(self, offset, value):
        if offset == REG_CR:
            self._write_cr(value)
            return
        page = self._page()
        if page == 0:
            self._write_page0(offset, value)
        elif page == 1:
            self._write_page1(offset, value)

    def _write_cr(self, value):
        self.cr = value
        if value & CR_STA and not value & CR_STP:
            self.rx_enabled = True
            self.tx_enabled = True
        if value & CR_STP:
            self.rx_enabled = False
            self.tx_enabled = False
        if value & CR_TXP:
            self._do_transmit()
            self.cr &= ~CR_TXP
        if value & CR_RD_ABORT:
            self.isr |= ISR_RDC
            self._update_irq()

    def _write_page0(self, offset, value):
        if offset == 0x01:
            self.pstart = value
        elif offset == 0x02:
            self.pstop = value
        elif offset == 0x03:
            self.bnry = value
        elif offset == 0x04:
            self.tpsr = value
        elif offset == 0x05:
            self.tbcr = (self.tbcr & 0xFF00) | value
        elif offset == 0x06:
            self.tbcr = (self.tbcr & 0x00FF) | (value << 8)
        elif offset == 0x07:
            self.isr &= ~value  # write-1-to-clear
        elif offset == 0x08:
            self.rsar = (self.rsar & 0xFF00) | value
        elif offset == 0x09:
            self.rsar = (self.rsar & 0x00FF) | (value << 8)
        elif offset == 0x0A:
            self.rbcr = (self.rbcr & 0xFF00) | value
        elif offset == 0x0B:
            self.rbcr = (self.rbcr & 0x00FF) | (value << 8)
        elif offset == 0x0C:
            self.rcr = value
            self.promiscuous = bool(value & RCR_PRO)
        elif offset == 0x0D:
            self.tcr = value
        elif offset == 0x0E:
            self.dcr = value
            self.full_duplex = bool(value & DCR_FDX)
        elif offset == 0x0F:
            self.imr = value
            self._update_irq()

    def _write_page1(self, offset, value):
        if 0x01 <= offset <= 0x06:
            self.par[offset - 0x01] = value
            self.mac[offset - 0x01] = value
        elif offset == 0x07:
            self.curr = value
        elif 0x08 <= offset <= 0x0F:
            self.multicast_hash[offset - 0x08] = value

    # ------------------------------------------------------------------
    # Remote DMA (driver-driven copies through the data port)

    # An access wholly inside packet memory is one slice (it cannot wrap
    # RSAR: packet memory ends below 0x10000); any other walks byte by
    # byte, reading 0 / dropping writes outside packet memory.

    def _remote_read(self, width):
        index = self.rsar - MEM_BASE
        if 0 <= index and self.rsar + width <= MEM_LIMIT:
            value = int.from_bytes(self.mem[index:index + width], "little")
            self.rsar += width
            self.rbcr = self.rbcr - width if self.rbcr > width else 0
        else:
            value = 0
            for i in range(width):
                index = self._mem_index(self.rsar)
                byte = self.mem[index] if index is not None else 0
                value |= byte << (8 * i)
                self.rsar = (self.rsar + 1) & 0xFFFF
                if self.rbcr:
                    self.rbcr -= 1
        if self.rbcr == 0:
            self.isr |= ISR_RDC
            self._update_irq()
        return value

    def _remote_write(self, value, width):
        index = self.rsar - MEM_BASE
        if 0 <= index and self.rsar + width <= MEM_LIMIT:
            self.mem[index:index + width] = \
                (value & ((1 << 8 * width) - 1)).to_bytes(width, "little")
            self.rsar += width
            self.rbcr = self.rbcr - width if self.rbcr > width else 0
        else:
            for i in range(width):
                index = self._mem_index(self.rsar)
                if index is not None:
                    self.mem[index] = (value >> (8 * i)) & 0xFF
                self.rsar = (self.rsar + 1) & 0xFFFF
                if self.rbcr:
                    self.rbcr -= 1
        if self.rbcr == 0:
            self.isr |= ISR_RDC
            self._update_irq()

    # Stream transfers (see repro.vm.bus.Bus): a run wholly inside packet
    # memory is one slice plus the byte-count bookkeeping of its
    # accesses; any other run makes the single accesses.

    def read_stream(self, offset, width, n):
        """The bytes of ``n`` ``io_read(offset, width)`` calls, leaving
        what they would; ``None`` for a register other than the data
        port."""
        if offset != REG_DATA:
            return None
        total = width * n
        index = self.rsar - MEM_BASE
        if 0 <= index and self.rsar + total <= MEM_LIMIT:
            data = bytes(self.mem[index:index + total])
            self.rsar += total
            self._count_stream(width, n)
            return data
        return b"".join(self._remote_read(width).to_bytes(width, "little")
                        for _ in range(n))

    def write_stream(self, offset, width, data):
        """Make the ``io_write(offset, width, element)`` calls of
        ``data``'s elements; ``None`` (nothing written) for a register
        other than the data port."""
        if offset != REG_DATA:
            return None
        total = len(data)
        index = self.rsar - MEM_BASE
        if 0 <= index and self.rsar + total <= MEM_LIMIT:
            self.mem[index:index + total] = data
            self.rsar += total
            self._count_stream(width, total // width)
        else:
            for start in range(0, total, width):
                self._remote_write(
                    int.from_bytes(data[start:start + width], "little"),
                    width)
        return True

    def _count_stream(self, width, n):
        """RBCR after ``n`` in-memory accesses of ``width`` bytes, and the
        ``ISR_RDC`` update each access that leaves it 0 makes."""
        rbcr = self.rbcr
        self.rbcr = max(rbcr - n * width, 0)
        # Access k leaves max(rbcr - k * width, 0).
        zeroed = n - max(1, -(-rbcr // width)) + 1
        if zeroed > 0:
            self.isr |= ISR_RDC
            for _ in range(zeroed):
                self._update_irq()

    # ------------------------------------------------------------------
    # TX / RX

    def _do_transmit(self):
        if not self.tx_enabled:
            return
        start = self.tpsr * PAGE_SIZE
        index = self._mem_index(start)
        if index is None:
            self.isr |= ISR_TXE
            self._update_irq()
            return
        frame = bytes(self.mem[index:index + self.tbcr])
        self.transmit(frame)
        self.isr |= ISR_PTX
        self._update_irq()

    def receive_frame(self, frame_bytes):
        if not self.accepts(frame_bytes):
            self.stats["rx_dropped"] += 1
            return
        total = len(frame_bytes) + 4  # ring header
        pages_needed = (total + PAGE_SIZE - 1) // PAGE_SIZE
        next_page = self.curr + pages_needed
        if next_page >= self.pstop:
            next_page = self.pstart + (next_page - self.pstop)
        # Overflow check: would we run into BNRY?
        if self._ring_full(pages_needed):
            self.isr |= ISR_OVW
            self.stats["rx_dropped"] += 1
            self._update_irq()
            return
        header = bytes([
            0x01,                        # status: received OK
            next_page,
            total & 0xFF, (total >> 8) & 0xFF,
        ])
        self._ring_write(self.curr * PAGE_SIZE, header + frame_bytes)
        self.curr = next_page
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame_bytes)
        self.isr |= ISR_PRX
        self._update_irq()

    def _ring_full(self, pages_needed):
        size = self.pstop - self.pstart
        if size <= 0:  # PSTOP <= PSTART: a ring with no room at all
            return True
        free = (self.bnry - self.curr) % size or size
        return pages_needed >= free

    def _ring_write(self, address, data):
        """Store ``data`` from ``address`` on, wrapping from PSTOP back
        to PSTART.  A ring inside packet memory takes one slice per
        wrap-free run; other ring bounds walk byte by byte."""
        limit = self.pstop * PAGE_SIZE
        ring_base = self.pstart * PAGE_SIZE
        if MEM_BASE <= ring_base < limit <= MEM_LIMIT \
                and MEM_BASE <= address < limit:
            view = memoryview(data)
            while view:
                run = min(len(view), limit - address)
                index = address - MEM_BASE
                self.mem[index:index + run] = view[:run]
                view = view[run:]
                address += run
                if address == limit:
                    address = ring_base
            return
        for byte in data:
            index = self._mem_index(address)
            if index is not None:
                self.mem[index] = byte
            address += 1
            page = address // PAGE_SIZE
            if page >= self.pstop:
                address = self.pstart * PAGE_SIZE
