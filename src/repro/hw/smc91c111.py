"""SMSC 91C111 device model (the embedded/FPGA NIC of the paper).

Programming style: **bank-switched registers over MMIO** with on-chip
packet memory managed by an MMU (allocate / release commands) and TX/RX
FIFOs.  No bus mastering -- the CPU copies every byte through the DATA
window, which is why Figure 5 shows 20-30% of CPU time spent inside the
driver on the FPGA platform.

Register file (MMIO, 16 bytes visible per bank; bank select at 0x0E):

Bank 0: 0x00 TCR (TXENA=0x0001, FDUPLX=0x0800)
        0x04 RCR (PRMS=0x0002, ALMUL=0x0004, RXEN=0x0100, SOFT_RST=0x8000)
        0x08 MIR (free packet-memory, read-only)
        0x0A RPCR (LED config: LEDA bits 0-2, LEDB bits 3-5)
Bank 1: 0x04..0x09 IAR0-5 (station MAC)
        0x0C CONTROL
Bank 2: 0x00 MMU_CMD: ALLOC=0x20, RESET=0x40, REMOVE_RELEASE=0x70,
                      RELEASE_PKT=0x80, ENQUEUE_TX=0xC0
        0x02 PNR (u8, packet number for pointer ops)
        0x03 ARR (u8, allocation result; FAILED=0x80)
        0x04 FIFO (u8 lo: tx-done fifo head, u8 hi at 0x05: rx fifo head;
                   EMPTY=0x80)
        0x06 POINTER (u16: offset | RCV=0x8000 | AUTO_INCR=0x4000)
        0x08 DATA (byte/halfword/word window into packet memory)
        0x0C INT_STATUS (u8: RCV=0x01 TX=0x02 ALLOC=0x08, write-1-clear
                         for TX; RCV clears when rx fifo empties)
        0x0D INT_MASK (u8)
Bank 3: 0x00..0x07 MCAST table (multicast hash)
        0x0A REVISION (read-only 0x91)

Packet format in packet memory (same as the real chip): u16 status,
u16 byte count, payload, u16 control word at the end.
"""

from repro.errors import BusError
from repro.hw.base import NicDevice, PciDescriptor

NUM_PACKETS = 16
PACKET_SIZE = 2048

# Bank 0
TCR_TXENA = 0x0001
TCR_FDUPLX = 0x0800
RCR_PRMS = 0x0002
RCR_ALMUL = 0x0004
RCR_RXEN = 0x0100
RCR_SOFT_RST = 0x8000

# Bank 2 MMU commands
MMU_ALLOC = 0x20
MMU_RESET = 0x40
MMU_REMOVE_RELEASE = 0x70
MMU_RELEASE_PKT = 0x80
MMU_ENQUEUE_TX = 0xC0

ARR_FAILED = 0x80
FIFO_EMPTY = 0x80

PTR_AUTO_INCR = 0x4000
PTR_RCV = 0x8000

INT_RCV = 0x01
INT_TX = 0x02
INT_ALLOC = 0x08

REG_BANK_SELECT = 0x0E

_DECLINE = object()


class Smc91c111Device(NicDevice):
    """Behavioural SMSC 91C111 model (FIFO + on-chip packet memory)."""

    PCI = PciDescriptor(vendor_id=0x0000, device_id=0x9111,
                        mmio_base=0xD000_0000, mmio_size=0x100, irq_line=6)

    def __init__(self, mac, **kwargs):
        super().__init__(mac, **kwargs)
        self.bank = 0
        self.tcr = 0
        self.rcr = 0
        self.rpcr = 0
        self.control = 0
        self.pointer = 0
        self.pnr = 0
        self.arr = ARR_FAILED
        self.int_status = 0
        self.int_mask = 0
        self.packet_mem = bytearray(NUM_PACKETS * PACKET_SIZE)
        self.free_packets = list(range(NUM_PACKETS))
        self.tx_done_fifo = []
        self.rx_fifo = []
        self._ptr_cursor = 0

    # ------------------------------------------------------------------

    def reset(self):
        self.bank = 0
        self.tcr = 0
        self.rcr = 0
        self.int_status = 0
        self.int_mask = 0
        self.free_packets = list(range(NUM_PACKETS))
        self.tx_done_fifo = []
        self.rx_fifo = []
        self.rx_enabled = False
        self.tx_enabled = False

    def _update_irq(self):
        if self.int_status & self.int_mask:
            self.raise_interrupt()

    # ------------------------------------------------------------------
    # MMIO access

    # Register accesses dispatch through the per-bank handler tuples
    # ``_READS``/``_WRITES``, defined after the handlers.

    def mmio_read(self, offset, width):
        if offset == REG_BANK_SELECT:
            value = 0x3300 | self.bank
        else:
            value = self._READS[self.bank](self, offset, width)
        return value & ((1 << 8 * width) - 1)

    def mmio_write(self, offset, width, value):
        value &= (1 << 8 * width) - 1
        if offset == REG_BANK_SELECT:
            self.bank = value & 0x7
            return
        self._WRITES[self.bank](self, offset, width, value)

    def _no_bank(self, offset, width, value=None):
        # The bank select field is three bits wide; the chip has four.
        raise BusError("smc91c111: %s of offset 0x%02x in bank %d, which "
                       "does not exist (banks 0-3)"
                       % ("read" if value is None else "write", offset,
                          self.bank))

    # Bank 0 ------------------------------------------------------------

    def _read_bank0(self, offset, width):
        if offset == 0x00:
            return self.tcr
        if offset == 0x04:
            return self.rcr
        if offset == 0x08:
            return len(self.free_packets) * (PACKET_SIZE // 256)
        if offset == 0x0A:
            return self.rpcr
        return 0

    def _write_bank0(self, offset, width, value):
        if offset == 0x00:
            self.tcr = value
            self.tx_enabled = bool(value & TCR_TXENA)
            self.full_duplex = bool(value & TCR_FDUPLX)
        elif offset == 0x04:
            if value & RCR_SOFT_RST:
                self.reset()
                return
            self.rcr = value
            self.rx_enabled = bool(value & RCR_RXEN)
            self.promiscuous = bool(value & RCR_PRMS)
        elif offset == 0x0A:
            self.rpcr = value
            self.led_state = value & 0x3F

    # Bank 1 ------------------------------------------------------------

    def _read_bank1(self, offset, width):
        if 0x04 <= offset < 0x0A:
            value = 0
            for i in range(width):
                index = offset - 0x04 + i
                if index < 6:
                    value |= self.mac[index] << (8 * i)
            return value
        if offset == 0x0C:
            return self.control
        return 0

    def _write_bank1(self, offset, width, value):
        if 0x04 <= offset < 0x0A:
            for i in range(width):
                index = offset - 0x04 + i
                if index < 6:
                    self.mac[index] = (value >> (8 * i)) & 0xFF
        elif offset == 0x0C:
            self.control = value

    # Bank 2 ------------------------------------------------------------

    def _read_bank2(self, offset, width):
        if offset == 0x02:
            value = self.pnr | (self.arr << 8)
            return value
        if offset == 0x03:
            return self.arr
        if offset == 0x04:
            lo = self.tx_done_fifo[0] if self.tx_done_fifo else FIFO_EMPTY
            hi = self.rx_fifo[0] if self.rx_fifo else FIFO_EMPTY
            return lo | (hi << 8)
        if offset == 0x05:
            return self.rx_fifo[0] if self.rx_fifo else FIFO_EMPTY
        if offset == 0x06:
            return self.pointer
        if offset == 0x08 or offset == 0x0A:
            return self._data_read(width)
        if offset == 0x0C:
            return self.int_status
        if offset == 0x0D:
            return self.int_mask
        return 0

    def _write_bank2(self, offset, width, value):
        if offset == 0x00:
            self._mmu_command(value & 0xFF)
        elif offset == 0x02:
            self.pnr = value & 0x3F
        elif offset == 0x06:
            self.pointer = value
            self._ptr_cursor = value & 0x07FF
        elif offset == 0x08 or offset == 0x0A:
            self._data_write(width, value)
        elif offset == 0x0C:
            # TX/ALLOC bits are write-1-to-clear; RCV tracks the fifo.
            self.int_status &= ~(value & (INT_TX | INT_ALLOC))
        elif offset == 0x0D:
            self.int_mask = value & 0xFF
            self._update_irq()

    # Bank 3 ------------------------------------------------------------

    def _read_bank3(self, offset, width):
        if 0x00 <= offset < 0x08:
            value = 0
            for i in range(width):
                if offset + i < 8:
                    value |= self.multicast_hash[offset + i] << (8 * i)
            return value
        if offset == 0x0A:
            return 0x0091
        return 0

    def _write_bank3(self, offset, width, value):
        if 0x00 <= offset < 0x08:
            for i in range(width):
                if offset + i < 8:
                    self.multicast_hash[offset + i] = (value >> (8 * i)) & 0xFF

    _READS = (_read_bank0, _read_bank1, _read_bank2, _read_bank3) \
        + (_no_bank,) * 4
    _WRITES = (_write_bank0, _write_bank1, _write_bank2, _write_bank3) \
        + (_no_bank,) * 4

    # ------------------------------------------------------------------
    # Packet memory access through the POINTER/DATA window

    def _target_packet(self):
        if self.pointer & PTR_RCV:
            return self.rx_fifo[0] if self.rx_fifo else None
        return self.pnr

    def _data_read(self, width):
        packet = self._target_packet()
        if packet is None:
            return 0
        cursor = self._ptr_cursor
        base = packet * PACKET_SIZE
        if cursor + width <= PACKET_SIZE:
            start = base + cursor
            value = int.from_bytes(self.packet_mem[start:start + width],
                                   "little")
        else:
            value = 0
            for i in range(width):
                value |= self.packet_mem[
                    base + (cursor + i) % PACKET_SIZE] << (8 * i)
        if self.pointer & PTR_AUTO_INCR:
            self._ptr_cursor = (self._ptr_cursor + width) % PACKET_SIZE
        return value

    def _data_write(self, width, value):
        packet = self._target_packet()
        if packet is None:
            return
        cursor = self._ptr_cursor
        base = packet * PACKET_SIZE
        if cursor + width <= PACKET_SIZE:
            start = base + cursor
            self.packet_mem[start:start + width] = value.to_bytes(
                width, "little")
        else:
            for i in range(width):
                self.packet_mem[base + (cursor + i) % PACKET_SIZE] = \
                    (value >> (8 * i)) & 0xFF
        if self.pointer & PTR_AUTO_INCR:
            self._ptr_cursor = (self._ptr_cursor + width) % PACKET_SIZE

    # Stream transfers (see repro.vm.bus.Bus) through the DATA window:
    # ``n`` accesses walk the packet cyclically from the cursor, or all
    # land on the cursor without auto-increment.

    def read_stream(self, offset, width, n):
        """The bytes of ``n`` ``mmio_read(offset, width)`` calls, leaving
        what they would; ``None`` unless ``offset`` is DATA in bank 2."""
        packet = self._stream_packet(offset)
        if packet is _DECLINE:
            return None
        if packet is None:
            return bytes(width * n)
        cursor = self._ptr_cursor
        if not self.pointer & PTR_AUTO_INCR:
            return self._packet_run(packet, cursor, width) * n
        self._ptr_cursor = (cursor + width * n) % PACKET_SIZE
        return self._packet_run(packet, cursor, width * n)

    def write_stream(self, offset, width, data):
        """Make the ``mmio_write(offset, width, element)`` calls of
        ``data``'s elements; ``None`` (nothing written) unless
        ``offset`` is DATA in bank 2."""
        packet = self._stream_packet(offset)
        if packet is _DECLINE:
            return None
        if packet is None:
            return True
        cursor = self._ptr_cursor
        if not self.pointer & PTR_AUTO_INCR:
            # Every element lands on the cursor: the last one stays.
            data = data[-width:]
        else:
            self._ptr_cursor = (cursor + len(data)) % PACKET_SIZE
        base = packet * PACKET_SIZE
        view = memoryview(data)
        while view:
            run = min(len(view), PACKET_SIZE - cursor)
            self.packet_mem[base + cursor:base + cursor + run] = view[:run]
            view = view[run:]
            cursor = 0
        return True

    def _stream_packet(self, offset):
        """The packet a DATA stream at ``offset`` walks (``None``: the
        accesses read 0 and drop writes), or ``_DECLINE`` for any other
        register and for a packet number past packet memory."""
        if self.bank != 2 or offset not in (0x08, 0x0A):
            return _DECLINE
        packet = self._target_packet()
        if packet is not None and packet >= NUM_PACKETS:
            return _DECLINE
        return packet

    def _packet_run(self, packet, cursor, size):
        """``size`` bytes of ``packet`` from ``cursor`` on, wrapping at
        the packet's end."""
        base = packet * PACKET_SIZE
        out = bytearray()
        while size:
            run = min(size, PACKET_SIZE - cursor)
            out += self.packet_mem[base + cursor:base + cursor + run]
            size -= run
            cursor = 0
        return bytes(out)

    # ------------------------------------------------------------------
    # MMU commands

    def _mmu_command(self, command):
        if command == MMU_ALLOC:
            if self.free_packets:
                self.arr = self.free_packets.pop(0)
                self.int_status |= INT_ALLOC
            else:
                self.arr = ARR_FAILED
            self._update_irq()
        elif command == MMU_RESET:
            self.reset()
        elif command == MMU_REMOVE_RELEASE:
            if self.rx_fifo:
                packet = self.rx_fifo.pop(0)
                self.free_packets.append(packet)
            if not self.rx_fifo:
                self.int_status &= ~INT_RCV
        elif command == MMU_RELEASE_PKT:
            if self.pnr not in self.free_packets:
                self.free_packets.append(self.pnr)
        elif command == MMU_ENQUEUE_TX:
            self._do_transmit(self.pnr)

    def _do_transmit(self, packet):
        if not self.tx_enabled:
            return
        base = packet * PACKET_SIZE
        count = int.from_bytes(self.packet_mem[base + 2:base + 4], "little")
        count &= 0x7FF
        frame = bytes(self.packet_mem[base + 4:base + 4 + count - 6])
        self.transmit(frame)
        self.tx_done_fifo.append(packet)
        self.int_status |= INT_TX
        self._update_irq()

    # ------------------------------------------------------------------
    # RX path

    def receive_frame(self, frame_bytes):
        if not self.accepts(frame_bytes):
            self.stats["rx_dropped"] += 1
            return
        if not self.free_packets:
            self.stats["rx_dropped"] += 1
            return
        packet = self.free_packets.pop(0)
        base = packet * PACKET_SIZE
        count = len(frame_bytes) + 6  # status + count + control words
        self.packet_mem[base:base + 2] = (0).to_bytes(2, "little")
        self.packet_mem[base + 2:base + 4] = count.to_bytes(2, "little")
        self.packet_mem[base + 4:base + 4 + len(frame_bytes)] = frame_bytes
        self.rx_fifo.append(packet)
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame_bytes)
        self.int_status |= INT_RCV
        self._update_irq()

    def _multicast_match(self, dst):
        if self.rcr & RCR_ALMUL:
            return True
        return super()._multicast_match(dst)
