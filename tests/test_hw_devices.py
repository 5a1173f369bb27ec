"""Unit tests for the NIC device models' register interfaces (driving the
hardware directly, no driver involved)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BusError
from repro.hw import (
    Ne2000Device,
    PcnetDevice,
    Rtl8139Device,
    Smc91c111Device,
)
from repro.hw import ne2000 as NE
from repro.hw import pcnet as PC
from repro.hw import rtl8139 as RT
from repro.hw import smc91c111 as SMC
from repro.isa import Instruction, Op, encode
from repro.layout import TEXT_BASE, page_align
from repro.net.medium import Medium
from repro.vm import Machine

MAC = b"\x52\x54\x00\x01\x02\x03"


def make(device_cls):
    machine = Machine()
    medium = Medium()
    device = device_cls(MAC, medium=medium, bus=machine.bus)
    medium.attach(device)
    irqs = []
    device.irq_callback = lambda: irqs.append(1)
    return machine, medium, device, irqs


class TestNe2000:
    def test_reset_via_port(self):
        _m, _med, dev, _irqs = make(Ne2000Device)
        dev.io_read(NE.REG_RESET, 1)
        assert dev.isr & 0x80

    def test_mac_in_page1(self):
        _m, _med, dev, _irqs = make(Ne2000Device)
        dev.io_write(NE.REG_CR, 1, 0x40)  # page 1
        mac = bytes(dev.io_read(NE.REG_CR + 1 + i, 1) for i in range(6))
        assert mac == MAC

    def test_remote_dma_roundtrip(self):
        _m, _med, dev, _irqs = make(Ne2000Device)
        address = NE.MEM_START_PAGE * 256
        dev.io_write(0x08, 1, address & 0xFF)
        dev.io_write(0x09, 1, address >> 8)
        dev.io_write(0x0A, 1, 8)
        dev.io_write(0x0B, 1, 0)
        dev.io_write(NE.REG_CR, 1, NE.CR_STA | NE.CR_RD_WRITE)
        dev.io_write(NE.REG_DATA, 4, 0xDDCCBBAA)
        dev.io_write(NE.REG_DATA, 4, 0x44332211)
        # read back
        dev.io_write(0x08, 1, address & 0xFF)
        dev.io_write(0x09, 1, address >> 8)
        dev.io_write(0x0A, 1, 8)
        dev.io_write(0x0B, 1, 0)
        dev.io_write(NE.REG_CR, 1, NE.CR_STA | NE.CR_RD_READ)
        assert dev.io_read(NE.REG_DATA, 4) == 0xDDCCBBAA
        assert dev.io_read(NE.REG_DATA, 4) == 0x44332211

    def test_transmit_from_internal_memory(self):
        _m, medium, dev, irqs = make(Ne2000Device)
        dev.io_write(NE.REG_CR, 1, NE.CR_STA)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"p" * 50
        # remote-DMA the frame to the tx page
        dev.rsar = NE.MEM_START_PAGE * 256
        dev.rbcr = len(frame)
        for byte in frame:
            dev._remote_write(byte, 1)
        dev.io_write(0x04, 1, NE.MEM_START_PAGE)      # TPSR
        dev.io_write(0x05, 1, len(frame) & 0xFF)
        dev.io_write(0x06, 1, len(frame) >> 8)
        dev.io_write(0x0F, 1, NE.ISR_PTX)             # unmask TX
        dev.io_write(NE.REG_CR, 1, NE.CR_STA | NE.CR_TXP)
        assert medium.transmitted == [frame]
        assert dev.isr & NE.ISR_PTX
        assert irqs

    def test_rx_ring_header(self):
        _m, medium, dev, _irqs = make(Ne2000Device)
        dev.io_write(NE.REG_CR, 1, NE.CR_STA)
        dev.io_write(0x0C, 1, NE.RCR_AB)  # accept broadcast
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"q" * 50
        medium.inject(frame)
        start = dev.curr  # advanced past the packet
        index = dev._mem_index(NE.MEM_START_PAGE * 256)
        header = bytes(dev.mem[index:index + 4])
        assert header[0] == 0x01                       # RX OK
        total = header[2] | (header[3] << 8)
        assert total == len(frame) + 4

    @pytest.mark.parametrize("pstart,pstop", [(0x50, 0x50), (0x60, 0x50)])
    def test_ring_without_room_drops_as_overflow(self, pstart, pstop):
        """PSTOP <= PSTART leaves no ring: every accepted frame is an
        overflow drop, never an exception out of ``receive_frame``."""
        _m, _medium, dev, _irqs = make(Ne2000Device)
        dev.io_write(NE.REG_CR, 1, NE.CR_STA)
        dev.io_write(0x0C, 1, NE.RCR_AB)  # accept broadcast
        dev.pstart, dev.pstop = pstart, pstop
        dev.curr = dev.bnry = pstart
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"q" * 50
        dev.receive_frame(frame)
        assert dev.isr & NE.ISR_OVW
        assert not dev.isr & NE.ISR_PRX
        assert dev.stats["rx_dropped"] == 1
        assert dev.stats["rx_frames"] == 0
        assert dev.curr == pstart


def _ring_write_by_bytes(dev, address, data):
    """The per-byte RX ring copy the sliced ``_ring_write`` replaces."""
    for byte in data:
        index = dev._mem_index(address)
        if index is not None:
            dev.mem[index] = byte
        address += 1
        if address // NE.PAGE_SIZE >= dev.pstop:
            address = dev.pstart * NE.PAGE_SIZE


def _remote_by_bytes(dev, width, value=None):
    """The per-byte remote DMA the sliced ``_remote_read``/``_remote_write``
    replace; reads when ``value`` is None."""
    result = 0
    for i in range(width):
        index = dev._mem_index(dev.rsar)
        if value is None:
            byte = dev.mem[index] if index is not None else 0
            result |= byte << (8 * i)
        elif index is not None:
            dev.mem[index] = (value >> (8 * i)) & 0xFF
        dev.rsar = (dev.rsar + 1) & 0xFFFF
        if dev.rbcr:
            dev.rbcr -= 1
    if dev.rbcr == 0:
        dev.isr |= NE.ISR_RDC
    return result


def _ne_state(dev):
    return (bytes(dev.mem), dev.rsar, dev.rbcr, dev.isr)


# Pages on both sides of packet memory (0x40..0x7F) and its edges.
_ne_page = st.integers(min_value=0x3C, max_value=0x84)
# (PSTART, PSTOP): small rings inside packet memory, so copies wrap, or
# any pair, including empty, inverted and out-of-memory rings.
_ne_ring = st.one_of(
    st.tuples(st.integers(min_value=NE.MEM_START_PAGE,
                          max_value=NE.MEM_STOP_PAGE - 1),
              st.integers(min_value=1, max_value=6)).map(
        lambda ring: (ring[0], min(ring[0] + ring[1], NE.MEM_STOP_PAGE))),
    st.tuples(_ne_page, _ne_page))
_ne_rsar = st.one_of(
    st.integers(min_value=NE.MEM_BASE - 6, max_value=NE.MEM_BASE + 6),
    st.integers(min_value=NE.MEM_LIMIT - 6, max_value=NE.MEM_LIMIT + 6),
    st.integers(min_value=0xFFFA, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF))


class TestNe2000Slices:
    """The sliced packet-memory copies store and load exactly the bytes
    the per-byte loops did, for any ring bounds and DMA address."""

    @staticmethod
    def _pair(pstart=NE.MEM_START_PAGE, pstop=NE.MEM_STOP_PAGE):
        pair = []
        for _ in range(2):
            dev = Ne2000Device(MAC)
            dev.mem[:] = bytes(range(256)) * (len(dev.mem) // 256)
            dev.pstart, dev.pstop = pstart, pstop
            pair.append(dev)
        return pair

    @settings(max_examples=200, deadline=None)
    @given(bounds=_ne_ring, page=_ne_page,
           offset=st.integers(min_value=0, max_value=255),
           near_pstop=st.booleans(),
           length=st.integers(min_value=0, max_value=1600),
           seed=st.integers(min_value=0, max_value=255))
    def test_ring_write_matches_byte_loop(self, bounds, page, offset,
                                          near_pstop, length, seed):
        pstart, pstop = bounds
        data = bytes((seed + 31 * i) & 0xFF for i in range(length))
        sliced, looped = self._pair(pstart, pstop)
        address = page * NE.PAGE_SIZE + offset
        if near_pstop:
            # Start just below PSTOP so the copy wraps.
            address = pstop * NE.PAGE_SIZE - 1 - offset
        sliced._ring_write(address, data)
        _ring_write_by_bytes(looped, address, data)
        assert sliced.mem == looped.mem

    def test_ring_write_wraps_at_pstop(self):
        dev = Ne2000Device(MAC)
        dev.pstart, dev.pstop = 0x41, 0x43      # ring 0x4100..0x42FF
        data = bytes(range(1, 256)) * 4
        data = data[:0x300]
        dev._ring_write(0x4280, data)
        ring = bytes(dev.mem[0x100:0x300])
        # 0x80 bytes up to PSTOP, a whole lap of 0x200, then 0x80 more.
        assert ring == data[0x280:0x300] + data[0x100:0x280]
        assert not any(dev.mem[:0x100]) and not any(dev.mem[0x300:])

    @settings(max_examples=200, deadline=None)
    @given(rsar=_ne_rsar, rbcr=st.integers(min_value=0, max_value=9),
           width=st.sampled_from([1, 2, 4]), write=st.booleans(),
           value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_remote_dma_matches_byte_loop(self, rsar, rbcr, width, write,
                                          value):
        sliced, looped = self._pair()
        for dev in (sliced, looped):
            dev.rsar, dev.rbcr = rsar, rbcr
        if write:
            sliced._remote_write(value, width)
            _remote_by_bytes(looped, width, value)
        else:
            assert sliced._remote_read(width) == \
                _remote_by_bytes(looped, width)
        assert _ne_state(sliced) == _ne_state(looped)

    def test_page0_reads(self):
        dev = Ne2000Device(MAC)
        dev.pstart, dev.pstop, dev.bnry = 0x46, 0x7E, 0x50
        dev.isr, dev.rcr, dev.tcr, dev.dcr, dev.imr = 1, 2, 3, 4, 5
        expected = {0x01: 0x46, 0x02: 0x7E, 0x03: 0x50, 0x04: 0x01,
                    0x07: 1, 0x0C: 2, 0x0D: 3, 0x0E: 4, 0x0F: 5}
        for offset in range(1, 0x1F):
            if offset != NE.REG_DATA:
                assert dev.io_read(offset, 1) == expected.get(offset, 0)


def _irq_counted(device):
    """``device`` with a callback that counts every interrupt raise."""
    device.irq_count = 0

    def raised():
        device.irq_count += 1
    device.irq_callback = raised
    return device


def _full_state(device):
    """Every attribute of ``device`` but its interrupt callback (the
    raise count stays in as ``irq_count``)."""
    return {key: value for key, value in vars(device).items()
            if key != "irq_callback"}


def _stream_pair(make_device):
    """Two identically prepared devices: one streams, one takes the
    single accesses the stream stands for."""
    return _irq_counted(make_device()), _irq_counted(make_device())


def _single_accesses(device, read, write, offset, width, n, data):
    """``n`` single register accesses: the bytes read, or ``data``'s
    elements written."""
    if data is None:
        return b"".join(read(offset, width).to_bytes(width, "little")
                        for _ in range(n))
    for start in range(0, len(data), width):
        write(offset, width,
              int.from_bytes(data[start:start + width], "little"))
    return True


def _check_stream(streamed, single, space, offset, width, n, data):
    """The stream call and the single accesses leave the same bytes,
    device state and interrupt count; a declined stream (``None``)
    leaves the device untouched."""
    before = _full_state(streamed)
    if data is None:
        got = streamed.read_stream(offset, width, n)
    else:
        got = streamed.write_stream(offset, width, data)
    if got is None:
        assert _full_state(streamed) == before
        return False
    read, write = ((single.io_read, single.io_write) if space == "port"
                   else (single.mmio_read, single.mmio_write))
    assert got == _single_accesses(single, read, write, offset, width, n,
                                   data)
    assert _full_state(streamed) == _full_state(single)
    return True


_stream_n = st.one_of(st.integers(min_value=0, max_value=40),
                      st.integers(min_value=500, max_value=1100))


class TestStreamTransfers:
    """``read_stream``/``write_stream`` stand for ``n`` single data
    register accesses: from random device states they return the same
    bytes and leave the same full state and interrupt count, or decline
    untouched."""

    @settings(max_examples=200, deadline=None)
    @given(rsar=_ne_rsar,
           rbcr=st.one_of(st.integers(min_value=0, max_value=64),
                          st.integers(min_value=0, max_value=0xFFFF)),
           isr=st.integers(min_value=0, max_value=0xFF),
           imr=st.sampled_from([0, NE.ISR_RDC, NE.ISR_PRX, 0xFF]),
           width=st.sampled_from([1, 2, 4]), n=_stream_n,
           write=st.booleans(), seed=st.integers(min_value=0, max_value=255))
    def test_ne2000_data_port(self, rsar, rbcr, isr, imr, width, n, write,
                              seed):
        def make_device():
            dev = Ne2000Device(MAC)
            dev.mem[:] = bytes((seed + 7 * i) & 0xFF
                               for i in range(len(dev.mem)))
            dev.rsar, dev.rbcr, dev.isr, dev.imr = rsar, rbcr, isr, imr
            return dev

        data = bytes((seed * 3 + i) & 0xFF for i in range(width * n)) \
            if write else None
        streamed, single = _stream_pair(make_device)
        assert _check_stream(streamed, single, "port", NE.REG_DATA, width,
                             n, data)

    @pytest.mark.parametrize("offset", [0x00, 0x07, 0x0F, 0x1F])
    @pytest.mark.parametrize("write", [False, True])
    def test_ne2000_declines_other_registers(self, offset, write):
        streamed, single = _stream_pair(lambda: Ne2000Device(MAC))
        data = b"\x01\x02" if write else None
        assert not _check_stream(streamed, single, "port", offset, 1, 2,
                                 data)

    @settings(max_examples=200, deadline=None)
    @given(bank=st.sampled_from([2, 2, 2, 0, 1, 3, 4, 7]),
           offset=st.sampled_from([0x08, 0x08, 0x0A, 0x06, 0x0C]),
           flags=st.sampled_from([0, SMC.PTR_AUTO_INCR, SMC.PTR_RCV,
                                  SMC.PTR_AUTO_INCR | SMC.PTR_RCV]),
           cursor=st.one_of(st.integers(min_value=0x7F0, max_value=0x7FF),
                            st.integers(min_value=0, max_value=0x7FF)),
           pnr=st.one_of(st.integers(min_value=0, max_value=15),
                         st.integers(min_value=0, max_value=0x3F)),
           rx_fifo=st.lists(st.integers(min_value=0, max_value=15),
                            max_size=2),
           width=st.sampled_from([1, 2, 4]), n=_stream_n,
           write=st.booleans(), seed=st.integers(min_value=0, max_value=255))
    def test_smc91c111_data_window(self, bank, offset, flags, cursor, pnr,
                                   rx_fifo, width, n, write, seed):
        def make_device():
            dev = Smc91c111Device(MAC)
            dev.packet_mem[:] = bytes((seed + 5 * i) & 0xFF
                                      for i in range(len(dev.packet_mem)))
            dev.bank, dev.pnr, dev.rx_fifo = bank, pnr, list(rx_fifo)
            dev.pointer, dev._ptr_cursor = flags | cursor, cursor
            return dev

        data = bytes((seed * 3 + i) & 0xFF for i in range(width * n)) \
            if write else None
        streamed, single = _stream_pair(make_device)
        streams = bank == 2 and offset in (0x08, 0x0A)
        assert _check_stream(streamed, single, "mmio", offset, width, n,
                             data) == streams
        assert len(streamed.packet_mem) == len(single.packet_mem) \
            == SMC.NUM_PACKETS * SMC.PACKET_SIZE


class TestRtl8139:
    def test_mac_readable_writable(self):
        _m, _med, dev, _irqs = make(Rtl8139Device)
        assert dev.io_read(0, 4) == int.from_bytes(MAC[:4], "little")
        dev.io_write(0, 1, 0xAB)
        assert dev.mac[0] == 0xAB

    def test_reset_bit_self_clears(self):
        _m, _med, dev, _irqs = make(Rtl8139Device)
        dev.io_write(0x37, 1, RT.CR_RST)
        assert dev.io_read(0x37, 1) & RT.CR_RST == 0

    def test_dma_transmit(self):
        machine, medium, dev, irqs = make(Rtl8139Device)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"r" * 50
        machine.memory.write_bytes(0x00600000, frame)
        dev.io_write(0x37, 1, RT.CR_TE | RT.CR_RE)
        dev.io_write(0x3C, 2, RT.ISR_TOK)
        dev.io_write(0x20, 4, 0x00600000)  # TSAD0
        dev.io_write(0x10, 4, len(frame))  # TSD0: kick
        assert medium.transmitted == [frame]
        assert dev.io_read(0x10, 4) & RT.TSD_TOK
        assert irqs

    def test_rx_ring_dma_record(self):
        machine, medium, dev, _irqs = make(Rtl8139Device)
        dev.io_write(0x30, 4, 0x00610000)  # RBSTART
        dev.io_write(0x44, 4, RT.RCR_AB | RT.RCR_APM)
        dev.io_write(0x37, 1, RT.CR_RE)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"s" * 50
        medium.inject(frame)
        status, length = struct.unpack_from(
            "<HH", machine.memory.read_bytes(0x00610000, 4))
        assert status & 1
        assert length == len(frame) + 4
        assert machine.memory.read_bytes(0x00610004, len(frame)) == frame
        assert dev.io_read(0x3A, 2) > 0  # CBR advanced

    def test_config_lock(self):
        _m, _med, dev, _irqs = make(Rtl8139Device)
        dev.io_write(0x59, 1, RT.CONFIG3_MAGIC)   # locked: ignored
        assert not dev.wol_enabled
        dev.io_write(0x50, 1, RT.CFG9346_UNLOCK)
        dev.io_write(0x59, 1, RT.CONFIG3_MAGIC)
        assert dev.wol_enabled

    def test_plain_register_reads(self):
        _m, _med, dev, _irqs = make(Rtl8139Device)
        names = {0x30: "rbstart", 0x37: "cr", 0x38: "capr", 0x3A: "cbr",
                 0x3C: "imr", 0x3E: "isr", 0x40: "tcr", 0x44: "rcr",
                 0x50: "cfg9346", 0x52: "config1", 0x59: "config3",
                 0x64: "bmcr"}
        for number, name in enumerate(sorted(names.values())):
            setattr(dev, name, 0x8070605 * (number + 1))
        for offset in range(0x30, 0x80):
            name = names.get(offset)
            value = getattr(dev, name) if name else 0
            for width in (1, 2, 4):
                assert dev.io_read(offset, width) == \
                    value & ((1 << 8 * width) - 1)


class TestPcnet:
    def _init_block(self, machine, base=0x00620000):
        rdra, tdra = 0x00621000, 0x00622000
        block = struct.pack("<HHHH", 0, 2, 2, 0) + MAC + b"\0\0" \
            + b"\0" * 8 + struct.pack("<II", rdra, tdra)
        machine.memory.write_bytes(base, block)
        # one rx descriptor owned by the device
        machine.memory.write_bytes(rdra, struct.pack(
            "<IIII", 0x00623000, 1536, PC.DESC_OWN, 0))
        machine.memory.write_bytes(rdra + 16, struct.pack(
            "<IIII", 0x00624000, 1536, PC.DESC_OWN, 0))
        return base, rdra, tdra

    def test_rap_rdp_indirection(self):
        _m, _med, dev, _irqs = make(PcnetDevice)
        dev.io_write(PC.REG_RAP, 2, 15)
        dev.io_write(PC.REG_RDP, 2, PC.CSR15_PROM)
        assert dev.promiscuous
        dev.io_write(PC.REG_RAP, 2, 0)
        assert dev.io_read(PC.REG_RDP, 2) & PC.CSR0_STOP

    def test_init_block_load(self):
        machine, _med, dev, _irqs = make(PcnetDevice)
        base, rdra, tdra = self._init_block(machine)
        dev.io_write(PC.REG_RAP, 2, 1)
        dev.io_write(PC.REG_RDP, 2, base & 0xFFFF)
        dev.io_write(PC.REG_RAP, 2, 2)
        dev.io_write(PC.REG_RDP, 2, base >> 16)
        dev.io_write(PC.REG_RAP, 2, 0)
        dev.io_write(PC.REG_RDP, 2, PC.CSR0_INIT)
        assert dev.csr[0] & PC.CSR0_IDON
        assert dev.rdra == rdra and dev.tdra == tdra
        assert dev.rlen == 2

    def test_rx_into_descriptor(self):
        machine, medium, dev, irqs = make(PcnetDevice)
        base, rdra, _tdra = self._init_block(machine)
        dev.io_write(PC.REG_RAP, 2, 1)
        dev.io_write(PC.REG_RDP, 2, base & 0xFFFF)
        dev.io_write(PC.REG_RAP, 2, 2)
        dev.io_write(PC.REG_RDP, 2, base >> 16)
        dev.io_write(PC.REG_RAP, 2, 0)
        dev.io_write(PC.REG_RDP, 2,
                     PC.CSR0_INIT | PC.CSR0_STRT | PC.CSR0_IENA)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"t" * 50
        medium.inject(frame)
        buf, _len, status, msg = struct.unpack(
            "<IIII", machine.memory.read_bytes(rdra, 16))
        assert not status & PC.DESC_OWN      # returned to host
        assert msg == len(frame)
        assert machine.memory.read_bytes(buf, len(frame)) == frame
        assert irqs

    def test_multicast_hash_via_csr8_11(self):
        _m, _med, dev, _irqs = make(PcnetDevice)
        dev.io_write(PC.REG_RAP, 2, 8)
        dev.io_write(PC.REG_RDP, 2, 0x1234)
        assert dev.multicast_hash[0] == 0x34
        assert dev.multicast_hash[1] == 0x12


class TestSmc91c111:
    def test_bank_switching(self):
        _m, _med, dev, _irqs = make(Smc91c111Device)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 3)
        assert dev.mmio_read(0x0A, 2) == 0x0091   # bank3 REVISION
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 1)
        assert dev.mmio_read(0x04, 1) == MAC[0]   # bank1 IAR0

    def test_mmu_alloc_and_tx(self):
        _m, medium, dev, irqs = make(Smc91c111Device)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 0)
        dev.mmio_write(0x00, 2, SMC.TCR_TXENA)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 2)
        dev.mmio_write(0x0D, 1, SMC.INT_TX)
        dev.mmio_write(0x00, 2, SMC.MMU_ALLOC)
        packet = dev.mmio_read(0x03, 1)
        assert not packet & SMC.ARR_FAILED
        dev.mmio_write(0x02, 1, packet)
        dev.mmio_write(0x06, 2, SMC.PTR_AUTO_INCR)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"u" * 48
        dev.mmio_write(0x08, 2, 0)                   # status word
        dev.mmio_write(0x08, 2, len(frame) + 6)      # byte count
        for i in range(0, len(frame), 2):
            dev.mmio_write(0x08, 2,
                           frame[i] | (frame[i + 1] << 8))
        dev.mmio_write(0x00, 2, SMC.MMU_ENQUEUE_TX)
        assert medium.transmitted == [frame]
        assert dev.int_status & SMC.INT_TX
        assert irqs

    def test_rx_fifo_flow(self):
        _m, medium, dev, _irqs = make(Smc91c111Device)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 0)
        dev.mmio_write(0x04, 2, SMC.RCR_RXEN)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"v" * 48
        medium.inject(frame)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 2)
        head = dev.mmio_read(0x05, 1)
        assert not head & SMC.FIFO_EMPTY
        dev.mmio_write(0x06, 2, SMC.PTR_RCV | SMC.PTR_AUTO_INCR)
        _status = dev.mmio_read(0x08, 2)
        count = dev.mmio_read(0x08, 2)
        assert count == len(frame) + 6
        payload = bytearray()
        for _ in range(len(frame) // 2):
            half = dev.mmio_read(0x08, 2)
            payload += bytes((half & 0xFF, half >> 8))
        assert bytes(payload) == frame
        dev.mmio_write(0x00, 2, SMC.MMU_REMOVE_RELEASE)
        assert dev.mmio_read(0x05, 1) & SMC.FIFO_EMPTY
        assert not dev.int_status & SMC.INT_RCV

    def test_alloc_exhaustion(self):
        _m, _med, dev, _irqs = make(Smc91c111Device)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 2)
        for _ in range(SMC.NUM_PACKETS):
            dev.mmio_write(0x00, 2, SMC.MMU_ALLOC)
            assert not dev.mmio_read(0x03, 1) & SMC.ARR_FAILED
        dev.mmio_write(0x00, 2, SMC.MMU_ALLOC)
        assert dev.mmio_read(0x03, 1) & SMC.ARR_FAILED

    @pytest.mark.parametrize("pnr", [SMC.NUM_PACKETS, 0x2A, 0x3F])
    def test_packet_number_past_memory(self, pnr):
        """A packet number the chip has no memory for reads 0, drops
        writes, and is ignored by release and enqueue: packet memory and
        the free list never grow."""
        _m, medium, dev, _irqs = make(Smc91c111Device)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 0)
        dev.mmio_write(0x00, 2, SMC.TCR_TXENA)
        dev.mmio_write(SMC.REG_BANK_SELECT, 2, 2)
        memory = bytes(dev.packet_mem)
        free = list(dev.free_packets)
        dev.mmio_write(0x02, 1, pnr)
        assert dev.mmio_read(0x02, 1) == pnr
        dev.mmio_write(0x06, 2, SMC.PTR_AUTO_INCR)
        for _ in range(SMC.PACKET_SIZE):
            dev.mmio_write(0x08, 4, 0x7FF007FF)
        dev.mmio_write(0x06, 2, SMC.PTR_AUTO_INCR)
        assert dev.mmio_read(0x08, 4) == 0
        assert dev.write_stream(0x08, 2, b"\xAA" * 64) is True
        assert dev.read_stream(0x08, 2, 32) == bytes(64)
        dev.mmio_write(0x00, 2, SMC.MMU_RELEASE_PKT)
        dev.mmio_write(0x00, 2, SMC.MMU_ENQUEUE_TX)
        assert bytes(dev.packet_mem) == memory
        assert dev.free_packets == free
        assert medium.transmitted == []
        assert not dev.tx_done_fifo


def _run_r32(machine, program, exec_backend):
    code = b"".join(encode(instr) for instr in program)
    machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
    machine.memory.write_bytes(TEXT_BASE, code)
    machine.cpu.exec_backend = exec_backend
    machine.cpu.pc = TEXT_BASE
    return machine.cpu.run(max_steps=100)


class TestSmc91c111MissingBanks:
    """The bank-select field is three bits wide but the chip has four
    banks: a register access in banks 4-7 is a bus error naming the bank,
    whichever tier issues it."""

    @pytest.mark.parametrize("exec_backend", ["interp", "compiled"])
    @pytest.mark.parametrize("write", [False, True])
    @pytest.mark.parametrize("bank", [4, 5, 6, 7])
    def test_register_access_raises_bus_error(self, exec_backend, write,
                                              bank):
        machine = Machine()
        dev = Smc91c111Device(MAC, bus=machine.bus)
        pci = Smc91c111Device.PCI
        machine.bus.attach_mmio(pci.mmio_base, pci.mmio_size, dev)
        access = Instruction(Op.ST16, 1, 2, imm=0x0C) if write \
            else Instruction(Op.LD16, 3, 1, imm=0x0C)
        program = [Instruction(Op.MOVI, 1, imm=pci.mmio_base),
                   Instruction(Op.MOVI, 2, imm=0xFF00 | bank),
                   Instruction(Op.ST16, 1, 2, imm=SMC.REG_BANK_SELECT),
                   access,
                   Instruction(Op.HALT)]
        with pytest.raises(BusError, match="bank %d" % bank):
            _run_r32(machine, program, exec_backend)
        assert dev.bank == bank
        # The bank select register itself still answers.
        assert dev.mmio_read(SMC.REG_BANK_SELECT, 2) == 0x3300 | bank

    @settings(max_examples=100, deadline=None)
    @given(cursor=st.integers(min_value=SMC.PACKET_SIZE - 6,
                              max_value=SMC.PACKET_SIZE - 1) | st.integers(
               min_value=0, max_value=SMC.PACKET_SIZE - 1),
           width=st.sampled_from([1, 2, 4]),
           value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_data_window_matches_byte_loop(self, cursor, width, value):
        dev = Smc91c111Device(MAC)
        dev.packet_mem[:] = bytes(range(256)) * (len(dev.packet_mem) // 256)
        dev.pnr = 3
        dev.pointer = SMC.PTR_AUTO_INCR
        base = dev.pnr * SMC.PACKET_SIZE
        positions = [base + (cursor + i) % SMC.PACKET_SIZE
                     for i in range(width)]
        dev._ptr_cursor = cursor
        expected = sum(dev.packet_mem[p] << (8 * i)
                       for i, p in enumerate(positions))
        assert dev._data_read(width) == expected
        dev._ptr_cursor = cursor
        value &= (1 << 8 * width) - 1
        dev._data_write(width, value)
        assert [dev.packet_mem[p] for p in positions] == \
            [(value >> (8 * i)) & 0xFF for i in range(width)]
        assert dev._ptr_cursor == (cursor + width) % SMC.PACKET_SIZE


class TestSharedFilter:
    @pytest.mark.parametrize("device_cls", [Ne2000Device, Rtl8139Device,
                                            PcnetDevice, Smc91c111Device])
    def test_filter_rejects_when_disabled(self, device_cls):
        _m, medium, dev, _irqs = make(device_cls)
        frame = b"\xff" * 6 + MAC + b"\x08\x00" + b"w" * 50
        medium.inject(frame)
        assert dev.stats["rx_frames"] == 0
        assert dev.stats["rx_dropped"] == 1
