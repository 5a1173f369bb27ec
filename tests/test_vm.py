"""Unit tests for the concrete VM: memory, bus, CPU."""

import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BusError, MemoryFault, VmFault
from repro.layout import (
    HEAP_BASE,
    MMIO_BASE,
    PAGE_SIZE,
    RETURN_TO_OS,
    STACK_TOP,
    import_address,
)
from repro.vm import Bus, Cpu, ExitReason, Machine, Memory
from repro.asm import assemble
from repro.isa.registers import REG_SP


class TestMemory:
    def test_read_write_roundtrip(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000)
        for width, value in ((1, 0xAB), (2, 0xBEEF), (4, 0xDEADBEEF)):
            mem.write(0x1100, width, value)
            assert mem.read(0x1100, width) == value

    def test_width_masking(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000)
        mem.write(0x1000, 1, 0x1FF)
        assert mem.read(0x1000, 1) == 0xFF

    def test_unmapped_access_faults(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read(0x5000, 4)
        with pytest.raises(MemoryFault):
            mem.write(0x5000, 4, 1)

    def test_cross_page_bytes(self):
        mem = Memory()
        mem.map_region(0x0000, 0x3000)
        data = bytes(range(256)) * 20
        mem.write_bytes(0x0F80, data)
        assert mem.read_bytes(0x0F80, len(data)) == data

    def test_zero_fill_default(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000)
        assert mem.read(0x1800, 4) == 0

    def test_overlapping_region_rejected(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000)
        with pytest.raises(ValueError):
            mem.map_region(0x1800, 0x1000)

    def test_region_names(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000, "text")
        assert mem.region_name(0x1234) == "text"
        assert mem.region_name(0x9999) is None


class RefMemory:
    """Reference model of :class:`Memory`: a region list and a byte dict."""

    def __init__(self, regions):
        self.regions = regions      # [(base, limit)]
        self.data = {}
        self.epoch = 0
        self.watch = None           # (lo, hi) hull of the watched spans

    def inside(self, address, size):
        return any(base <= address and address + size <= limit
                   for base, limit in self.regions)

    def read(self, address, size):
        if not self.inside(address, size):
            raise MemoryFault(address, "read")
        return bytes(self.data.get(address + i, 0) for i in range(size))

    def write(self, address, data):
        if not self.inside(address, len(data)):
            raise MemoryFault(address, "write")
        if self.watch is not None:
            lo, hi = self.watch
            if address < hi and address + len(data) > lo:
                self.epoch += 1
        for i, byte in enumerate(data):
            self.data[address + i] = byte

    def watch_code_span(self, lo, hi):
        if self.watch is None:
            self.watch = (lo, hi)
        else:
            self.watch = (min(self.watch[0], lo), max(self.watch[1], hi))


def ref_call(thunk):
    """``thunk()``, or ``("fault", address, kind)`` if it faults."""
    try:
        return thunk()
    except MemoryFault as fault:
        return ("fault", fault.address, fault.kind)


# Regions laid out left to right: a gap of 0 makes two regions adjacent,
# so an access across the seam must fault although every byte is mapped.
_REGION_LAYOUT = st.lists(
    st.tuples(st.sampled_from((0, 0, 1, 3, 0x80, PAGE_SIZE - 2)),
              st.sampled_from((1, 3, 4, 0x100, PAGE_SIZE, PAGE_SIZE + 5,
                               2 * PAGE_SIZE))),
    min_size=1, max_size=4)


def _anchors(regions):
    """Addresses worth probing: region edges, gaps, page boundaries."""
    points = {0}
    for base, limit in regions:
        points.update((base, limit, limit - 1))
        page = base - base % PAGE_SIZE
        while page <= limit:
            points.add(page)
            page += PAGE_SIZE
    return sorted(points)


class TestMemoryModel:
    """Random maps and accesses against :class:`RefMemory`: values,
    faults exactly on accesses outside one region, width masking, and
    ``write_epoch`` bumping iff a write meets the watched code span."""

    @settings(max_examples=150, deadline=None)
    @given(layout=_REGION_LAYOUT, start=st.integers(0, 3 * PAGE_SIZE),
           data=st.data())
    def test_matches_reference(self, layout, start, data):
        regions = []
        mem = Memory()
        cursor = start
        for gap, size in layout:
            base = cursor + gap
            mem.map_region(base, size)
            regions.append((base, base + size))
            cursor = base + size
        ref = RefMemory(regions)
        anchors = _anchors(regions)
        address = st.builds(lambda anchor, delta: anchor + delta,
                            st.sampled_from(anchors), st.integers(-6, 6))
        width = st.sampled_from((1, 2, 4))
        op = st.one_of(
            st.tuples(st.just("read"), address, width),
            st.tuples(st.just("write"), address, width,
                      st.integers(-(1 << 40), 1 << 40)),
            st.tuples(st.just("read_bytes"), address, st.integers(0, 12)),
            st.tuples(st.just("write_bytes"), address,
                      st.binary(max_size=12)),
            st.tuples(st.just("watch"), address,
                      st.integers(1, 2 * PAGE_SIZE)))
        steps = data.draw(st.lists(op, min_size=1, max_size=40))
        if data.draw(st.booleans()):
            base, limit = data.draw(st.sampled_from(regions))
            steps.insert(0, ("watch", base, limit - base))
        for step in steps:
            kind, where = step[0], step[1]
            if kind == "watch":
                mem.watch_code_span(where, where + step[2])
                ref.watch_code_span(where, where + step[2])
                continue
            if kind == "read":
                want = ref_call(lambda: int.from_bytes(
                    ref.read(where, step[2]), "little"))
                got = ref_call(lambda: mem.read(where, step[2]))
            elif kind == "write":
                masked = step[3] & ((1 << (8 * step[2])) - 1)
                want = ref_call(lambda: ref.write(
                    where, masked.to_bytes(step[2], "little")))
                got = ref_call(lambda: mem.write(where, step[2], step[3]))
            elif kind == "read_bytes":
                want = ref_call(lambda: ref.read(where, step[2])
                                if step[2] else b"")
                got = ref_call(lambda: mem.read_bytes(where, step[2]))
            else:
                want = ref_call(lambda: ref.write(where, step[2])
                                if step[2] else None)
                got = ref_call(lambda: mem.write_bytes(where, step[2]))
            assert got == want, step
            assert mem.write_epoch == ref.epoch, step
        for base, limit in regions:
            assert mem.read_bytes(base, limit - base) == ref.read(
                base, limit - base)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/maps")
    def test_dropped_machines_release_their_mappings(self):
        def mappings():
            """(line count, mapped bytes) of this process's maps."""
            lines = size = 0
            with open("/proc/self/maps") as handle:
                for line in handle:
                    lo, hi = line.split(None, 1)[0].split("-")
                    lines += 1
                    size += int(hi, 16) - int(lo, 16)
            return lines, size

        gc.collect()
        lines, size = mappings()
        for i in range(500):
            machine = Machine()
            machine.memory.write(HEAP_BASE, 4, i)
            machine.memory.write(STACK_TOP - 4, 4, i)
            del machine
        gc.collect()
        lines_after, size_after = mappings()
        assert lines_after <= lines + 32
        # The kernel merges adjacent anonymous mappings into one line, so
        # only the mapped total shows leaked regions (~1.6 MiB a machine).
        assert size_after <= size + (64 << 20)


class FakeDevice:
    def __init__(self):
        self.reg = 0
        self.log = []

    def io_read(self, offset, width):
        self.log.append(("ior", offset, width))
        return self.reg & ((1 << (8 * width)) - 1)

    def io_write(self, offset, width, value):
        self.log.append(("iow", offset, width, value))
        self.reg = value

    def mmio_read(self, offset, width):
        self.log.append(("mr", offset, width))
        return 0x55

    def mmio_write(self, offset, width, value):
        self.log.append(("mw", offset, width, value))


class TestBus:
    def make(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000)
        return Bus(mem), FakeDevice()

    def test_port_routing(self):
        bus, dev = self.make()
        bus.attach_ports(0x300, 0x20, dev)
        bus.io_write(0x304, 2, 0x1234)
        assert bus.io_read(0x304, 2) == 0x1234
        assert dev.log[0] == ("iow", 4, 2, 0x1234)

    def test_unclaimed_port_faults(self):
        bus, _dev = self.make()
        with pytest.raises(BusError):
            bus.io_read(0x999, 1)

    def test_mmio_routing(self):
        bus, dev = self.make()
        bus.attach_mmio(MMIO_BASE, 0x100, dev)
        assert bus.mem_read(MMIO_BASE + 8, 4) == 0x55
        bus.mem_write(MMIO_BASE + 8, 4, 7)
        assert ("mw", 8, 4, 7) in dev.log

    def test_mmio_window_enforced(self):
        bus, dev = self.make()
        with pytest.raises(ValueError):
            bus.attach_mmio(0x1000, 0x100, dev)

    def test_ram_passthrough(self):
        bus, _dev = self.make()
        bus.mem_write(0x1004, 4, 99)
        assert bus.mem_read(0x1004, 4) == 99

    def test_observer_sees_device_traffic(self):
        bus, dev = self.make()
        bus.attach_ports(0x300, 0x10, dev)
        seen = []
        bus.observer = lambda *args: seen.append(args)
        bus.io_write(0x300, 4, 5)
        bus.io_read(0x300, 4)
        assert seen[0] == ("port", 0x300, 4, 5, True)
        assert seen[1][4] is False

    def test_overlapping_port_ranges_rejected(self):
        bus, dev = self.make()
        bus.attach_ports(0x300, 0x20, dev)
        with pytest.raises(ValueError):
            bus.attach_ports(0x310, 0x20, FakeDevice())


def run_program(source, max_steps=100_000, machine=None, import_handler=None):
    """Assemble, load at a scratch text region and run to completion."""
    from repro.layout import TEXT_BASE, page_align

    image = assemble(source)
    m = machine or Machine()
    text_base = TEXT_BASE
    m.memory.map_region(text_base, page_align(max(len(image.text), 1)), "text")
    # Apply TEXT relocations manually (tests bypass the full loader).
    text = bytearray(image.text)
    for reloc in image.relocs:
        if reloc.kind.name == "TEXT":
            site = reloc.site
            old = int.from_bytes(text[site:site + 4], "little")
            text[site:site + 4] = ((old + text_base) & 0xFFFFFFFF).to_bytes(4, "little")
        elif reloc.kind.name == "IMPORT":
            site = reloc.site
            text[site:site + 4] = import_address(reloc.index).to_bytes(4, "little")
    m.memory.write_bytes(text_base, bytes(text))
    if import_handler is not None:
        m.cpu.import_handler = import_handler
    m.cpu.pc = text_base + image.entry
    m.cpu.regs[REG_SP] = STACK_TOP
    reason = m.cpu.run(max_steps=max_steps)
    return m, reason


class TestCpu:
    def test_arithmetic(self):
        m, reason = run_program("""
        .export main
        main:
            movi r1, 10
            movi r2, 3
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            divu r6, r1, r2
            remu r7, r1, r2
            halt
        """)
        assert reason == ExitReason.HALT
        regs = m.cpu.regs
        assert regs[3] == 13 and regs[4] == 7 and regs[5] == 30
        assert regs[6] == 3 and regs[7] == 1

    def test_wraparound(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 0xFFFFFFFF
            add r2, r1, 1
            sub r3, r1, 0xFFFFFFFF
            halt
        """)
        assert m.cpu.regs[2] == 0
        assert m.cpu.regs[3] == 0

    def test_shifts(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 0x80000000
            shr r2, r1, 4
            sar r3, r1, 4
            movi r4, 1
            shl r5, r4, 33
            halt
        """)
        assert m.cpu.regs[2] == 0x08000000
        assert m.cpu.regs[3] == 0xF8000000
        # shift amounts are masked to 5 bits: 33 & 31 == 1
        assert m.cpu.regs[5] == 2

    def test_logic_and_unary(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 0xF0F0
            and r2, r1, 0xFF00
            or  r3, r1, 0x000F
            xor r4, r1, 0xFFFF
            not r5, r1
            neg r6, r1
            halt
        """)
        regs = m.cpu.regs
        assert regs[2] == 0xF000 and regs[3] == 0xF0FF and regs[4] == 0x0F0F
        assert regs[5] == 0xFFFF0F0F
        assert regs[6] == (-0xF0F0) & 0xFFFFFFFF

    def test_signed_branches(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 0xFFFFFFFF  ; -1 signed
            movi r2, 1
            movi r9, 0
            bge r1, r2, bad      ; signed: -1 < 1, no branch
            bltu r2, r1, unsigned_ok ; unsigned: 1 < 0xFFFFFFFF
            jmp bad
        unsigned_ok:
            movi r9, 1
            halt
        bad:
            movi r9, 2
            halt
        """)
        assert m.cpu.regs[9] == 1

    def test_loop(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 0
            movi r2, 0
        loop:
            add r2, r2, r1
            add r1, r1, 1
            blt r1, 5, loop
            halt
        """)
        assert m.cpu.regs[2] == 0 + 1 + 2 + 3 + 4

    def test_memory_and_stack(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 0xCAFE
            push r1
            pop r2
            movi r3, 0x00600000
            st32 [r3+4], r1
            ld16 r4, [r3+4]
            ld8 r5, [r3+5]
            halt
        """)
        assert m.cpu.regs[2] == 0xCAFE
        assert m.cpu.regs[4] == 0xCAFE
        assert m.cpu.regs[5] == 0xCA

    def test_call_ret_stdcall(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 7
            push r1
            call double
            mov r9, r0
            halt
        double:
            push fp
            mov fp, sp
            ld32 r1, [fp+8]
            add r0, r1, r1
            pop fp
            ret 4
        """)
        assert m.cpu.regs[9] == 14
        assert m.cpu.sp == STACK_TOP

    def test_divide_by_zero_faults(self):
        with pytest.raises(VmFault):
            run_program("""
            .export main
            main:
                movi r1, 1
                movi r2, 0
                divu r3, r1, r2
                halt
            """)

    def test_step_limit(self):
        _m, reason = run_program("""
        .export main
        main:
            jmp main
        """, max_steps=50)
        assert reason == ExitReason.STEP_LIMIT

    def test_return_to_os(self):
        m = Machine()
        m.memory.write(STACK_TOP - 4, 4, RETURN_TO_OS)
        source = """
        .export main
        main:
            movi r0, 55
            ret
        """
        from repro.layout import TEXT_BASE, page_align
        image = assemble(source)
        m.memory.map_region(TEXT_BASE, page_align(len(image.text)), "text")
        m.memory.write_bytes(TEXT_BASE, image.text)
        m.cpu.pc = TEXT_BASE
        m.cpu.regs[REG_SP] = STACK_TOP - 4
        reason = m.cpu.run()
        assert reason == ExitReason.RETURNED_TO_OS
        assert m.cpu.regs[0] == 55

    def test_import_dispatch(self):
        calls = []

        def handler(cpu, slot):
            calls.append((slot, cpu.read_stack_arg(0)))
            cpu.regs[0] = 0x77
            return 1  # one stack argument

        m, _reason = run_program("""
        .import OsThing
        .export main
        main:
            movi r1, 42
            push r1
            call @OsThing
            mov r9, r0
            halt
        """, import_handler=handler)
        assert calls == [(0, 42)]
        assert m.cpu.regs[9] == 0x77
        assert m.cpu.sp == STACK_TOP

    def test_instret_counts(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            halt
        """)
        assert m.cpu.instret == 3

    def test_indirect_call(self):
        m, _reason = run_program("""
        .export main
        main:
            movi r1, target
            callr r1
            halt
        target:
            movi r9, 0xAB
            ret
        """)
        assert m.cpu.regs[9] == 0xAB

