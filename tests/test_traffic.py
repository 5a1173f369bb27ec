"""Tests for the workload generators (benchmark + adversarial catalog)."""

import pytest

from repro.net.crc import crc32_ethernet
from repro.net.ethernet import (HEADER_LEN, MAX_PAYLOAD, MIN_PAYLOAD,
                                EthernetFrame, EtherType)
from repro.net.medium import Medium
from repro.net.packet import IP_HEADER_LEN, UDP_HEADER_LEN, build_udp_packet
from repro.net.traffic import (DEFAULT_SIZES, BidirectionalBurst,
                               UdpWorkload, addressed_frame, frame_with_fcs,
                               overflow_burst, oversize_frame,
                               packet_size_sweep, runt_frame)

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"

UDP_LIMIT = MAX_PAYLOAD - IP_HEADER_LEN - UDP_HEADER_LEN


class TestPacketSizeSweep:
    def test_default_is_full_sweep(self):
        assert packet_size_sweep() == DEFAULT_SIZES
        assert max(packet_size_sweep()) <= UDP_LIMIT

    def test_cap_clamps(self):
        assert packet_size_sweep(300) == (64, 128, 256)

    def test_zero_is_empty(self):
        assert packet_size_sweep(0) == ()

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="max_payload"):
            packet_size_sweep(-1)
        with pytest.raises(ValueError, match="max_payload"):
            packet_size_sweep(-10_000)

    def test_huge_clamps_to_ethernet_limit(self):
        assert packet_size_sweep(10**9) == packet_size_sweep()
        assert packet_size_sweep(UDP_LIMIT + 1) == packet_size_sweep()


class TestAdversarialFrames:
    def test_runt_is_runt(self):
        frame = runt_frame(MAC, PEER, total_length=24)
        assert len(frame) == 24
        assert frame[0:6] == MAC
        with pytest.raises(ValueError):
            runt_frame(MAC, PEER, total_length=60)   # legal minimum
        with pytest.raises(ValueError):
            runt_frame(MAC, PEER, total_length=5)

    def test_oversize_exceeds_ethernet_max(self):
        frame = oversize_frame(MAC, PEER, payload_length=1600)
        assert len(frame) == HEADER_LEN + 1600
        assert len(frame) > HEADER_LEN + MAX_PAYLOAD
        with pytest.raises(ValueError):
            oversize_frame(MAC, PEER, payload_length=MAX_PAYLOAD)
        with pytest.raises(ValueError):
            oversize_frame(MAC, PEER, payload_length=4000)

    def test_fcs_appends_and_corrupts(self):
        base = addressed_frame(MAC, PEER, tag=7)
        good = frame_with_fcs(base)
        bad = frame_with_fcs(base, corrupt=True)
        assert good[:-4] == base and bad[:-4] == base
        assert int.from_bytes(good[-4:], "little") == crc32_ethernet(base)
        assert good[-4:] != bad[-4:]

    def test_addressed_frame_is_wellformed_and_tagged(self):
        a = addressed_frame(MAC, PEER, tag=1)
        b = addressed_frame(MAC, PEER, tag=2)
        assert len(a) >= HEADER_LEN + MIN_PAYLOAD
        assert a != b
        assert a == addressed_frame(MAC, PEER, tag=1)


class TestBursts:
    def test_overflow_burst_is_deterministic(self):
        one = overflow_burst(PEER, MAC, count=10, payload_size=300)
        two = overflow_burst(PEER, MAC, count=10, payload_size=300)
        assert one == two
        assert len(one) == 10
        assert all(frame[0:6] == MAC for frame in one)

    def test_bidirectional_schedule(self):
        events = list(BidirectionalBurst(MAC, PEER).events())
        kinds = {kind for kind, _f in events}
        assert kinds == {"tx", "rx"}
        # tx frames leave the station, rx frames arrive at it
        for kind, frame in events:
            assert frame[6:12] == (MAC if kind == "tx" else PEER)
            assert frame[0:6] == (PEER if kind == "tx" else MAC)
        again = list(BidirectionalBurst(MAC, PEER).events())
        assert events == again

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            BidirectionalBurst(MAC, PEER, pattern=())


class TestMediumLink:
    def test_link_down_drops_both_directions(self):
        medium = Medium()
        sink = []
        medium.attach(type("Nic", (), {
            "receive_frame": staticmethod(sink.append)})())
        medium.transmit(b"x" * 60)
        medium.set_link(False)
        medium.transmit(b"y" * 60)
        medium.inject(b"z" * 60)
        assert medium.transmitted == [b"x" * 60]
        assert sink == []
        assert medium.link_drops == 2
        medium.set_link(True)
        medium.inject(b"w" * 60)
        assert sink == [b"w" * 60]

    def test_udp_workload_still_deterministic(self):
        a = [f.to_bytes() for f in UdpWorkload(MAC, PEER, 128).frames(3)]
        b = [f.to_bytes() for f in UdpWorkload(MAC, PEER, 128).frames(3)]
        assert a == b


class TestScenarioProgramLayer:
    """Traffic-layer edges of the fuzzer's program formalization (the
    differential behavior is covered in test_fuzz / test_fuzz_replay)."""

    def test_overflow_burst_of_zero_frames_is_empty(self):
        assert overflow_burst(PEER, MAC, count=0) == []

    def test_overflow_burst_frames_are_addressed(self):
        frames = overflow_burst(PEER, MAC, count=3, payload_size=64)
        assert len(frames) == 3
        for frame in frames:
            assert frame[0:6] == MAC and frame[6:12] == PEER

    def test_resolve_dst_station_reads_the_dut(self):
        from repro.net.traffic import DST_KINDS, resolve_dst

        dut = type("Dut", (), {"mac": MAC})()
        assert resolve_dst("station", dut) == MAC
        for kind, fixed in DST_KINDS.items():
            if kind != "station":
                assert resolve_dst(kind, dut) == fixed

    def test_step_params_are_defensively_copied(self):
        from repro.net.traffic import ScenarioStep

        params = {"size": 64, "count": 1}
        step = ScenarioStep("send_burst", params)
        params["count"] = 99
        assert step.params["count"] == 1

    def test_program_run_requires_a_boot(self):
        """run() boots the DUT before the first step -- a program never
        executes against an unbooted device."""
        from repro.net.traffic import ScenarioProgram, ScenarioStep

        calls = []

        class Dut:
            mac = MAC
            peer = PEER

            def boot(self):
                calls.append("boot")

            def service(self):
                calls.append("service")

        program = ScenarioProgram(name="p",
                                  steps=(ScenarioStep("service", {}),))
        program.run(Dut())
        assert calls == ["boot", "service"]


class TestPayloadRamp:
    """Payloads are slices of one precomputed ramp; the bytes must be the
    ones the per-byte generator expressions produced."""

    SIZES = (0, 1, 2, 45, 46, 64, 255, 256, 257, 1000, 1472, 1900, 5000)

    @staticmethod
    def _frame_by_bytes(workload, ident):
        payload = bytes((ident + i) & 0xFF
                        for i in range(workload.payload_size))
        packet = build_udp_packet(workload.src_ip, workload.dst_ip,
                                  workload.src_port, workload.dst_port,
                                  payload, ident=ident)
        if len(packet) < 46:
            packet += b"\0" * (46 - len(packet))
        return EthernetFrame(dst=workload.dst_mac, src=workload.src_mac,
                             ethertype=EtherType.IPV4,
                             payload=packet).to_bytes()

    @pytest.mark.parametrize("size", [s for s in SIZES if s <= UDP_LIMIT])
    def test_udp_frames_match_per_byte_payloads(self, size):
        for ident in (0, 1, 7, 200, 255, 256, 4097, 0xFFFE, 0xFFFF):
            workload = UdpWorkload(MAC, PEER, size)
            workload._ident = ident
            assert workload.next_frame().to_bytes() == \
                self._frame_by_bytes(workload, ident)

    def test_udp_stream_wraps_its_ident(self):
        workload = UdpWorkload(MAC, PEER, 300)
        workload._ident = 0xFFFE
        frames = [frame.to_bytes() for frame in workload.frames(3)]
        expected = [self._frame_by_bytes(workload, ident)
                    for ident in (0xFFFE, 0xFFFF, 0)]
        assert frames == expected

    @pytest.mark.parametrize("size", SIZES)
    def test_filler_matches_per_byte_pattern(self, size):
        from repro.net.traffic import _pattern

        for seed in (-300, -1, 0, 3, 7, 128, 252, 253, 255, 256, 1000,
                     0x12345):
            assert _pattern(size, seed) == \
                bytes((seed + i * 7 + 3) & 0xFF for i in range(size))
