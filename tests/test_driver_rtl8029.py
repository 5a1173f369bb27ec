"""Integration tests: the rtl8029 binary driver on the NE2000 device model.

These tests establish that the "proprietary" binary actually drives the
hardware correctly -- the precondition for everything RevNIC does.
"""

import pytest

from repro.drivers import build_driver, device_class
from repro.guestos.harness import DriverHarness
from repro.guestos.structures import NdisStatus
from repro.net import EthernetFrame, EtherType, UdpWorkload

MAC = b"\x52\x54\x00\xAA\xBB\xCC"


@pytest.fixture()
def harness():
    h = DriverHarness(build_driver("rtl8029"), device_class("rtl8029"),
                      mac=MAC)
    h.boot()
    return h


def make_frame(dst, payload=b"x" * 64):
    return EthernetFrame(dst=dst, src=b"\x02\x00\x00\x00\x00\x01",
                         ethertype=EtherType.IPV4,
                         payload=payload).to_bytes()


class TestLifecycle:
    def test_boot_succeeds(self, harness):
        assert harness.initialized
        assert harness.device.rx_enabled

    def test_halt_stops_device(self, harness):
        harness.halt()
        assert not harness.device.rx_enabled

    def test_reset_reinitializes(self, harness):
        status = harness.reset()
        assert status == NdisStatus.SUCCESS
        assert harness.device.rx_enabled


class TestSend:
    def test_send_puts_frame_on_wire(self, harness):
        frame = make_frame(b"\xff" * 6)
        assert harness.send(frame) == NdisStatus.SUCCESS
        assert harness.medium.transmitted == [frame]

    def test_send_completion_indicated(self, harness):
        harness.send(make_frame(b"\xff" * 6))
        assert NdisStatus.SUCCESS in harness.env.send_completions

    def test_send_various_sizes(self, harness):
        workload = UdpWorkload(MAC, b"\x02" * 6, 256)
        for frame in workload.frames(5):
            raw = frame.to_bytes()
            assert harness.send(raw) == NdisStatus.SUCCESS
        assert len(harness.medium.transmitted) == 5

    def test_send_odd_sizes(self, harness):
        # exercises the word/half/byte tail paths of the copy loop
        for payload_len in (46, 47, 48, 49, 50):
            frame = make_frame(b"\xff" * 6, b"y" * payload_len)
            assert harness.send(frame) == NdisStatus.SUCCESS
            assert harness.medium.transmitted[-1] == frame

    def test_oversized_send_rejected(self, harness):
        status = harness.send(b"z" * 1600)
        assert status == NdisStatus.INVALID_LENGTH
        assert harness.medium.transmitted == []
        assert harness.env.error_log  # driver logged the error


class TestReceive:
    def test_unicast_receive(self, harness):
        frame = make_frame(MAC)
        indicated = harness.inject_rx(frame)
        assert indicated == [frame]

    def test_broadcast_receive(self, harness):
        frame = make_frame(b"\xff" * 6)
        assert harness.inject_rx(frame) == [frame]

    def test_other_unicast_filtered(self, harness):
        frame = make_frame(b"\x02\x99\x99\x99\x99\x99")
        assert harness.inject_rx(frame) == []
        assert harness.device.stats["rx_dropped"] == 1

    def test_promiscuous_accepts_everything(self, harness):
        harness.enable_promiscuous()
        frame = make_frame(b"\x02\x99\x99\x99\x99\x99")
        assert harness.inject_rx(frame) == [frame]

    def test_multiple_frames_drained(self, harness):
        frames = [make_frame(MAC, bytes([i]) * 64) for i in range(4)]
        # Inject them all, then let one ISR drain the ring.
        for f in frames:
            harness.medium.inject(f)
        harness.env.service_interrupts()
        assert harness.env.received_frames == frames


class TestControlOperations:
    def test_query_mac(self, harness):
        assert harness.query_mac() == MAC

    def test_set_mac(self, harness):
        new_mac = b"\x52\x54\x00\x01\x02\x03"
        assert harness.set_mac(new_mac) == NdisStatus.SUCCESS
        assert bytes(harness.device.mac) == new_mac
        assert harness.query_mac() == new_mac

    def test_multicast_list(self, harness):
        from repro.guestos.structures import PacketFilter
        group = b"\x01\x00\x5e\x00\x00\x01"
        assert harness.set_multicast_list([group]) == NdisStatus.SUCCESS
        harness.set_packet_filter(
            PacketFilter.DIRECTED | PacketFilter.MULTICAST)
        frame = make_frame(group)
        assert harness.inject_rx(frame) == [frame]
        other_group = b"\x01\x00\x5e\x7f\x00\x42"
        assert harness.inject_rx(make_frame(other_group)) == []

    def test_full_duplex(self, harness):
        assert harness.set_full_duplex(True) == NdisStatus.SUCCESS
        assert harness.device.full_duplex
        assert harness.set_full_duplex(False) == NdisStatus.SUCCESS
        assert not harness.device.full_duplex

    def test_link_speed(self, harness):
        status, speed = harness.query_link_speed()
        assert status == NdisStatus.SUCCESS
        assert speed == 10_000_000

    def test_unsupported_oid(self, harness):
        assert harness.enable_wake_on_lan() == NdisStatus.NOT_SUPPORTED

    def test_bad_length_rejected(self, harness):
        status = harness._set_info(
            __import__("repro.guestos.structures",
                       fromlist=["Oid"]).Oid.E802_3_STATION_ADDRESS,
            b"\x01\x02")
        assert status == NdisStatus.INVALID_LENGTH


class TestRoundTrip:
    def test_udp_echo_roundtrip(self, harness):
        """Send and receive a realistic UDP workload both ways."""
        tx = UdpWorkload(MAC, b"\x02" * 6, 512)
        for frame in tx.frames(3):
            assert harness.send(frame.to_bytes()) == NdisStatus.SUCCESS
        rx = UdpWorkload(b"\x02" * 6, MAC, 512)
        for frame in rx.frames(3):
            raw = frame.to_bytes()
            assert harness.inject_rx(raw) == [raw]
