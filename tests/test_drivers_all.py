"""Integration tests: all four binary drivers on their device models.

Parametrized over the driver corpus; feature differences follow Table 2 of
the paper (DMA / Wake-on-LAN / LED availability per chip).
"""

import pytest

from repro.drivers import DRIVERS, build_driver, device_class
from repro.guestos.harness import DriverHarness
from repro.guestos.structures import NdisStatus, PacketFilter
from repro.net import EthernetFrame, EtherType, UdpWorkload

MAC = b"\x52\x54\x00\xAA\xBB\xCC"

ALL_DRIVERS = sorted(DRIVERS)

#: Features testable per driver (mirrors Table 2's check marks).
WOL_DRIVERS = {"rtl8139", "pcnet"}
LED_DRIVERS = {"rtl8139", "smc91c111", "pcnet"}


@pytest.fixture(params=ALL_DRIVERS)
def booted(request):
    name = request.param
    harness = DriverHarness(build_driver(name), device_class(name), mac=MAC)
    harness.boot()
    return name, harness


def make_frame(dst, payload=b"x" * 64):
    return EthernetFrame(dst=dst, src=b"\x02\x00\x00\x00\x00\x01",
                         ethertype=EtherType.IPV4,
                         payload=payload).to_bytes()


class TestLifecycle:
    def test_boot_enables_device(self, booted):
        _name, harness = booted
        assert harness.device.rx_enabled
        assert harness.device.tx_enabled

    def test_halt_disables_device(self, booted):
        _name, harness = booted
        harness.halt()
        assert not harness.device.rx_enabled

    def test_reset_recovers(self, booted):
        _name, harness = booted
        assert harness.reset() == NdisStatus.SUCCESS
        assert harness.device.rx_enabled
        frame = make_frame(b"\xff" * 6)
        assert harness.send(frame) == NdisStatus.SUCCESS
        assert harness.medium.transmitted[-1] == frame


class TestDataPath:
    def test_send_exact_bytes(self, booted):
        _name, harness = booted
        frame = make_frame(b"\xff" * 6)
        assert harness.send(frame) == NdisStatus.SUCCESS
        assert harness.medium.transmitted == [frame]

    def test_send_completion(self, booted):
        _name, harness = booted
        harness.send(make_frame(b"\xff" * 6))
        assert NdisStatus.SUCCESS in harness.env.send_completions

    def test_send_odd_lengths(self, booted):
        _name, harness = booted
        for extra in range(5):
            frame = make_frame(b"\xff" * 6, b"p" * (60 + extra))
            assert harness.send(frame) == NdisStatus.SUCCESS
            assert harness.medium.transmitted[-1] == frame

    def test_send_burst(self, booted):
        _name, harness = booted
        workload = UdpWorkload(MAC, b"\x02" * 6, 400)
        frames = [f.to_bytes() for f in workload.frames(8)]
        for frame in frames:
            assert harness.send(frame) == NdisStatus.SUCCESS
        assert harness.medium.transmitted == frames

    def test_oversize_send_rejected(self, booted):
        _name, harness = booted
        assert harness.send(b"z" * 1600) in (NdisStatus.INVALID_LENGTH,
                                             NdisStatus.FAILURE)
        assert harness.medium.transmitted == []

    def test_unicast_receive(self, booted):
        _name, harness = booted
        frame = make_frame(MAC)
        assert harness.inject_rx(frame) == [frame]

    def test_broadcast_receive(self, booted):
        _name, harness = booted
        frame = make_frame(b"\xff" * 6)
        assert harness.inject_rx(frame) == [frame]

    def test_foreign_unicast_dropped(self, booted):
        _name, harness = booted
        assert harness.inject_rx(make_frame(b"\x02\x99" * 3)) == []

    def test_rx_burst(self, booted):
        # Burst size 4 fits every device's RX resources (the PCNet ring
        # has four descriptors).
        _name, harness = booted
        frames = [make_frame(MAC, bytes([i]) * 80) for i in range(4)]
        for frame in frames:
            harness.medium.inject(frame)
        harness.env.service_interrupts()
        assert harness.env.received_frames == frames

    def test_bidirectional_udp(self, booted):
        _name, harness = booted
        tx = UdpWorkload(MAC, b"\x02" * 6, 512)
        for frame in tx.frames(3):
            assert harness.send(frame.to_bytes()) == NdisStatus.SUCCESS
        rx = UdpWorkload(b"\x02" * 6, MAC, 513)
        for frame in rx.frames(3):
            raw = frame.to_bytes()
            assert harness.inject_rx(raw) == [raw]


class TestControlPath:
    def test_query_mac(self, booted):
        _name, harness = booted
        assert harness.query_mac() == MAC

    def test_set_mac_roundtrip(self, booted):
        _name, harness = booted
        new_mac = b"\x52\x54\x00\x01\x02\x03"
        assert harness.set_mac(new_mac) == NdisStatus.SUCCESS
        assert bytes(harness.device.mac) == new_mac
        frame = make_frame(new_mac)
        assert harness.inject_rx(frame) == [frame]

    def test_promiscuous_mode(self, booted):
        _name, harness = booted
        assert harness.enable_promiscuous() == NdisStatus.SUCCESS
        assert harness.device.promiscuous
        frame = make_frame(b"\x02\x99" * 3)
        assert harness.inject_rx(frame) == [frame]

    def test_multicast_filtering(self, booted):
        _name, harness = booted
        group = b"\x01\x00\x5e\x00\x00\x01"
        assert harness.set_multicast_list([group]) == NdisStatus.SUCCESS
        harness.set_packet_filter(PacketFilter.DIRECTED
                                  | PacketFilter.MULTICAST)
        frame = make_frame(group)
        assert harness.inject_rx(frame) == [frame]

    def test_full_duplex_toggle(self, booted):
        _name, harness = booted
        assert harness.set_full_duplex(True) == NdisStatus.SUCCESS
        assert harness.device.full_duplex
        assert harness.set_full_duplex(False) == NdisStatus.SUCCESS
        assert not harness.device.full_duplex

    def test_link_speed_reported(self, booted):
        _name, harness = booted
        status, speed = harness.query_link_speed()
        assert status == NdisStatus.SUCCESS
        assert speed in (10_000_000, 100_000_000)

    def test_wake_on_lan(self, booted):
        name, harness = booted
        status = harness.enable_wake_on_lan()
        if name in WOL_DRIVERS:
            assert status == NdisStatus.SUCCESS
            assert harness.device.wol_enabled
        else:
            assert status == NdisStatus.NOT_SUPPORTED

    def test_led_control(self, booted):
        name, harness = booted
        status = harness.set_led(1)
        if name in LED_DRIVERS:
            assert status == NdisStatus.SUCCESS
            assert harness.device.led_state != 0
        else:
            assert status == NdisStatus.NOT_SUPPORTED

    def test_unknown_oid_rejected(self, booted):
        _name, harness = booted
        status = harness._set_info(0x7777_7777, b"\0\0\0\0")
        assert status == NdisStatus.NOT_SUPPORTED
