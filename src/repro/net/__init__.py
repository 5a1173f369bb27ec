"""Packet and network substrate: frames, checksums, workload generators,
and the fleet-scale switched fabric (:mod:`repro.net.fabric`)."""

from repro.net.crc import crc32_ethernet, crc32_ethernet_reference
from repro.net.ethernet import (
    BROADCAST_MAC,
    EtherType,
    EthernetFrame,
    is_multicast,
)
from repro.net.packet import build_udp_packet, parse_udp_packet
from repro.net.medium import Medium
from repro.net.traffic import UdpWorkload, packet_size_sweep

__all__ = [
    "crc32_ethernet",
    "crc32_ethernet_reference",
    "BROADCAST_MAC",
    "EtherType",
    "EthernetFrame",
    "is_multicast",
    "build_udp_packet",
    "parse_udp_packet",
    "Medium",
    "UdpWorkload",
    "packet_size_sweep",
]
