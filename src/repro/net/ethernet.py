"""Ethernet framing."""

import enum
from dataclasses import dataclass

from repro.net.crc import crc32_ethernet

BROADCAST_MAC = b"\xff\xff\xff\xff\xff\xff"

MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500
HEADER_LEN = 14


class EtherType(enum.IntEnum):
    """EtherType values used by the workloads (paper section 2 mentions
    ARP/IP/VLAN as the packet-type variety a send path branches on)."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100


def is_multicast(mac):
    """True for multicast (including broadcast) destination addresses."""
    return bool(mac[0] & 0x01)


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame (no FCS in ``payload``)."""

    dst: bytes
    src: bytes
    ethertype: int
    payload: bytes

    def to_bytes(self, with_fcs=False):
        """Serialize; optionally append the CRC-32 FCS."""
        if not MIN_PAYLOAD <= len(self.payload) <= MAX_PAYLOAD:
            raise ValueError("payload length %d out of range"
                             % len(self.payload))
        raw = (self.dst + self.src
               + self.ethertype.to_bytes(2, "big") + self.payload)
        if with_fcs:
            raw += crc32_ethernet(raw).to_bytes(4, "little")
        return raw

    @classmethod
    def from_bytes(cls, raw):
        """Parse a frame without FCS."""
        if len(raw) < HEADER_LEN + MIN_PAYLOAD:
            raise ValueError("frame too short (%d bytes)" % len(raw))
        return cls(dst=bytes(raw[0:6]), src=bytes(raw[6:12]),
                   ethertype=int.from_bytes(raw[12:14], "big"),
                   payload=bytes(raw[14:]))

    def __len__(self):
        return HEADER_LEN + len(self.payload)
