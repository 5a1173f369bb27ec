"""One miniport front: every driver operation, encoded once.

Functional equivalence (paper section 5.2) needs both drivers to get the
same workload.  :class:`MiniportFront` encodes each operation -- send,
receive, reset and every Query/SetInformation request with its OID and
payload layout -- once, for :class:`~repro.guestos.harness.DriverHarness`
(the binary on the source OS) and :class:`~repro.templates.base.NicTemplate`
(the synthesized driver in a target-OS template).  Each side supplies the
primitives: ``_call(role, args)`` (invoke an entry point, adapter context
first), ``_alloc(size)`` (a buffer in ``memory``), ``service_interrupts()``,
the wiring ``medium``, ``device``, ``delivered`` (frames handed up),
``irq_count`` and ``error_log``, and the counters ``instrs_retired``,
``io_ops`` and ``call_counts`` (entry-point invocations by role).
"""

from types import FunctionType

from repro.guestos.structures import NdisStatus, Oid, PacketFilter


def _u32(value):
    return int(value).to_bytes(4, "little")


class MiniportFront:
    """The driver-operation vocabulary over side-specific primitives."""

    #: raised by :meth:`query_mac` when the driver fails the query
    query_error = RuntimeError

    def __init_subclass__(cls, **kwargs):
        # Each side carries the operations in its own namespace, so a
        # per-class wrapper (perfbench/tracer.py times DriverHarness.send
        # and NicTemplate.send as separate layers) covers one side only.
        super().__init_subclass__(**kwargs)
        if MiniportFront in cls.__bases__:
            for name, value in vars(MiniportFront).items():
                if isinstance(value, FunctionType) and name not in vars(cls):
                    setattr(cls, name, value)

    # -- data path -----------------------------------------------------

    def reset(self):
        """Run the reset entry point."""
        return self._call("reset")

    def send(self, frame_bytes):
        """Send one Ethernet frame through the driver: the OS packet is
        adapted to the (buffer, length) pair the send entry point takes."""
        buffer = self._alloc(len(frame_bytes))
        self.memory.write_bytes(buffer, frame_bytes)
        status = self._call("send", (buffer, len(frame_bytes)))
        self.service_interrupts()
        return status

    def inject_rx(self, frame_bytes):
        """Deliver a frame from the wire and let the driver handle the
        receive interrupt; returns the frames the driver handed up."""
        before = len(self.delivered)
        self.medium.inject(frame_bytes)
        self.service_interrupts()
        return self.delivered[before:]

    # -- control operations (the IOCTL analog) -------------------------

    def _set_info(self, oid, payload):
        buffer = self._alloc(max(len(payload), 4))
        self.memory.write_bytes(buffer, payload)
        return self._call("set_information",
                          (int(oid), buffer, len(payload)))

    def _query_info(self, oid, length):
        buffer = self._alloc(max(length, 4))
        status = self._call("query_information", (int(oid), buffer, length))
        return status, self.memory.read_bytes(buffer, length)

    def set_packet_filter(self, flags):
        """Program the RX packet filter (promiscuous / multicast / ...)."""
        return self._set_info(Oid.GEN_CURRENT_PACKET_FILTER, _u32(flags))

    def enable_promiscuous(self):
        return self.set_packet_filter(
            PacketFilter.DIRECTED | PacketFilter.BROADCAST
            | PacketFilter.PROMISCUOUS)

    def set_mac(self, mac):
        """Program a new station MAC through the driver."""
        return self._set_info(Oid.E802_3_STATION_ADDRESS, bytes(mac))

    def set_multicast_list(self, macs):
        """Program the multicast address list."""
        return self._set_info(Oid.E802_3_MULTICAST_LIST,
                              b"".join(bytes(m) for m in macs))

    def set_full_duplex(self, enabled):
        """Toggle full-duplex operation."""
        return self._set_info(Oid.GEN_FULL_DUPLEX, _u32(1 if enabled else 0))

    def enable_wake_on_lan(self):
        """Enable magic-packet wake-up."""
        return self._set_info(Oid.PNP_ENABLE_WAKE_UP, _u32(1))

    def set_led(self, mode):
        """Drive the proprietary LED-control IOCTL."""
        return self._set_info(Oid.VENDOR_LED_CONTROL, _u32(mode))

    def query_current_address(self):
        """``(status, mac bytes)`` of the station-MAC query; never raises
        on a failing status."""
        return self._query_info(Oid.E802_3_CURRENT_ADDRESS, 6)

    def query_mac(self):
        """Read the station MAC through the driver."""
        status, data = self.query_current_address()
        if status != NdisStatus.SUCCESS:
            raise self.query_error("MAC query failed: 0x%08x" % status)
        return data

    def query_link_speed(self):
        """``(status, speed)`` of the link-speed query."""
        status, data = self._query_info(Oid.GEN_LINK_SPEED, 4)
        return status, int.from_bytes(data, "little")
