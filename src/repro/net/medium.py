"""The software network medium ("cable") NIC models attach to."""


def _as_bytes(frame_bytes):
    """Normalize any bytes-like frame to immutable ``bytes`` exactly once.

    Device models and batched fabric paths hand frames around as
    ``bytearray``/``memoryview`` scratch buffers; converting at the medium
    boundary guarantees no mutable buffer is ever stored in a transmit log
    or delivered to a receiver where a later in-place edit could corrupt a
    recorded observation.
    """
    return frame_bytes if type(frame_bytes) is bytes else bytes(frame_bytes)


class Medium:
    """Records frames transmitted by an attached NIC and injects frames
    toward it.

    The evaluation uses the medium both as the traffic sink for throughput
    measurement and as the injection point for receive-path workloads.
    The link can be taken down (:meth:`set_link`) to model a cable pull:
    frames in either direction are silently dropped (and counted) while
    the link is down -- the validation matrix's link-flap scenario.
    """

    def __init__(self):
        self.transmitted = []
        self._receiver = None
        #: Total payload bytes transmitted (throughput accounting).
        self.tx_bytes = 0
        self.link_up = True
        #: Frames lost to a downed link (either direction).
        self.link_drops = 0

    def attach(self, nic):
        """Attach ``nic``; its ``receive_frame(bytes)`` gets injected frames."""
        self._receiver = nic

    def set_link(self, up):
        """Raise or drop the physical link."""
        self.link_up = bool(up)

    def transmit(self, frame_bytes):
        """Called by a NIC model when it puts a frame on the wire."""
        frame_bytes = _as_bytes(frame_bytes)
        if not self.link_up:
            self.link_drops += 1
            return
        self.transmitted.append(frame_bytes)
        self.tx_bytes += len(frame_bytes)

    def inject(self, frame_bytes):
        """Deliver a frame from the network toward the attached NIC."""
        frame_bytes = _as_bytes(frame_bytes)
        if self._receiver is None:
            raise RuntimeError("no NIC attached to medium")
        if not self.link_up:
            self.link_drops += 1
            return
        self._receiver.receive_frame(frame_bytes)

    def pop_transmitted(self):
        """Return and clear the transmitted-frame log, as ``bytes``."""
        frames, self.transmitted = self.transmitted, []
        return [_as_bytes(frame) for frame in frames]
