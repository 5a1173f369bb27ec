"""Shared target-OS machinery.

A :class:`TargetOs` owns a machine + device model and exposes the kernel
services a NIC driver consumes: those of the shared
:class:`~repro.guestos.kernel.NdisKernel`.  The *API adaptation table* is
the Python analog of the developer's template-integration work: the
synthesized driver's OS calls (source-OS names, written once in
:data:`~repro.guestos.structures.NDIS_API`) are translated to the target
OS's own services (paper section 4.2: "The developer also needs to match
OS-specific API calls to those of the target OS").  A per-OS module
overrides the entries whose semantics differ.
"""

from dataclasses import dataclass

from repro.errors import TemplateError
from repro.guestos.kernel import NdisKernel
from repro.net.medium import Medium
from repro.vm.machine import Machine


@dataclass(frozen=True)
class OsTraits:
    """Per-OS characteristics consumed by the performance model.

    ``stack_cost`` is the fixed per-packet CPU cost (in model instruction
    units) of the OS network stack above the driver and ``stack_per_byte``
    its copy cost; ``irq_cost`` the per-interrupt kernel entry/dispatch
    cost; ``syscall_cost`` the per-OS-API-call cost inside the driver path.
    KitOS has no stack ("the benchmark transmits hand-crafted raw UDP
    packets, since KitOS has no TCP/IP stack").
    """

    name: str
    stack_cost: int
    irq_cost: int
    syscall_cost: int
    stack_per_byte: float = 0.0
    has_network_stack: bool = True


class TargetOs(NdisKernel):
    """Base target OS: a machine, its device and wire, and the shared
    kernel, whose API table is this OS's adaptation table."""

    TRAITS = OsTraits(name="base", stack_cost=0, irq_cost=0, syscall_cost=0)
    kernel_error = TemplateError

    def __init__(self, device_cls, mac=b"\x52\x54\x00\x12\x34\x56"):
        machine = Machine()
        self.medium = Medium()
        device = device_cls(mac, medium=self.medium, bus=machine.bus)
        self.medium.attach(device)
        super().__init__(machine, device)

    @property
    def os_name(self):
        return "template for %s" % self.TRAITS.name

    # perfbench/tracer.py times these as the target-OS layer, apart from
    # the source OS's use of the same kernel services.
    call = NdisKernel.call
    alloc = NdisKernel.alloc
    deliver_frame_up = NdisKernel.deliver_frame_up
