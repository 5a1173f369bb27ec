"""Documented OS-interface structures and constants.

The paper requires "that the OS driver interface and all API functions used
by the driver be documented ... the name of the API functions, the
parameter descriptions, along with information about data structures (type
and layout)" (section 3.2).  This module *is* that documentation for the
reproduction's NDIS analog: RevNIC reads these descriptions to know which
registered function pointers are entry points and what parameters each
takes.
"""

import enum

#: Layout of the miniport characteristics structure the driver passes to
#: ``NdisMRegisterMiniport``: field name -> byte offset of the function
#: pointer.  Every driver entry point RevNIC must exercise is found here.
MINIPORT_FIELDS = {
    "initialize": 0x00,
    "send": 0x04,
    "isr": 0x08,
    "set_information": 0x0C,
    "query_information": 0x10,
    "reset": 0x14,
    "halt": 0x18,
}

MINIPORT_STRUCT_SIZE = 0x1C

#: Entry-point parameter descriptions (name, arity, which params are
#: "data" -- candidates for symbolic injection -- versus pointers that must
#: stay concrete).  Mirrors the paper's selective symbolic input injection:
#: "fills with symbolic data the user buffers and the integer parameters
#: passed in, while keeping the other parameters, like pointers, concrete".
ENTRY_POINT_SIGNATURES = {
    "initialize": {"params": ["context"], "symbolic": []},
    "send": {"params": ["context", "packet", "length"],
             "symbolic": ["length"], "symbolic_buffers": ["packet"]},
    "isr": {"params": ["context"], "symbolic": []},
    "set_information": {"params": ["context", "oid", "buffer", "length"],
                        "symbolic": ["length"],
                        "symbolic_buffers": ["buffer"]},
    "query_information": {"params": ["context", "oid", "buffer", "length"],
                          "symbolic": ["length"], "symbolic_buffers": []},
    "reset": {"params": ["context"], "symbolic": []},
    "halt": {"params": ["context"], "symbolic": []},
    "timer": {"params": ["context"], "symbolic": []},
}


#: The NDIS ABI, written once: every OS API a driver may import, as
#: ``(name, stack-argument count, kernel service)``.  Each side answers
#: ``name`` with its method ``_<service>``: the concrete kernel
#: (:class:`repro.guestos.kernel.NdisKernel`, under the source OS and
#: every target OS) and the symbolic bridge
#: (:class:`repro.revnic.osbridge.SymOsBridge`).
NDIS_API = (
    ("NdisMRegisterMiniport", 1, "register_miniport"),
    ("NdisMSetAttributes", 1, "set_attributes"),
    ("NdisAllocateMemory", 1, "allocate_memory"),
    ("NdisFreeMemory", 2, "succeed"),
    ("NdisMAllocateSharedMemory", 2, "allocate_shared_memory"),
    ("NdisMFreeSharedMemory", 2, "succeed"),
    ("NdisMRegisterIoPortRange", 1, "io_port_base"),
    ("NdisMMapIoSpace", 2, "mmio_base"),
    ("NdisMRegisterInterrupt", 1, "succeed"),
    ("NdisInitializeTimer", 2, "initialize_timer"),
    ("NdisSetTimer", 2, "set_timer"),
    ("NdisMCancelTimer", 1, "cancel_timer"),
    ("NdisWriteErrorLogEntry", 1, "log_error"),
    ("NdisStallExecution", 1, "succeed"),
    ("NdisMIndicateReceivePacket", 2, "indicate_receive"),
    ("NdisMSendComplete", 1, "send_complete"),
    ("NdisReadConfiguration", 1, "read_configuration"),
    ("NdisGetPhysicalAddress", 1, "physical_address"),
)


def bind_api(side):
    """``{name: (handler, nargs)}`` of every NDIS API, each handler
    ``side``'s method for the API's kernel service."""
    return {name: (getattr(side, "_" + service), nargs)
            for name, nargs, service in NDIS_API}


class NdisStatus(enum.IntEnum):
    """Status codes returned by driver entry points."""

    SUCCESS = 0x0000_0000
    PENDING = 0x0000_0103
    FAILURE = 0xC000_0001
    NOT_SUPPORTED = 0xC000_00BB
    INVALID_LENGTH = 0xC001_0014


class Oid(enum.IntEnum):
    """Object identifiers for Query/SetInformation (the IOCTL analog)."""

    GEN_CURRENT_PACKET_FILTER = 0x0001_010E
    GEN_LINK_SPEED = 0x0001_0107
    GEN_MEDIA_CONNECT_STATUS = 0x0001_0114
    E802_3_CURRENT_ADDRESS = 0x0101_0102
    E802_3_STATION_ADDRESS = 0x0101_0101
    E802_3_MULTICAST_LIST = 0x0101_0103
    GEN_FULL_DUPLEX = 0x0001_0203       # reproduction-specific
    PNP_ENABLE_WAKE_UP = 0xFD01_0106
    #: Proprietary vendor IOCTL (paper section 6: proprietary IOCTLs are
    #: exercised via vendor tools; here, LED control is the proprietary op).
    VENDOR_LED_CONTROL = 0xFF01_0001


class PacketFilter(enum.IntFlag):
    """OID_GEN_CURRENT_PACKET_FILTER bits."""

    DIRECTED = 0x01
    MULTICAST = 0x02
    BROADCAST = 0x04
    PROMISCUOUS = 0x20


#: Size of the adapter-context ("global state") block the OS allocates for
#: the driver.  The driver lays out its private state inside this block
#: with raw offsets -- which is exactly the pointer-arithmetic state the
#: synthesizer must preserve (paper Listing 1).
ADAPTER_CONTEXT_SIZE = 0x400
