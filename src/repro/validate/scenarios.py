"""The validation workload catalog.

Each scenario is one deterministic driver workout: a
:class:`~repro.net.traffic.ScenarioProgram` driven identically against the
original binary (source OS) and the synthesized driver (each target OS).
The catalog goes deliberately beyond the paper's fixed-size UDP sweep --
adversarial RX (runts, oversize, corrupted FCS), bidirectional bursts,
RX-ring overflow pressure, filter mixes and link flaps -- because
functional equivalence is only as strong as the traffic it is checked
under.

A scenario's ``requires`` (the entry-point roles beyond ``initialize``/
``send``/``isr`` it needs) is derived from its steps; the matrix skips
scenarios the synthesized driver cannot host (e.g. artifacts produced by
the reduced ``quick`` exercise script carry no ``set_information`` entry
point).
"""

from repro.guestos.structures import PacketFilter
from repro.net.traffic import ScenarioProgram, ScenarioStep

_DIRECTED = PacketFilter.DIRECTED


def _program(name, description, *steps):
    return ScenarioProgram(name=name, description=description,
                           steps=tuple(ScenarioStep(op, params)
                                       for op, params in steps))


def _tagged(dst, tag):
    return ("inject_tagged", {"dst": dst, "tag": tag})


def _filter(flags):
    return ("set_filter", {"flags": int(flags)})


#: One frame to each palette address: what every filter setting decides.
_FILTER_PROBES = tuple(_tagged(dst, tag) for tag, dst in enumerate(
    ("station", "stranger", "multicast_a", "multicast_b", "multicast_out",
     "broadcast"), start=10))


#: The catalog, in deterministic execution order.
SCENARIOS = (
    _program("boot_probe",
             "init, MAC + link-speed queries, clean shutdown",
             ("query_mac", {}), ("query_link_speed", {}), ("shutdown", {})),
    _program("udp_stream",
             "unidirectional UDP at 64/256/1000-byte payloads",
             *(("send_burst", {"size": size, "count": 2})
               for size in (64, 256, 1000))),
    _program("udp_extremes",
             "smallest and largest legal UDP payloads",
             *(("send_burst", {"size": size, "count": 1})
               for size in (64, 1472, 18))),
    _program("bidirectional_burst",
             "interleaved TX/RX bursts (full-duplex mix)",
             ("bidirectional", {"size": 128, "rounds": 4,
                                "pattern": [1, 3, 2]})),
    _program("runt_oversize_rx",
             "runt and oversize wire frames, then recovery",
             ("inject_runt", {"length": 24}),
             ("inject_runt", {"length": 59, "seed": 9}),
             ("inject_oversize", {"length": 1600}),
             _tagged("station", 1)),
    _program("bad_crc_rx",
             "frames with valid and corrupted trailing FCS",
             ("inject_fcs", {"tag": 2, "corrupt": False}),
             ("inject_fcs", {"tag": 3, "corrupt": True}),
             _tagged("station", 4)),
    _program("rx_overflow",
             "40-frame quiet burst overruns the RX ring, then drains",
             ("quiet_burst", {"size": 300, "count": 40}), ("service", {}),
             _tagged("station", 5), _tagged("station", 6)),
    _program("filter_mix",
             "multicast list x packet-filter combinations",
             ("set_multicast", {"groups": ["multicast_a", "multicast_b"]}),
             _filter(_DIRECTED | PacketFilter.MULTICAST), *_FILTER_PROBES,
             _filter(_DIRECTED | PacketFilter.BROADCAST), *_FILTER_PROBES,
             _filter(_DIRECTED | PacketFilter.PROMISCUOUS),
             *_FILTER_PROBES),
    _program("promiscuous_churn",
             "promiscuous toggled around a stranger's traffic",
             _tagged("stranger", 20),
             _filter(_DIRECTED | PacketFilter.PROMISCUOUS),
             _tagged("stranger", 20), _filter(_DIRECTED),
             _tagged("stranger", 20), _tagged("station", 21)),
    _program("link_flap",
             "cable pull mid-burst, reset, resume",
             # one UDP stream, continued across the three bursts
             ("send_burst", {"size": 200, "count": 2}),
             ("set_link", {"up": False}),
             ("send_burst", {"size": 200, "count": 2, "first": 2}),
             _tagged("station", 30), ("set_link", {"up": True}),
             ("reset", {}),
             ("send_burst", {"size": 200, "count": 2, "first": 4}),
             _tagged("station", 31)),
    _program("control_plane",
             "MAC rewrite, duplex, WoL, LED control",
             ("set_mac", {"mac": "relocated"}), ("query_mac", {}),
             _tagged("relocated", 40), _tagged("station", 41),
             ("set_full_duplex", {"enabled": True}), ("enable_wol", {}),
             ("set_led", {"mode": 2}),
             ("send_burst", {"size": 128, "count": 1, "src": "relocated"})),
)

CATALOG = {scenario.name: scenario for scenario in SCENARIOS}


def run_scenario(dut, scenario):
    """Drive ``scenario`` against ``dut`` and snapshot the observation.

    Exceptions are part of the observable behavior (``ok``/``error``), not
    harness failures: an unsupported adaptation (``TemplateError``) or a
    missing basic block surfaces here as a divergence or an explained
    incompatibility, never as a crashed matrix.
    """
    try:
        scenario.run(dut)
    except Exception as exc:  # noqa: BLE001 -- behavior, not plumbing
        return dut.observation(scenario.name, ok=False,
                               error=type(exc).__name__)
    return dut.observation(scenario.name)
