"""Seeded scenario-program generation.

The generator is the fuzzer's randomness boundary: one ``seed`` maps to
one :class:`~repro.net.traffic.ScenarioProgram` through a private
``random.Random(seed)`` stream, and nothing downstream of the program is
random at all.  That split is what makes fuzz runs replayable -- a
divergence report carries the serialized program (and its seed, for
provenance), and replaying the JSON reproduces the failure exactly,
without the generator even being importable.

Every parameter range below stays inside the envelope the deterministic
catalog already proved equivalent (payload sizes within the Ethernet
sweep, runt/oversize lengths inside the device models' buffer caps,
filter flags over the adaptation-table bits), so a divergence found by
fuzzing is a *behavioral* finding, never a harness artifact.
"""

import random

from repro.guestos.structures import PacketFilter
from repro.net.traffic import (MULTICAST_GROUPS, ScenarioProgram,
                               ScenarioStep)

#: Packet-filter mixes the generator draws from -- always DIRECTED plus
#: a mix, matching how every NDIS OS actually programs the filter (raw
#: ints, so programs stay JSON-pure).
FILTER_CHOICES = tuple(int(PacketFilter.DIRECTED | extra) for extra in (
    0,
    PacketFilter.MULTICAST,
    PacketFilter.BROADCAST,
    PacketFilter.MULTICAST | PacketFilter.BROADCAST,
    PacketFilter.PROMISCUOUS,
))

#: UDP payload sizes the traffic steps draw from (a discrete palette
#: keeps generated programs minimizable and human-readable).
SIZE_CHOICES = (18, 64, 128, 256, 300, 512, 1000, 1400, 1472)

#: Destination kinds for tagged single-frame injections.
TAGGED_DSTS = ("station", "stranger", "broadcast", "multicast_a",
               "multicast_b", "multicast_out")

#: Default program length bounds (steps per program).
MIN_STEPS = 3
MAX_STEPS = 10


def _gen_send_burst(rng):
    return {"size": rng.choice(SIZE_CHOICES), "count": rng.randint(1, 4)}


def _gen_inject_burst(rng):
    return {"size": rng.choice(SIZE_CHOICES), "count": rng.randint(1, 4)}


def _gen_quiet_burst(rng):
    # Up to ring-overrunning pressure; zero-length bursts are legal and
    # deliberately generated (the no-op edge the catalog never hits).
    return {"size": rng.choice((64, 128, 300)),
            "count": rng.choice((0, 1, 2, 4, 8, 16))}


def _gen_service(rng):
    return {}


def _gen_inject_tagged(rng):
    return {"dst": rng.choice(TAGGED_DSTS), "tag": rng.randint(0, 255)}


def _gen_inject_runt(rng):
    return {"length": rng.randint(6, 59), "seed": rng.randint(0, 255)}


def _gen_inject_oversize(rng):
    return {"length": rng.randint(1501, 1900), "seed": rng.randint(0, 255)}


def _gen_inject_fcs(rng):
    return {"tag": rng.randint(0, 255), "corrupt": rng.random() < 0.5}


def _gen_bidirectional(rng):
    length = rng.randint(2, 4)
    return {"size": rng.choice(SIZE_CHOICES),
            "rounds": rng.randint(1, 2),
            "pattern": [rng.randint(0, 3) for _ in range(length - 1)]
            + [rng.randint(1, 3)]}


def _gen_set_link(rng):
    return {"up": rng.random() < 0.5}


def _gen_link_flap(rng):
    return {"size": rng.choice(SIZE_CHOICES),
            "frames_down": rng.randint(0, 3)}


def _gen_reset(rng):
    return {}


def _gen_set_filter(rng):
    return {"flags": rng.choice(FILTER_CHOICES)}


def _gen_set_multicast(rng):
    count = rng.randint(0, len(MULTICAST_GROUPS))
    return {"groups": list(MULTICAST_GROUPS[:count])}


def _gen_query_mac(rng):
    return {}


def _gen_query_link_speed(rng):
    return {}


#: (op, weight, param generator).  Weights skew toward data-path traffic
#: -- the behavior the equivalence claim is really about -- with control
#: plane, adversarial RX and lifecycle churn mixed in.
OP_WEIGHTS = (
    ("send_burst", 5, _gen_send_burst),
    ("inject_burst", 5, _gen_inject_burst),
    ("quiet_burst", 2, _gen_quiet_burst),
    ("service", 2, _gen_service),
    ("inject_tagged", 4, _gen_inject_tagged),
    ("inject_runt", 2, _gen_inject_runt),
    ("inject_oversize", 2, _gen_inject_oversize),
    ("inject_fcs", 2, _gen_inject_fcs),
    ("bidirectional", 2, _gen_bidirectional),
    ("set_link", 1, _gen_set_link),
    ("link_flap", 2, _gen_link_flap),
    ("reset", 1, _gen_reset),
    ("set_filter", 2, _gen_set_filter),
    ("set_multicast", 1, _gen_set_multicast),
    ("query_mac", 1, _gen_query_mac),
    ("query_link_speed", 1, _gen_query_link_speed),
)


def _weighted_choice(rng, table, total):
    pick = rng.randrange(total)
    for op, weight, gen in table:
        if pick < weight:
            return op, gen
        pick -= weight
    raise AssertionError("unreachable")


class ProgramGenerator:
    """Maps seeds to scenario programs, deterministically.

    ``program(seed)`` is a pure function: two generators (in two
    processes, two sessions, two years) produce byte-identical
    ``to_json()`` output for the same seed.  The fuzz engine walks seeds
    ``base_seed + i``; any interesting program is pinned forever by its
    serialized form in ``tests/fuzz_corpus/``.
    """

    def __init__(self, min_steps=MIN_STEPS, max_steps=MAX_STEPS):
        if not 1 <= min_steps <= max_steps:
            raise ValueError("bad step bounds [%d, %d]"
                             % (min_steps, max_steps))
        self.min_steps = min_steps
        self.max_steps = max_steps
        self._total_weight = sum(w for _op, w, _g in OP_WEIGHTS)

    def program(self, seed):
        """The :class:`ScenarioProgram` for ``seed``."""
        rng = random.Random(seed)
        steps = []
        count = rng.randint(self.min_steps, self.max_steps)
        link_down = False
        for _ in range(count):
            op, gen = _weighted_choice(rng, OP_WEIGHTS, self._total_weight)
            params = gen(rng)
            if op == "set_link":
                link_down = not params["up"]
            elif op in ("link_flap", "reset"):
                link_down = False
            steps.append(ScenarioStep(op=op, params=params))
        if link_down:
            # Leave the cable plugged in: a program must end in a state
            # the next program's boot can rely on either side resetting.
            steps.append(ScenarioStep(op="set_link", params={"up": True}))
        return ScenarioProgram(name="fuzz-%08x" % (seed & 0xFFFFFFFF),
                               seed=seed, steps=tuple(steps),
                               description="generated by seed %d" % seed)

    def programs(self, base_seed, count):
        """``count`` programs for consecutive seeds from ``base_seed``."""
        return [self.program(base_seed + i) for i in range(count)]
