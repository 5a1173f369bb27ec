"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is to chaos runs what a
:class:`~repro.net.traffic.ScenarioProgram` is to fuzz runs: the single
randomness boundary.  One seed maps to one plan through a private
``random.Random(seed)`` stream, the plan serializes canonically, and
everything downstream of the plan is deterministic -- so a chaos failure
report carries the serialized plan and replaying it reproduces the exact
fault schedule, byte for byte.

Fault targets are small integers resolved against the sorted job list
(run layer) or the sorted key list (store layer) at injection time, so a
plan stays meaningful whatever corpus subset a campaign runs.
"""

import json
import random
from dataclasses import dataclass, field

#: Store-level fault kinds: what a hostile disk does to cache entries.
STORE_KINDS = ("truncate", "bitflip", "orphan_tmp", "partial_publish")

#: Run-level fault kinds: induced failures inside ``execute_run``.
RUN_KINDS = ("guest_os_error", "solver_budget")

_LAYER_KINDS = {"store": STORE_KINDS, "run": RUN_KINDS}


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    A store fault must be healed (quarantine and recompute, or a
    recovery sweep); a run fault fails its job the first time it fires,
    which must surface as a loud classified failure.
    """

    layer: str                  # 'store' | 'run'
    kind: str
    target: int = 0             # job ordinal (run) or key ordinal (store)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kinds = _LAYER_KINDS.get(self.layer)
        if kinds is None:
            raise ValueError("unknown fault layer %r" % (self.layer,))
        if self.kind not in kinds:
            raise ValueError("unknown %s fault kind %r"
                             % (self.layer, self.kind))

    def to_dict(self):
        return {"layer": self.layer, "kind": self.kind,
                "target": self.target, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data):
        return cls(layer=data["layer"], kind=data["kind"],
                   target=data["target"], params=dict(data["params"]))


@dataclass(frozen=True)
class FaultPlan:
    """One chaos schedule: the faults one campaign run injects."""

    seed: int
    faults: tuple = ()

    def layer(self, name):
        """The plan's faults for one layer, in schedule order."""
        return tuple(f for f in self.faults if f.layer == name)

    def to_dict(self):
        return {"seed": self.seed,
                "faults": [f.to_dict() for f in self.faults]}

    def to_json(self):
        """Canonical bytes: the replay key for this schedule."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data):
        return cls(seed=data["seed"],
                   faults=tuple(FaultSpec.from_dict(f)
                                for f in data["faults"]))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _gen_truncate(rng):
    return {"keep_fraction": rng.choice((0.0, 0.25, 0.5, 0.9))}


def _gen_bitflip(rng):
    return {"salt": rng.randrange(1 << 30)}


def _gen_orphan_tmp(rng):
    return {"salt": rng.randrange(1 << 30)}


def _gen_partial_publish(rng):
    return {"salt": rng.randrange(1 << 30)}


def _gen_guest_os_error(rng):
    return {"stage": rng.choice(("revnic", "synthesize"))}


def _gen_solver_budget(rng):
    return {"stage": "revnic"}


_PARAM_GENERATORS = {
    "truncate": _gen_truncate,
    "bitflip": _gen_bitflip,
    "orphan_tmp": _gen_orphan_tmp,
    "partial_publish": _gen_partial_publish,
    "guest_os_error": _gen_guest_os_error,
    "solver_budget": _gen_solver_budget,
}



class FaultPlanGenerator:
    """Maps seeds to fault plans, deterministically.

    ``plan(seed)`` is a pure function (same discipline as
    :class:`~repro.fuzz.generate.ProgramGenerator`): two generators in two
    processes produce byte-identical ``to_json()`` output for the same
    seed.  Store faults exercise the healing half of the invariant, run
    faults the loud-failure half.
    """

    def __init__(self, layers=("store", "run"), min_faults=1,
                 max_faults=3, jobs=4):
        for layer in layers:
            if layer not in _LAYER_KINDS:
                raise ValueError("unknown fault layer %r" % (layer,))
        if not 1 <= min_faults <= max_faults:
            raise ValueError("bad fault count bounds [%d, %d]"
                             % (min_faults, max_faults))
        self.layers = tuple(layers)
        self.min_faults = min_faults
        self.max_faults = max_faults
        self.jobs = jobs

    def plan(self, seed):
        """The :class:`FaultPlan` for ``seed``."""
        rng = random.Random(seed)
        count = rng.randint(self.min_faults, self.max_faults)
        faults = []
        for _ in range(count):
            layer = rng.choice(self.layers)
            kind = rng.choice(_LAYER_KINDS[layer])
            params = _PARAM_GENERATORS[kind](rng)
            faults.append(FaultSpec(layer=layer, kind=kind,
                                    target=rng.randrange(self.jobs),
                                    params=params))
        return FaultPlan(seed=seed, faults=tuple(faults))

    def plans(self, base_seed, count):
        """``count`` plans for consecutive seeds from ``base_seed``."""
        return [self.plan(base_seed + i) for i in range(count)]
