"""Hypothesis strategies over the scenario-program vocabulary.

The seeded :class:`~repro.fuzz.generate.ProgramGenerator` owns campaign
generation (replayable seeds, no external dependency); these strategies
expose the *same parameter envelope* to hypothesis for property-based
testing -- shrinking a failing program to a minimal step list is exactly
what hypothesis is good at, and a shrunk example serializes straight into
``tests/fuzz_corpus/``.

Hypothesis is a test-only dependency, so these strategies live with the
tests rather than in :mod:`repro.fuzz`.
"""

from hypothesis import strategies as st

from repro.fuzz.generate import (FILTER_CHOICES, SIZE_CHOICES, TAGGED_DSTS)
from repro.net.traffic import (MULTICAST_GROUPS, ScenarioProgram,
                               ScenarioStep)

_sizes = st.sampled_from(SIZE_CHOICES)
_tags = st.integers(min_value=0, max_value=255)

#: Per-op parameter strategies, mirroring ProgramGenerator's envelope.
STEP_PARAMS = {
    "send_burst": st.fixed_dictionaries(
        {"size": _sizes, "count": st.integers(1, 4)}),
    "inject_burst": st.fixed_dictionaries(
        {"size": _sizes, "count": st.integers(1, 4)}),
    "quiet_burst": st.fixed_dictionaries(
        {"size": st.sampled_from((64, 128, 300)),
         "count": st.sampled_from((0, 1, 2, 4, 8, 16))}),
    "service": st.just({}),
    "inject_tagged": st.fixed_dictionaries(
        {"dst": st.sampled_from(TAGGED_DSTS), "tag": _tags}),
    "inject_runt": st.fixed_dictionaries(
        {"length": st.integers(6, 59), "seed": _tags}),
    "inject_oversize": st.fixed_dictionaries(
        {"length": st.integers(1501, 1900), "seed": _tags}),
    "inject_fcs": st.fixed_dictionaries(
        {"tag": _tags, "corrupt": st.booleans()}),
    "bidirectional": st.fixed_dictionaries(
        {"size": _sizes, "rounds": st.integers(1, 2),
         "pattern": st.lists(st.integers(0, 3), min_size=1, max_size=3)
         .filter(lambda p: any(p))}),
    "set_link": st.fixed_dictionaries({"up": st.booleans()}),
    "link_flap": st.fixed_dictionaries(
        {"size": _sizes, "frames_down": st.integers(0, 3)}),
    "reset": st.just({}),
    "set_filter": st.fixed_dictionaries(
        {"flags": st.sampled_from(FILTER_CHOICES)}),
    "set_multicast": st.fixed_dictionaries(
        {"groups": st.lists(st.sampled_from(MULTICAST_GROUPS),
                            max_size=len(MULTICAST_GROUPS), unique=True)}),
    "query_mac": st.just({}),
    "query_link_speed": st.just({}),
}


@st.composite
def scenario_steps(draw):
    """One vocabulary step with in-envelope parameters."""
    op = draw(st.sampled_from(sorted(STEP_PARAMS)))
    return ScenarioStep(op=op, params=draw(STEP_PARAMS[op]))


@st.composite
def scenario_programs(draw, min_steps=1, max_steps=6):
    """A whole scenario program (name marks it hypothesis-built)."""
    steps = draw(st.lists(scenario_steps(), min_size=min_steps,
                          max_size=max_steps))
    return ScenarioProgram(name="hypo-%04d" % draw(st.integers(0, 9999)),
                           seed=0, steps=tuple(steps),
                           description="hypothesis-generated program")
