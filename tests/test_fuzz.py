"""Unit tests for the differential scenario fuzzer.

Covers the program formalization (steps, serialization, requires), the
seeded generator's determinism, the hypothesis strategies' envelope, the
loop-until-dry engine on a bounded configuration, and the canonical fuzz
artifact: same seed ==> byte-identical serialized campaign.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.eval.runner import get_cache
from repro.fuzz import (FuzzConfig, FuzzEngine, ProgramGenerator,
                        canonical_fuzz_json, program_features,
                        run_program_column)
from repro.net.traffic import (STEP_VOCABULARY, ScenarioProgram,
                               ScenarioStep)
from repro.validate import OriginalDut, matrix

from fuzz_strategies import scenario_programs

#: Roles the synthesized corpus can actually carry (matrix discipline).
KNOWN_ROLES = {"initialize", "send", "isr", "halt", "reset", "timer",
               "query_information", "set_information"}


class TestStepFormalization:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown step op"):
            ScenarioStep(op="warp_core_breach")

    @pytest.mark.parametrize("op,params,message", [
        ("inject_tagged", {"dst": "statoin", "tag": 1}, "unknown dst"),
        ("send_burst", {"size": 64, "count": 1, "src": "relocate"},
         "unknown src"),
        ("set_mac", {"mac": "strangers"}, "unknown mac"),
        ("set_multicast", {"groups": ["multicast_a", "multicast_c"]},
         "unknown groups"),
        ("send_burst", {"size": 64}, "lacks params count"),
        ("inject_fcs", {"tag": 1}, "lacks params corrupt"),
        ("send_burst", {"size": 200, "count": 2, "frist": 2},
         "unknown params frist"),
    ])
    def test_malformed_params_rejected_at_construction(self, op, params,
                                                       message):
        """A typo would raise on both sides at run time (or fall back to
        an optional key's default) and classify as a match; it is
        rejected when the step is built instead."""
        with pytest.raises(ValueError, match=message):
            ScenarioStep(op, params)
        with pytest.raises(ValueError, match=message):
            ScenarioStep.from_list([op, params])

    def test_step_round_trips(self):
        step = ScenarioStep(op="send_burst", params={"size": 64, "count": 2})
        assert ScenarioStep.from_list(step.to_list()) == step

    def test_requires_mirror_vocabulary(self):
        assert ScenarioStep(op="reset").requires == ("reset",)
        assert ScenarioStep(op="set_filter", params={"flags": 1}) \
            .requires == ("set_information",)
        assert ScenarioStep(op="send_burst",
                            params={"size": 64, "count": 1}).requires == ()

    def test_all_vocabulary_requires_are_known_roles(self):
        for op, spec in STEP_VOCABULARY.items():
            assert set(spec.requires) <= KNOWN_ROLES, op

    def test_program_requires_is_union_of_steps(self):
        program = ScenarioProgram(name="p", steps=(
            ScenarioStep("reset"),
            ScenarioStep("query_mac"),
            ScenarioStep("send_burst", {"size": 64, "count": 1})))
        assert program.requires == ("query_information", "reset")

    def test_program_json_round_trip_is_canonical(self):
        program = ScenarioProgram(name="p", seed=9, steps=(
            ScenarioStep("inject_tagged", {"dst": "station", "tag": 3}),))
        text = program.to_json()
        again = ScenarioProgram.from_json(text)
        assert again == program
        assert again.to_json() == text


class TestGenerator:
    def test_same_seed_is_byte_identical(self):
        for seed in (0, 7, 12345, 2**31):
            assert ProgramGenerator().program(seed).to_json() \
                == ProgramGenerator().program(seed).to_json()

    def test_distinct_seeds_differ(self):
        texts = {ProgramGenerator().program(seed).to_json()
                 for seed in range(25)}
        assert len(texts) > 20

    def test_step_bounds_respected(self):
        gen = ProgramGenerator(min_steps=2, max_steps=5)
        for seed in range(40):
            # +1 for the possible trailing link-restore step
            assert 2 <= len(gen.program(seed).steps) <= 6

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ProgramGenerator(min_steps=5, max_steps=2)
        with pytest.raises(ValueError):
            ProgramGenerator(min_steps=0, max_steps=2)

    def test_programs_walks_consecutive_seeds(self):
        gen = ProgramGenerator()
        batch = gen.programs(100, 3)
        assert [p.seed for p in batch] == [100, 101, 102]
        assert batch[1].to_json() == gen.program(101).to_json()

    def test_generated_requires_stay_known(self):
        gen = ProgramGenerator()
        for seed in range(30):
            assert set(gen.program(seed).requires) <= KNOWN_ROLES


class TestHypothesisStrategies:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=scenario_programs())
    def test_strategy_programs_serialize_and_stay_in_envelope(self,
                                                              program):
        again = ScenarioProgram.from_json(program.to_json())
        assert again == program
        assert set(program.requires) <= KNOWN_ROLES
        for step in program.steps:
            assert step.op in STEP_VOCABULARY


class TestCoverageFeatures:
    def test_program_features_include_ops_and_bigrams(self):
        program = ScenarioProgram(name="p", steps=(
            ScenarioStep("reset"),
            ScenarioStep("send_burst", {"size": 64, "count": 1})))
        features = program_features(program)
        assert "op:reset" in features
        assert "op:send_burst" in features
        assert "bigram:reset>send_burst" in features


@pytest.fixture(scope="module")
def bounded_campaign():
    """One tiny campaign, shared by the engine tests below."""
    config = FuzzConfig(drivers=("rtl8029",),
                        os_names=("winsim", "kitos"),
                        programs_per_round=2, max_rounds=2, dry_rounds=2,
                        base_seed=4242)
    engine = FuzzEngine(orchestrator=get_cache(), config=config)
    return config, engine.run()


class TestEngine:
    def test_bounded_run_has_no_unexplained_divergence(self,
                                                       bounded_campaign):
        _config, result = bounded_campaign
        assert result.unexplained() == []
        summary = result.summary()
        assert summary["programs"] == 4
        assert summary["runs"] == 8
        assert summary["matched"] == 8
        assert summary["steps"] > 0
        assert summary["coverage"] > 0

    def test_same_seed_campaign_is_byte_identical(self, bounded_campaign):
        """The acceptance bar: same seed -> byte-identical canonical
        fuzz artifact."""
        config, result = bounded_campaign
        again = FuzzEngine(orchestrator=get_cache(), config=config).run()
        assert canonical_fuzz_json(again) == canonical_fuzz_json(result)

    def test_unsupported_cells_are_explained(self):
        """DMA driver x ucsim: every fuzz run lands unsupported, and none
        of it is unexplained -- identical to the matrix discipline."""
        artifact = get_cache().run("rtl8139")
        programs = ProgramGenerator().programs(555, 2)
        runs, _ = run_program_column(artifact, ("ucsim",), programs)
        assert runs, "programs unexpectedly skipped"
        for run in runs:
            assert run.verdict == "unsupported"
            assert run.expected == "unsupported"
            assert not run.unexplained
            assert run.program is not None   # replayable from the record

    def test_role_gated_programs_are_skipped(self, monkeypatch):
        """Reduced-script artifacts carry no set/query_information entry
        points; programs needing them skip instead of diverging, build no
        DUT and get no baseline.  A program that runs builds one
        original-binary baseline, shared by both OSes."""
        baselines_built = []

        def original_dut(*args, **kwargs):
            baselines_built.append(args)
            return OriginalDut(*args, **kwargs)

        monkeypatch.setattr(matrix, "OriginalDut", original_dut)
        artifact = get_cache().run("rtl8029", script="quick")
        gated = ScenarioProgram(name="gated", steps=(
            ScenarioStep("query_mac"),))
        plain = ScenarioProgram(name="plain", steps=(
            ScenarioStep("send_burst", {"size": 64, "count": 1}),))
        runs, baselines = run_program_column(
            artifact, ("winsim", "kitos"), [gated, plain])
        assert [(run.program_name, run.target_os, run.verdict)
                for run in runs] == [
            ("gated", "winsim", "skipped"), ("gated", "kitos", "skipped"),
            ("plain", "winsim", "match"), ("plain", "kitos", "match")]
        assert all(run.program is None for run in runs)
        assert list(baselines) == ["plain"]
        assert len(baselines_built) == 1
