"""Unit and integration tests for the differential validation matrix."""

import json
from types import FunctionType

import pytest

from repro.eval.runner import get_cache
from repro.eval.tables import validation_matrix_render
from repro.fuzz.differential import replay_program
from repro.guestos.front import MiniportFront
from repro.guestos.harness import DriverHarness
from repro.net.traffic import ScenarioProgram, ScenarioStep
from repro.templates import DmaNicTemplate, NicTemplate
from repro.validate import (CATALOG, SCENARIOS, MatrixResult, OriginalDut,
                            SynthesizedDut, ValidationMatrix,
                            compare_observations, compute_column,
                            expected_status, run_scenario)
from repro.validate import matrix


@pytest.fixture(scope="module")
def rtl8029_artifact():
    return get_cache().run("rtl8029")


def _count_duts(monkeypatch):
    """Record, in order, every DUT class the column runner builds."""
    built = []
    for name in ("OriginalDut", "SynthesizedDut"):
        dut_cls = getattr(matrix, name)

        def build(*args, _cls=dut_cls, **kwargs):
            built.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(matrix, name, build)
    return built


# ==========================================================================
# Catalog shape


class TestCatalog:
    def test_catalog_size_and_uniqueness(self):
        assert len(SCENARIOS) >= 8
        names = [s.name for s in SCENARIOS]
        assert len(set(names)) == len(names)
        assert all(s.description for s in SCENARIOS)

    def test_adversarial_coverage(self):
        """The catalog goes beyond the paper's UDP sweep."""
        for name in ("runt_oversize_rx", "bad_crc_rx", "rx_overflow",
                     "bidirectional_burst", "filter_mix", "link_flap"):
            assert name in CATALOG

    def test_requires_are_known_roles(self):
        roles = {"initialize", "send", "isr", "halt", "reset", "timer",
                 "query_information", "set_information"}
        for scenario in SCENARIOS:
            assert set(scenario.requires) <= roles, scenario.name

    def test_derived_requires_match_the_former_declarations(self):
        """Each entry's roles, derived from its steps, equal the table
        the catalog used to declare by hand (in the catalog's order)."""
        declared = {
            "boot_probe": {"query_information", "halt"},
            "udp_stream": set(),
            "udp_extremes": set(),
            "bidirectional_burst": set(),
            "runt_oversize_rx": set(),
            "bad_crc_rx": set(),
            "rx_overflow": set(),
            "filter_mix": {"set_information"},
            "promiscuous_churn": {"set_information"},
            "link_flap": {"reset"},
            "control_plane": {"set_information", "query_information"},
        }
        assert [s.name for s in SCENARIOS] == list(declared)
        for scenario in SCENARIOS:
            assert set(scenario.requires) == declared[scenario.name]

    def test_entries_round_trip_through_json(self):
        for scenario in SCENARIOS:
            assert isinstance(scenario, ScenarioProgram)
            text = scenario.to_json()
            again = ScenarioProgram.from_json(text)
            assert again == scenario, scenario.name
            assert again.to_json() == text


# ==========================================================================
# Observations and comparison


class TestObservations:
    def test_same_side_same_scenario_is_deterministic(self):
        a = run_scenario(OriginalDut("rtl8029"), CATALOG["udp_stream"])
        b = run_scenario(OriginalDut("rtl8029"), CATALOG["udp_stream"])
        assert a.ok and compare_observations(a, b) == []

    def test_injected_divergence_is_detected(self, rtl8029_artifact):
        baseline = run_scenario(OriginalDut("rtl8029"),
                                CATALOG["udp_stream"])
        candidate = run_scenario(SynthesizedDut(rtl8029_artifact, "winsim"),
                                 CATALOG["udp_stream"])
        assert compare_observations(baseline, candidate) == []
        candidate.device_stats["tx_frames"] += 1
        candidate.wire_frames.pop()
        fields = {d.field for d in
                  compare_observations(baseline, candidate)}
        assert fields == {"device_stats", "wire_frames"}

    def test_scenario_exception_is_an_observation(self, rtl8029_artifact):
        """ucsim refuses DMA drivers via TemplateError -- captured, not
        raised (rtl8029 itself works there, so synthesize a failure: a
        100-byte frame is no runt, and building it raises)."""
        dut = SynthesizedDut(rtl8029_artifact, "ucsim")
        program = ScenarioProgram(name="boom", steps=(
            ScenarioStep("inject_runt", {"length": 100}),))
        obs = run_scenario(dut, program)
        assert not obs.ok and obs.error == "ValueError"
        assert obs.statuses[0][0] == "boot"

    def test_both_sides_share_every_operation_encoding(self):
        """The harness and the templates supply primitives only: a side
        that overrode a shared operation could send its driver different
        requests than the other side's."""
        shared = {name: value for name, value in vars(MiniportFront).items()
                  if isinstance(value, FunctionType)}
        for side in (DriverHarness, NicTemplate, DmaNicTemplate):
            assert {name: getattr(side, name) for name in shared} == shared

    def test_catalog_scenario_replays_from_json(self, rtl8029_artifact):
        """A matrix scenario is a fuzz-replayable program: its JSON alone
        replays it differentially."""
        data = json.loads(CATALOG["udp_stream"].to_json())
        runs = replay_program(data, "rtl8029", ("winsim", "linsim"),
                              rtl8029_artifact)
        assert [(r.target_os, r.verdict) for r in runs] == [
            ("winsim", "match"), ("linsim", "match")]
        assert all(r.program_name == "udp_stream" for r in runs)


# ==========================================================================
# Matrix cells


class TestMatrix:
    def test_single_column_all_equivalent(self, rtl8029_artifact):
        cells = compute_column(rtl8029_artifact, ("winsim", "kitos"),
                               [s.name for s in SCENARIOS])
        assert [c.status for c in cells] == ["equivalent", "equivalent"]
        assert all(not c.unexplained() for c in cells)

    def test_dma_driver_unsupported_on_ucsim(self):
        artifact = get_cache().run("rtl8139")
        (cell,) = compute_column(artifact, ("ucsim",),
                                 ["udp_stream", "boot_probe"])
        assert cell.status == "unsupported"
        assert cell.expected == "unsupported"
        assert cell.unexplained() == []
        assert all(s.candidate_error == "TemplateError"
                   for s in cell.scenarios)

    def test_expected_status_matrix(self):
        assert expected_status("rtl8139", "ucsim") == "unsupported"
        assert expected_status("pcnet", "ucsim") == "unsupported"
        assert expected_status("rtl8029", "ucsim") == "equivalent"
        assert expected_status("rtl8139", "linsim") == "equivalent"

    def test_quick_script_artifacts_skip_gated_scenarios(self,
                                                          monkeypatch):
        """Reduced-script artifacts carry no set/query_information entry
        points; scenarios requiring them are skipped in every cell and
        build no DUT, the rest run one original-binary baseline each,
        shared by both OSes."""
        built = _count_duts(monkeypatch)
        artifact = get_cache().run("rtl8029", script="quick")
        cells = compute_column(artifact, ("winsim", "kitos"),
                               [s.name for s in SCENARIOS])
        ran = [s for s in SCENARIOS
               if set(s.requires) <= set(artifact.synthesized.entry_points)]
        assert built == ["OriginalDut", "SynthesizedDut",
                         "SynthesizedDut"] * len(ran)
        for cell in cells:
            verdicts = {s.name: s.verdict for s in cell.scenarios}
            assert list(verdicts) == [s.name for s in SCENARIOS]
            assert verdicts["control_plane"] == "skipped"
            assert verdicts["filter_mix"] == "skipped"
            assert verdicts["udp_stream"] == "match"
            assert len(cell.ran) == len(ran)
            assert cell.status in ("equivalent", "divergent")

    def test_small_matrix_run_and_render(self, rtl8029_artifact):
        matrix = ValidationMatrix(orchestrator=get_cache(),
                                  drivers=["rtl8029"],
                                  os_names=["winsim", "linsim"],
                                  scenarios=["udp_stream", "link_flap"])
        result = matrix.run()
        assert isinstance(result, MatrixResult)
        assert set(result.cells) == {("rtl8029", "winsim"),
                                     ("rtl8029", "linsim")}
        assert result.unexplained() == []
        summary = result.summary()
        assert summary["cells"] == 2
        assert summary["scenarios_run"] == 4
        text = validation_matrix_render(result)
        assert "rtl8029" in text and "winsim" in text
        assert "UNEXPLAINED" not in text
