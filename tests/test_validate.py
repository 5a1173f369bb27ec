"""Unit and integration tests for the differential validation matrix."""

import pytest

from repro.eval.runner import get_cache
from repro.eval.tables import validation_matrix_render
from repro.validate import (CATALOG, SCENARIOS, MatrixResult, OriginalDut,
                            SynthesizedDut, ValidationMatrix,
                            compare_observations, compute_column,
                            expected_status, run_scenario)


@pytest.fixture(scope="module")
def rtl8029_artifact():
    return get_cache().run("rtl8029")


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
        raised (rtl8029 itself works there, so synthesize a failure)."""
        dut = SynthesizedDut(rtl8029_artifact, "ucsim")

        def boom(_dut):
            raise ValueError("boom")

        scenario = type(SCENARIOS[0])(name="boom", description="x",
                                      run=boom)
        obs = run_scenario(dut, scenario)
        assert not obs.ok and obs.error == "ValueError"


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

    def test_quick_script_artifacts_skip_gated_scenarios(self):
        """Reduced-script artifacts carry no set/query_information entry
        points; scenarios requiring them are skipped, the rest run."""
        artifact = get_cache().run("rtl8029", script="quick")
        (cell,) = compute_column(artifact, ("winsim",),
                                 [s.name for s in SCENARIOS])
        verdicts = {s.name: s.verdict for s in cell.scenarios}
        assert verdicts["control_plane"] == "skipped"
        assert verdicts["filter_mix"] == "skipped"
        assert verdicts["udp_stream"] == "match"
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
