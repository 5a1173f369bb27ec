"""Direct unit tests for the standalone observation differ.

The matrix and the fuzzer both classify through
:mod:`repro.validate.differ`; these tests exercise the comparison and
verdict rules on synthetic observations, with no pipeline, no drivers
and no harness -- the semantics stand on their own.
"""

import pytest

from repro.validate import Observation
from repro.validate.differ import (COMPARED_FIELDS, Divergence,
                                   classify_observations,
                                   compare_observations, is_unexplained)


def _observation(**overrides):
    base = dict(driver="fake", side="original", scenario="synthetic",
                statuses=[["boot", 0], ["send", 0]],
                wire_frames=["aa" * 60], delivered=["bb" * 60],
                link_drops=0, device_stats={"tx_frames": 1},
                device_state={"mac": "525400aabbcc", "promiscuous": False},
                oids={"mac": [0, "525400aabbcc"]}, irq_count=2,
                error_log=[])
    base.update(overrides)
    return Observation(**base)


class TestCompare:
    def test_identical_observations_have_no_divergence(self):
        assert compare_observations(_observation(), _observation()) == []

    def test_side_and_scenario_are_not_compared(self):
        candidate = _observation(side="synthesized/winsim",
                                 scenario="renamed", driver="other")
        assert compare_observations(_observation(), candidate) == []

    def test_every_compared_field_is_detected(self):
        tampered = _observation(
            ok=False, error="ValueError",
            statuses=[["boot", 1]], wire_frames=[], delivered=["cc" * 60],
            link_drops=3, device_stats={"tx_frames": 9},
            device_state={"mac": "deadbeef0000", "promiscuous": True},
            oids={"mac": [1, "deadbeef0000"]}, irq_count=7,
            error_log=["boom"])
        fields = {d.field for d in
                  compare_observations(_observation(), tampered)}
        assert fields == set(COMPARED_FIELDS)

    def test_list_divergence_names_first_differing_index(self):
        candidate = _observation(statuses=[["boot", 0], ["send", 5]])
        (div,) = compare_observations(_observation(), candidate)
        assert div.field == "statuses"
        assert "statuses[1]" in div.detail

    def test_length_mismatch_reports_counts(self):
        candidate = _observation(wire_frames=["aa" * 60, "dd" * 60])
        (div,) = compare_observations(_observation(), candidate)
        assert div.field == "wire_frames"
        assert "1 wire_frames vs 2" in div.detail

    def test_dict_divergence_names_key(self):
        candidate = _observation(device_stats={"tx_frames": 2})
        (div,) = compare_observations(_observation(), candidate)
        assert "device_stats[tx_frames]" in div.detail
        assert "1" in div.detail and "2" in div.detail

    def test_ignore_suppresses_fields(self):
        candidate = _observation(irq_count=99, link_drops=4)
        fields = {d.field for d in compare_observations(
            _observation(), candidate, ignore=("irq_count",))}
        assert fields == {"link_drops"}

    def test_divergence_round_trips_through_dict(self):
        div = Divergence(field="irq_count", detail="2 vs 7")
        assert Divergence(**div.to_dict()) == div


class TestClassify:
    def test_match(self):
        outcome = classify_observations(_observation(), _observation())
        assert outcome.verdict == "match"
        assert outcome.matched
        assert outcome.divergences == []

    def test_template_error_is_unsupported(self):
        candidate = _observation(ok=False, error="TemplateError")
        outcome = classify_observations(_observation(), candidate)
        assert outcome.verdict == "unsupported"
        assert not outcome.matched
        assert outcome.candidate_error == "TemplateError"

    def test_other_error_is_divergent(self):
        candidate = _observation(ok=False, error="VmFault")
        outcome = classify_observations(_observation(), candidate)
        assert outcome.verdict == "divergent"
        assert outcome.candidate_error == "VmFault"

    def test_behavioral_mismatch_is_divergent(self):
        candidate = _observation(irq_count=99)
        outcome = classify_observations(_observation(), candidate)
        assert outcome.verdict == "divergent"
        assert [d.field for d in outcome.divergences] == ["irq_count"]

    def test_matching_errors_on_both_sides_is_a_match(self):
        """An exception is behavior: both sides failing identically
        matches (the verified-unsupported discipline relies on this
        *not* being the case only when fields differ)."""
        baseline = _observation(ok=False, error="ValueError")
        candidate = _observation(ok=False, error="ValueError")
        assert classify_observations(baseline, candidate).verdict == "match"

    @pytest.mark.parametrize("verdict,expected,unexplained", [
        ("match", "equivalent", False),
        ("match", "unsupported", False),
        ("skipped", "equivalent", False),
        ("unsupported", "unsupported", False),
        ("unsupported", "equivalent", True),
        ("divergent", "equivalent", True),
        ("divergent", "unsupported", True),
    ])
    def test_unexplained_rule(self, verdict, expected, unexplained):
        """One rule for matrix cells and fuzz runs alike: divergence
        anywhere, or unsupported where equivalence was expected."""
        assert is_unexplained(verdict, expected) is unexplained

