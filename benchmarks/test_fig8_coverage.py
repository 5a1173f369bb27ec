"""Bench F8: basic-block coverage vs RevNIC running time (Figure 8)."""

from repro.eval.figures import fig8_compute, render_fig8


def test_fig8(cache):
    timelines = fig8_compute(cache=cache)
    print()
    print(render_fig8(timelines))
    for name, samples in timelines.items():
        assert samples, name
        fractions = [f for _b, _s, f in samples]
        # Coverage never decreases along the run and ends above the
        # paper's "most tested drivers reach over 80%" threshold.
        assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] > 0.80, (name, fractions[-1])
        # The curve rises fast: half of the final coverage is reached in
        # the first half of the run (paper: <20 minutes of a one-hour run).
        halfway = fractions[len(fractions) // 2]
        assert halfway > 0.4 * fractions[-1]
