"""Bench F9: automatically recovered vs manual functions (Figure 9)."""

from repro.eval.figures import fig9_compute, render_fig9


def test_fig9(cache):
    breakdown = fig9_compute(cache=cache)
    print()
    print(render_fig9(breakdown))
    fractions = [row["fraction"] for row in breakdown.values()]
    # Paper: "about 70% of the functions are fully synthesized"; per-driver
    # values cluster around that.
    assert all(0.5 <= f <= 0.9 for f in fractions), fractions
    average = sum(fractions) / len(fractions)
    assert 0.60 <= average <= 0.80, average
