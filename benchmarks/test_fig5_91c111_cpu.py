"""Bench F5: CPU fraction spent inside the 91C111 driver (Figure 5)."""

from repro.eval.figures import fig5_compute, render_fraction_series


def test_fig5(cache):
    series = fig5_compute(cache=cache)
    print()
    print(render_fraction_series(
        series, "Figure 5: CPU fraction spent inside the 91C111 driver"))
    for name, points in series.items():
        fractions = [fraction for _size, fraction in points]
        # Paper: roughly 20%-30% of CPU time inside the driver for both
        # the original and the synthesized driver.
        assert all(0.15 < f < 0.40 for f in fractions), (name, fractions)
    original = dict(series["uC/OSII Original"])
    ported = dict(series["Windows->uC/OSII"])
    for size in original:
        assert abs(original[size] - ported[size]) < 0.10
