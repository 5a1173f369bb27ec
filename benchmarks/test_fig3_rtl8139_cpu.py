"""Bench F3: RTL8139 CPU utilization on x86 (Figure 3)."""

from repro.eval.figures import fig3_compute, render_utilization


def test_fig3(cache):
    series = fig3_compute(cache=cache)
    print()
    print(render_utilization(series,
                             "Figure 3: CPU utilization for RTL8139"))

    def curve(name):
        return [p.cpu_utilization for p in series[name]]

    original = curve("Windows Original")
    synthesized = curve("Windows->Windows")
    linux = curve("Windows->Linux")
    # Utilization decreases with packet size (wire time grows faster than
    # CPU time) -- the paper's dominant trend.
    assert original[0] > original[-1]
    # The synthesized Windows driver's utilization tracks the original.
    for a, b in zip(original, synthesized):
        assert abs(a - b) < 0.05
    # Linux's leaner stack burns slightly less CPU than NDIS.
    assert sum(linux) <= sum(original) + 1e-9
