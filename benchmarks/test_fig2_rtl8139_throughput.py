"""Bench F2: RTL8139 throughput on x86 (Figure 2)."""

from repro.eval.figures import fig2_compute, render_throughput


def test_fig2(cache):
    series = fig2_compute(cache=cache)
    print()
    print(render_throughput(series, "Figure 2: RTL8139 throughput on x86"))

    def curve(name):
        return [p.throughput_mbps for p in series[name]]

    original = curve("Windows Original")
    synthesized = curve("Windows->Windows")
    linux_native = curve("Linux Original")
    ported_linux = curve("Windows->Linux")
    kitos = curve("Windows->KitOS")

    # Shape checks from the paper: throughput grows with packet size and
    # approaches (but respects) the 100 Mbps rated link.
    assert all(a < b for a, b in zip(original, original[1:]))
    assert original[-1] < 100.0
    assert original[-1] > 70.0
    # Synthesized drivers have negligible overhead vs the original.
    for a, b in zip(original, synthesized):
        assert abs(a - b) / a < 0.05
    # The ported Linux driver is on par with the native one.
    for a, b in zip(linux_native, ported_linux):
        assert abs(a - b) / a < 0.05
    # KitOS (no TCP/IP stack) is the fastest series.
    for k, o in zip(kitos, original):
        assert k > o
