"""Bench F7: AMD PCNet throughput on the VMware testbed (Figure 7)."""

from repro.eval.figures import fig7_compute, render_throughput


def test_fig7(cache):
    series = fig7_compute(cache=cache)
    print()
    print(render_throughput(series, "Figure 7: AMD PCNet (VMware)"))

    def curve(name):
        return [p.throughput_mbps for p in series[name]]

    original = curve("Windows Original")
    synthesized = curve("Windows->Windows")
    kitos = curve("Windows->KitOS")
    # DMA + uncapped virtual NIC: throughput far beyond 100 Mbps at large
    # packet sizes (the paper reaches ~1 Gbps).
    assert original[-1] > 300.0
    assert kitos[-1] > original[-1]
    for a, b in zip(original, synthesized):
        assert abs(a - b) / a < 0.05
    # Monotone growth with packet size.
    assert all(a < b for a, b in zip(original, original[1:]))
