"""Bench F6: RTL8029 throughput on the QEMU testbed (Figure 6)."""

from repro.eval.figures import fig6_compute, render_throughput


def test_fig6(cache):
    series = fig6_compute(cache=cache)
    print()
    print(render_throughput(series, "Figure 6: RTL8029 throughput (QEMU)"))

    def curve(name):
        return [p.throughput_mbps for p in series[name]]

    original = curve("Windows Original")
    synthesized = curve("Windows->Windows")
    ported_linux = curve("Windows->Linux")
    linux_native = curve("Linux Original")
    kitos = curve("Windows->KitOS")
    # No rated-speed cap on the virtual NIC: throughput exceeds the chip's
    # physical 10 Mbps by an order of magnitude.
    assert original[-1] > 50.0
    # Ported-to-Linux is on par with the native Linux driver.
    for a, b in zip(linux_native, ported_linux):
        assert abs(a - b) / a < 0.05
    # The lean KitOS driver has the highest throughput.
    for k, o in zip(kitos, original):
        assert k > o
    # Synthesized == original within a few percent.
    for a, b in zip(original, synthesized):
        assert abs(a - b) / a < 0.05


def test_fig6_cpu_bound(cache):
    """CPU utilization is ~100% in the VM (no DMA, no wire time)."""
    series = fig6_compute(cache=cache)
    for name, points in series.items():
        for point in points:
            assert point.cpu_utilization > 0.99, (name, point)
