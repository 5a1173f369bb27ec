"""Bench F4: 91C111 throughput ported Windows -> uC/OS-II FPGA (Fig 4)."""

from repro.eval.figures import fig4_compute, render_throughput


def test_fig4(cache):
    series = fig4_compute(cache=cache)
    print()
    print(render_throughput(series, "Figure 4: 91C111 on the FPGA"))
    original = [p.throughput_mbps for p in series["uC/OSII Original"]]
    ported = [p.throughput_mbps for p in series["Windows->uC/OSII"]]
    # Paper: ported throughput within 10% of the hand-optimized original
    # (the gap is the synthesized code's larger cache footprint).
    for a, b in zip(original, ported):
        assert b <= a
        assert (a - b) / a < 0.10
    # Absolute range: tens of Mbps, bounded by the FPGA's shared bus.
    assert 15.0 < original[-1] < 35.0
