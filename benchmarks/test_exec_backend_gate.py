"""Benchmark gate: the compiled execution tier matches the interpreters.

Two experiments:

* **original-binary matrix column** -- one driver's full workload catalog
  on the source-OS harness (the baseline side of a validation-matrix
  column), run once on the per-instruction interpreter (``"step"``, the
  seed behaviour) and once on the compiled DBT tier.  Observations must
  be identical, and the compiled side must run compiled blocks;
* **synthesized-driver run** -- the rtl8139 artifact's driver pasted into
  the winsim template, driving a send+receive workload through the
  tree-walking IR interpreter and through compiled blocks.  Same
  behaviour and perf counters; the compiled side runs compiled blocks.

The gates are the deterministic ``block_runs`` counter, tallied over
the compiled side with ``repro.counters.counting()``;
how much faster the compiled tier is belongs to ``perfbench/`` (see
``perfbench/README.md``).
"""

from repro.counters import counting
from repro.drivers import device_class
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import SCENARIOS, run_scenario


MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"


def _run_column(backend):
    """The original rtl8029 binary through the whole workload catalog."""
    observations = []
    for scenario in SCENARIOS:
        dut = OriginalDut("rtl8029", exec_backend=backend)
        observations.append(run_scenario(dut, scenario).to_dict())
    return observations


def test_original_binary_column_compiled_identical_and_dispatched(cache):
    obs_step = _run_column("step")
    with counting() as work:
        obs_compiled = _run_column("compiled")
    assert obs_step == obs_compiled, \
        "execution tier changed observable behaviour"
    assert work["block_runs"] > 0, \
        "the compiled DBT tier ran no compiled block"


def _run_synthesized(artifact, backend, packets=60):
    target = TARGET_OSES["winsim"](device_class(artifact.name), mac=MAC)
    template = DmaNicTemplate(artifact.synthesized, target,
                              original_image=artifact.image,
                              exec_backend=backend)
    template.initialize()
    tx = UdpWorkload(MAC, PEER, 256)
    statuses = [template.send(tx.next_frame().to_bytes())
                for _ in range(packets)]
    rx = UdpWorkload(PEER, MAC, 128)
    delivered = []
    for _ in range(8):
        delivered.extend(template.inject_rx(rx.next_frame().to_bytes()))
    env = template.runtime.env
    return {
        "statuses": statuses,
        "wire": [f.hex() for f in target.medium.transmitted],
        "delivered": [f.hex() for f in delivered],
        "instrs_retired": env.instrs_retired,
        "ops_retired": env.ops_retired,
        "io_ops": env.io_ops,
        "irq_count": target.irq_count,
    }


def test_synthesized_rtl8139_run_compiled_identical_and_dispatched(cache):
    artifact = cache.run("rtl8139")
    out_interp = _run_synthesized(artifact, "interp")
    with counting() as work:
        out_compiled = _run_synthesized(artifact, "compiled")
    assert out_interp == out_compiled, \
        "execution tier changed synthesized-driver behaviour or counters"
    assert work["block_runs"] > 0, \
        "the synthesized driver ran no compiled block"


def test_symex_fast_path_share_recorded(cache):
    """The concrete fast path carries a meaningful share of symbolic-phase
    blocks for every driver."""
    for artifact in cache.all_drivers():
        stats = artifact.stats
        assert 0 < stats["exec_fast_blocks"] < stats["blocks_executed"]
