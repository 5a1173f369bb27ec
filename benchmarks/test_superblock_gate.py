"""Benchmark gate: the superblock tier matches per-block compiled dispatch.

Two experiments:

* **original-binary matrix column** -- the rtl8029 workload catalog on
  the source-OS harness, the ``"blocks"`` tier (compiled per-block) vs
  the ``"compiled"`` tier (compiled+superblocks), with the ``"step"``
  per-instruction interpreter as the reference.  Same observations,
  and the superblock side dispatches superblocks;
* **synthesized-driver run** -- the rtl8139 artifact in the winsim
  template, ``"blocks"`` vs ``"compiled"``.  Same behaviour and
  perf counters; the superblock side dispatches superblocks.

The gates are the deterministic ``superblock_counters()`` run count;
how much faster the tier is belongs to ``perfbench/`` (see
``perfbench/README.md``).
"""

from repro.drivers import device_class
from repro.ir.superblock import superblock_counters
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import SCENARIOS, run_scenario


MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"


def _superblock_runs():
    return superblock_counters()["superblock_runs"]


def _run_column(backend):
    """The original rtl8029 binary through the whole workload catalog."""
    observations = []
    for scenario in SCENARIOS:
        dut = OriginalDut("rtl8029", exec_backend=backend)
        observations.append(run_scenario(dut, scenario).to_dict())
    return observations


def test_matrix_column_superblocks_identical_and_dispatched(cache):
    obs_step = _run_column("step")
    obs_off = _run_column("blocks")
    # Only the "on" run can dispatch a superblock.
    before = _superblock_runs()
    obs_on = _run_column("compiled")
    superblock_runs = _superblock_runs() - before
    assert obs_off == obs_on, \
        "superblock tier changed observable behaviour"
    assert obs_step == obs_on, \
        "DBT tiers diverged from the per-step interpreter"
    assert superblock_runs > 0, "the superblock tier dispatched nothing"


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


def test_synthesized_rtl8139_run_superblocks_identical_and_dispatched(cache):
    artifact = cache.run("rtl8139")
    out_off = _run_synthesized(artifact, "blocks")
    before = _superblock_runs()
    out_on = _run_synthesized(artifact, "compiled")
    superblock_runs = _superblock_runs() - before
    assert out_off == out_on, \
        "superblock tier changed synthesized-driver behaviour or counters"
    assert superblock_runs > 0, "the superblock tier dispatched nothing"
