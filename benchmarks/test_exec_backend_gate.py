"""Benchmark gate: the compiled execution tier beats the interpreters.

Two experiments, both landing under ``exec_backend`` in
``BENCH_pipeline.json``:

* **original-binary matrix column** -- one driver's full workload catalog
  on the source-OS harness (the baseline side of a validation-matrix
  column), run once on the per-instruction interpreter (``"step"``, the
  seed behaviour) and once on the compiled DBT tier.  Observations must
  be identical, and the compiled side must run compiled blocks;
* **synthesized-driver run** -- the rtl8139 artifact's driver pasted into
  the winsim template, driving a send+receive workload through the
  tree-walking IR interpreter and through compiled blocks.  Same
  behaviour and perf counters; the compiled side runs compiled blocks.

Both sides' wall clocks are recorded, not gated (the observed margins
are ~1.5x on the binary column and ~3x on the synthesized run); the
gates are the deterministic ``exec_counters()`` block-run count.
"""

from repro.drivers import device_class
from repro.ir.compile import exec_counters
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import SCENARIOS, run_scenario

from conftest import best_of, update_bench


MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"

#: Accumulated across the tests in this module; merged into the bench
#: report as each test completes, so partial runs still record.
_RECORD = {}


def _run_column(backend):
    """The original rtl8029 binary through the whole workload catalog."""
    observations = []
    for scenario in SCENARIOS:
        dut = OriginalDut("rtl8029", exec_backend=backend)
        observations.append(run_scenario(dut, scenario).to_dict())
    return observations


def _block_runs():
    return exec_counters()["block_runs"]


def test_original_binary_column_compiled_faster(cache):
    interpreted, obs_step = best_of(2, lambda: _run_column("step"))
    before = _block_runs()
    compiled, obs_compiled = best_of(2, lambda: _run_column("compiled"))
    block_runs = _block_runs() - before
    assert obs_step == obs_compiled, \
        "execution tier changed observable behaviour"
    _RECORD["matrix_column"] = {
        "driver": "rtl8029",
        "side": "original-binary",
        "scenarios": len(SCENARIOS),
        "interpreted_seconds": round(interpreted, 3),
        "compiled_seconds": round(compiled, 3),
        "speedup": round(interpreted / compiled, 2),
        "compiled_block_runs": block_runs,
    }
    update_bench("exec_backend", _RECORD)
    assert block_runs > 0, "the compiled DBT tier ran no compiled block"


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


def test_synthesized_rtl8139_run_compiled_faster(cache):
    artifact = cache.run("rtl8139")
    interpreted, out_interp = best_of(
        2, lambda: _run_synthesized(artifact, "interp"))
    before = _block_runs()
    compiled, out_compiled = best_of(
        2, lambda: _run_synthesized(artifact, "compiled"))
    block_runs = _block_runs() - before
    assert out_interp == out_compiled, \
        "execution tier changed synthesized-driver behaviour or counters"
    _RECORD["synthesized_run"] = {
        "driver": "rtl8139",
        "target_os": "winsim",
        "packets": 60,
        "interpreted_seconds": round(interpreted, 3),
        "compiled_seconds": round(compiled, 3),
        "speedup": round(interpreted / compiled, 2),
        "compiled_block_runs": block_runs,
    }
    update_bench("exec_backend", _RECORD)
    assert block_runs > 0, "the synthesized driver ran no compiled block"


def test_symex_fast_path_share_recorded(cache):
    """The concrete fast path carries a meaningful share of symbolic-phase
    blocks for every driver; record the shares next to the gate."""
    shares = {}
    for artifact in cache.all_drivers():
        stats = artifact.stats
        shares[artifact.name] = {
            "fast_blocks": stats["exec_fast_blocks"],
            "blocks_executed": stats["blocks_executed"],
        }
        assert 0 < stats["exec_fast_blocks"] < stats["blocks_executed"]
    _RECORD["symex_fast_path"] = shares
    update_bench("exec_backend", _RECORD)
