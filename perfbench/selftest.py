"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

1. The self-time arithmetic on a synthetic span tree, and the
   calibration's reference-seconds arithmetic on synthetic samples.
2. The tracer puts every patched name back on uninstall.
3. Every workload once at its smallest size (``--seconds 0``: one pass
   per process), untraced and traced, checking the printed metric names
   against ``BENCHMARK.json``, correctness, and trace coverage >= 90%.
4. The runner fails, printing no result, without the library source.

Exits nonzero on the first failure.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# Keep bytecode of this process out of the source tree, like the workers.
sys.pycache_prefix = os.path.join(HERE, ".work", "pycache")

from calibrate import NOMINAL_S, WINDOW, Sampler  # noqa: E402
from tracer import (GC_LAYER, ROOT_LAYER, WRAP_POINTS, Tracer,  # noqa: E402
                    self_times)


def check_self_times():
    # root [0, 10] -> a [1, 4] -> b [2, 3]
    #              -> c [5, 9] -> gc [6, 7]
    layers = [0, 1, 2, 3, 4]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0]
    seconds, counts = self_times(layers, parents, starts, ends, 5)
    assert seconds == [3.0, 2.0, 1.0, 3.0, 1.0], seconds
    assert counts == [1, 1, 1, 1, 1], counts
    # Same-layer nesting (a method calling its base class) is charged once.
    seconds, counts = self_times([0, 1, 1], [-1, 0, 1], [0.0, 1.0, 2.0],
                                 [5.0, 4.0, 3.0], 2)
    assert seconds == [2.0, 3.0] and counts == [1, 2], (seconds, counts)


def check_reference_seconds():
    # Samples every 0.1 s: the first WINDOW at reference speed, the next
    # WINDOW at half speed (each sample takes twice as long).
    sampler = Sampler()
    for index in range(2 * WINDOW):
        sampler.starts.append(index * 0.1)
        sampler.spent.append(NOMINAL_S * (1 if index < WINDOW else 2))
    # The first group's stretch ends with its last sample.
    split = (WINDOW - 1) * 0.1 + NOMINAL_S
    want = (split - WINDOW * NOMINAL_S) \
        + (2 * WINDOW * 0.1 - split - WINDOW * 2 * NOMINAL_S) / 2
    got = sampler.reference_s(0.0, 2 * WINDOW * 0.1)
    assert abs(got - want) < 1e-12, (got, want)
    # An interval inside the half-speed stretch counts half its busy time.
    start, end = (WINDOW + 1) * 0.1 - 0.01, (WINDOW + 3) * 0.1 - 0.01
    want = (end - start - 2 * 2 * NOMINAL_S) / 2
    got = sampler.reference_s(start, end)
    assert abs(got - want) < 1e-12, (got, want)
    assert abs(sampler.kernel_s(start, end) - 4 * NOMINAL_S) < 1e-12


def check_install_roundtrip():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    originals = []
    for _layer, module_name, attrs in WRAP_POINTS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner, name = module, attr
            if "." in attr:
                class_name, name = attr.split(".")
                owner = getattr(module, class_name)
            originals.append((owner, name, vars(owner)[name]))
    tracer = Tracer()
    tracer.install()
    assert all(vars(owner)[name] is not fn for owner, name, fn in originals)
    tracer.begin_pass()
    from repro.drivers import build_driver, device_class
    from repro.guestos.harness import DriverHarness
    harness = DriverHarness(build_driver("rtl8029"), device_class("rtl8029"))
    harness.boot()
    summary = tracer.end_pass()
    tracer.uninstall()
    assert summary["calls"]["guestos.harness"] >= 2, summary["calls"]
    assert summary["calls"]["vm.bus"] > 0, summary["calls"]
    assert 0.0 < summary["coverage"] <= 1.0, summary
    assert ROOT_LAYER not in summary["self_s"]
    assert GC_LAYER in summary["self_s"]
    assert all(vars(owner)[name] is fn for owner, name, fn in originals)


def run_bench(workload, trace, cwd=ROOT, runner=None):
    runner = runner or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert set(result["metrics"]) == names[trace], \
                sorted(set(result["metrics"]) ^ names[trace])
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                assert coverage >= 0.9, (workload, coverage)
            else:
                assert all(m["value"] > 0
                           for m in result["metrics"].values()), result
            print("ok  %-24s trace=%d attempted=%d"
                  % (workload, trace, result["attempted"]))


def check_bare_directory():
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("fabric_saturation", 0, cwd=bare,
                     runner=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main():
    check_self_times()
    print("ok  self-time arithmetic")
    check_reference_seconds()
    print("ok  reference-seconds arithmetic")
    check_install_roundtrip()
    print("ok  tracer install/uninstall")
    check_bare_directory()
    print("ok  fails without the library source")
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
