"""RevNIC reproduction benchmark: CPU-time workloads with a layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, passes back to back):

``revnic_cold_rtl8139`` / ``revnic_cold_smc91c111``
    One cold reverse-engineering pipeline per pass, each in a fresh
    interpreter (artifact store off, code cache off, serial).
``matrix_warm``
    One full validation-matrix pass (4 drivers x 4 OSes x 11 scenarios)
    over artifacts decoded from the benchmark's own prepared store.
``fabric_saturation``
    One 64-endpoint ``saturation`` fleet pass (batched scheduler,
    compiled backend, 384 frames); ``--seed`` seeds the traffic plan.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Times are CPU seconds at the reference host's speed:
a calibration kernel sampled all through every worker measures how fast
the host ran (``calibrate.py``).  Every pass's reference, raw CPU, wall
and steal seconds are written to ``perfbench/.work/runs/``; see
``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
STORE = os.path.join(WORK, "store")
WORKER = os.path.join(HERE, "worker.py")

#: workload -> (kind, argument)
WORKLOADS = {
    "revnic_cold_rtl8139": ("cold", "rtl8139"),
    "revnic_cold_smc91c111": ("cold", "smc91c111"),
    "matrix_warm": ("warm", "matrix"),
    "fabric_saturation": ("warm", "fabric"),
}

#: In-process workloads run this many fresh interpreters, each setting up
#: once and timing an equal share of the passes: set-up is then a median.
WARM_PROCESSES = 3

#: Every worker must end this many seconds after the run started, so the
#: whole run ends within 180 s even if a worker hangs.
DEADLINE = 170
STARTED = time.monotonic()

#: Where the per-layer metrics come from: ``<layer>_s`` is the self CPU
#: time, at reference speed, of a span layer per pass (SETUP_SECONDS: in
#: the traced set-up),
#: SPAN_CALLS count spans, COUNTERS are library counter deltas per pass.
SPAN_SECONDS = (
    "expr.compile", "solver.search", "symex.step", "dbt.translate",
    "osbridge.handle", "wiretap.record", "revnic.run", "synth.synthesize",
    "vm.bus", "vm.memory", "hw.device", "synth.run_function",
    "guestos.harness", "templates.op", "targetos.call",
    "validate.build_dut", "validate.observe", "validate.classify",
    "fabric.switch", "fabric.endpoint", "gc.pause")
SPAN_CALLS = {
    "dbt.translate_calls": "dbt.translate",
    "osbridge.calls": "osbridge.handle",
    "wiretap.records": "wiretap.record",
    "vm.bus_calls": "vm.bus",
    "vm.memory_calls": "vm.memory",
    "hw.device_calls": "hw.device",
    "synth.run_function_calls": "synth.run_function",
    "targetos.calls": "targetos.call",
    "gc.collections": "gc.pause",
}
SETUP_SECONDS = ("store.load", "artifact.decode")
COUNTERS = {
    "expr.programs": "programs",
    "expr.program_runs": "program_runs",
    "expr.node_visits": "node_visits",
    "ir.block_runs": "block_runs",
    "ir.blocks_compiled": "blocks_compiled",
    "ir.superblock_dispatches": "superblock_runs",
}
#: Per-pass outputs of the cold pipeline (its artifact's run stats) and of
#: the fleet (its report); 0 on workloads that do not produce them.
ENGINE = {
    "solver.queries": "solver_queries",
    "solver.comp_solves": "solver_comp_solves",
    "symex.blocks": "blocks_executed",
    "symex.fast_blocks": "exec_fast_blocks",
}
FABRIC = {
    "fabric.frames_switched": "frames_switched",
    "fabric.drops": "drops",
}


class BenchError(Exception):
    """A worker failed: the run prints no result and exits nonzero."""


def worker_env():
    """The pinned environment of every worker: no caller REVNIC_* knob
    leaks in, caches the benchmark does not own are off, and bytecode
    goes under the benchmark's work directory."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REVNIC_", "PYTHON"))}
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
        "REVNIC_ARTIFACT_CACHE": "off",
        "REVNIC_CODE_CACHE": "off",
        "REVNIC_PARALLEL": "0",
        "PERFBENCH_WORK": WORK,
    })
    return env


def call_worker(*args):
    """Run ``worker.py`` with ``args``; returns its parsed JSON result."""
    timeout = max(1.0, DEADLINE - (time.monotonic() - STARTED))
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + [str(arg) for arg in args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s timed out after %.0fs" % (args, timeout)) \
            from exc
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s"
                         % (args, proc.returncode, proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker %s printed no result" % (args,))
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Running the workloads


def run_cold(driver, seconds, trace):
    """Fresh-interpreter pipeline passes until ``seconds`` have elapsed.

    Traced runs alternate untraced and traced interpreters, so both
    halves see the same host conditions.
    """
    children = []
    started = time.perf_counter()
    while True:
        traced = trace and len(children) % 2 == 1
        child = call_worker("cold", driver, *(["--trace"] if traced else []))
        for record in child["passes"]:
            record["traced"] = traced
        children.append(child)
        enough = len(children) >= (2 if trace else 1)
        if enough and time.perf_counter() - started >= seconds:
            return children


def run_warm(workload, seed, seconds, trace):
    call_worker("prepare", STORE)
    processes = 1 if trace else WARM_PROCESSES
    return [call_worker("warm", workload, STORE, seed, seconds / processes,
                        *(["--trace"] if trace else []))
            for _ in range(processes)]


# ----------------------------------------------------------------------
# Checking and summarizing


def check(kind, children):
    """``(attempted, failed, correct)`` over every pass of the run.

    A pipeline fails when its artifact bytes differ from the run's first
    pass; a matrix comparison fails when its verdict is unexplained; a
    fleet pass fails on step errors, a wrong frame count or report bytes
    that differ from the first pass.  Traced passes are held to the same
    bytes as untraced ones.
    """
    passes = [record for child in children for record in child["passes"]]
    reference = passes[0]["digest"]
    attempted = failed = 0
    for record in passes:
        differs = record["digest"] != reference
        if kind == "cold":
            attempted += 1
            failed += int(differs)
        else:
            attempted += record["attempted"]
            failed += record["failed"] + int(differs)
    warmups = {child.get("warmup_digest", reference) for child in children}
    correct = failed == 0 and warmups == {reference}
    return attempted, failed, correct


def end_to_end(children):
    passes = [record for child in children for record in child["passes"]]
    return {
        "setup_s": (median([child["setup_ref_s"] for child in children]),
                    "s"),
        "peak_rss_mb": (max(child["rss_mb"] for child in children), "MiB"),
        "pass_s": (median([record["ref_s"] for record in passes]), "s"),
    }


def reuse_ratio(record):
    """Solver queries answered by the model cache or the fast path."""
    engine = record.get("engine", {})
    hits = (engine.get("solver_cache_hits", 0)
            + engine.get("solver_fast_path_hits", 0))
    return hits / max(1, engine.get("solver_queries", 0))


def per_layer(children):
    passes = [record for child in children for record in child["passes"]]
    traced = [record for record in passes if record.get("traced")]
    plain = [record for record in passes if not record.get("traced")]
    if not traced or not plain:
        raise BenchError("a traced run needs traced and untraced passes")
    metrics = {}

    def per_pass(name, unit, value_of):
        metrics[name] = (median([value_of(record) for record in traced]),
                         unit)

    for layer in SPAN_SECONDS:
        per_pass(layer + "_s", "s",
                 lambda r, layer=layer: r["layers"]["self_s"][layer])
    for name, layer in SPAN_CALLS.items():
        per_pass(name, "count",
                 lambda r, layer=layer: r["layers"]["calls"][layer])
    for name, key in COUNTERS.items():
        per_pass(name, "count", lambda r, key=key: r["counters"][key])
    per_pass("expr.runs_per_program", "ratio",
             lambda r: r["counters"]["program_runs"]
             / max(1, r["counters"]["programs"]))
    for name, key in ENGINE.items():
        per_pass(name, "count",
                 lambda r, key=key: r.get("engine", {}).get(key, 0))
    per_pass("solver.reuse_ratio", "ratio", reuse_ratio)
    for name, key in FABRIC.items():
        per_pass(name, "count",
                 lambda r, key=key: r.get("fabric", {}).get(key, 0))
    setups = [child["layers"]["self_s"] for child in children
              if "layers" in child]
    for layer in SETUP_SECONDS:
        metrics[layer + "_s"] = (median([s[layer] for s in setups]), "s")
    metrics["host.cpu_s"] = (median([r["cpu_s"] for r in plain]), "s")
    metrics["host.speed"] = (median([r["ref_s"] / r["cpu_s"] for r in plain]),
                             "ratio")
    metrics["host.wall_s"] = (median([r["wall_s"] for r in plain]), "s")
    metrics["host.steal_s"] = (median([r["steal_s"] for r in plain]), "s")
    metrics["trace.overhead"] = (
        median([r["ref_s"] for r in traced])
        / median([r["ref_s"] for r in plain]), "ratio")
    metrics["trace.coverage"] = (
        median([r["layers"]["coverage"] for r in traced]), "ratio")
    return metrics


def write_record(args, children, result):
    """Keep every pass's times beside the printed result."""
    path = os.path.join(WORK, "runs", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    passes = [{key: record[key] for key in
               ("ref_s", "cpu_s", "wall_s", "steal_s", "digest")
               if key in record}
              | {"traced": bool(record.get("traced"))}
              for child in children for record in child["passes"]]
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "setup_s": [child["setup_s"] for child in children],
                   "setup_ref_s": [child["setup_ref_s"]
                                   for child in children],
                   "passes": passes, "result": result}, handle, indent=1)
    for index, record in enumerate(passes):
        sys.stderr.write("pass %2d %s ref %.3fs cpu %.3fs wall %.3fs"
                         " steal %.2fs\n"
                         % (index, "traced" if record["traced"] else "plain ",
                            record["ref_s"], record["cpu_s"],
                            record["wall_s"], record["steal_s"]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no library source at %s\n" % SRC)
        return 2
    kind, target = WORKLOADS[args.workload]
    try:
        if kind == "cold":
            children = run_cold(target, args.seconds, bool(args.trace))
        else:
            children = run_warm(target, args.seed, args.seconds,
                                bool(args.trace))
        attempted, failed, correct = check(kind, children)
        metrics = per_layer(children) if args.trace else end_to_end(children)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    write_record(args, children, result)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
