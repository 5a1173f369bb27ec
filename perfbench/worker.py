"""One benchmark process: prepares the artifact store or runs passes.

``run.py`` starts this file in a fresh interpreter with a pinned
environment and reads the JSON object it prints as its last line.
Modes:

``prepare STORE``
    Compute (untimed) the four drivers' pipeline artifacts into the
    benchmark's own store; later runs only load them.
``cold DRIVER [--trace]``
    One cold reverse-engineering pipeline (``execute_run``) in this
    fresh interpreter.  ``setup_s`` is the CPU spent before the pass:
    interpreter start, imports and driver assembly.
``warm WORKLOAD STORE SEED SECONDS [--trace]``
    ``matrix`` or ``fabric``: set up (load + decode the artifacts, one
    untimed warm-up pass), then back-to-back passes for SECONDS.  With
    ``--trace`` the set-up and the later passes are traced and the
    passes in between are not (they give ``trace.overhead``).

Every pass records its CPU time, wall time and the host's
``/proc/stat`` steal beside its outputs' digest.  A calibration sampler
(``calibrate.py``) runs all through ``cold`` and ``warm``; when the
work is done its samples turn each pass's and the set-up's CPU time
into ``ref_s``, CPU seconds at the reference host's speed, and scale
traced layer times the same way.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import WINDOW, Sampler, clock  # noqa: E402
from tracer import Tracer  # noqa: E402

FABRIC_ENDPOINTS = 64
FABRIC_FRAMES = 384


def read_steal():
    """Host-wide steal seconds so far (``/proc/stat``), or 0.0 when the
    kernel does not report it."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters():
    """The library's deterministic execution counters, flattened."""
    from repro.ir.compile import exec_counters
    from repro.ir.superblock import superblock_counters
    from repro.symex.expr import eval_counters

    snapshot = {}
    snapshot.update(eval_counters())
    snapshot.update(exec_counters())
    snapshot.update(superblock_counters())
    return snapshot


def timed_pass(run, tracer=None):
    """Run one pass; returns ``(result, record)``.

    ``record`` holds the pass's CPU clock readings (``calibrate`` turns
    them into seconds), wall / steal seconds and the counter deltas; when
    ``tracer`` is installed it also holds the pass's layer summary.
    """
    gc.collect()
    before = counters()
    if tracer is not None:
        tracer.begin_pass()
    steal = read_steal()
    wall = time.perf_counter()
    start = clock()
    result = run()
    end = clock()
    wall = time.perf_counter() - wall
    steal = read_steal() - steal
    record = {"clock": [start, end], "wall_s": wall, "steal_s": steal}
    if tracer is not None:
        record["layers"] = tracer.end_pass()
    after = counters()
    record["counters"] = {key: after[key] - before[key] for key in after}
    return result, record


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------


def prepare(store_root):
    from repro.drivers import DRIVERS
    from repro.pipeline.orchestrator import PipelineOrchestrator
    from repro.pipeline.store import ArtifactStore

    orchestrator = PipelineOrchestrator(store=ArtifactStore(store_root),
                                        parallel=False)
    orchestrator.warm(sorted(DRIVERS), parallel=False)
    return {"mode": orchestrator.last_warm_mode}


def cold(driver, trace, sampler):
    # Import everything execute_run reaches, then assemble the driver:
    # that is the set-up a porting user pays before RevNIC starts.
    import repro.revnic  # noqa: F401
    import repro.synth  # noqa: F401
    from repro.drivers import build_driver
    from repro.pipeline.artifact import canonical_json
    from repro.pipeline.orchestrator import execute_run

    build_driver(driver)
    setup_end = clock()
    sampler.burst(WINDOW)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        artifact, record = timed_pass(lambda: execute_run(driver), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = artifact.stats
    record["engine"] = {key: stats[key] for key in (
        "solver_queries", "solver_comp_solves", "solver_cache_hits",
        "solver_fast_path_hits", "blocks_executed", "exec_fast_blocks")}
    record["digest"] = digest(canonical_json(artifact))
    if tracer is not None:
        tracer.write_spans(os.path.join(
            os.environ["PERFBENCH_WORK"], "spans", "cold-%s" % driver))
    return {"setup_end": setup_end, "rss_mb": rss_mb(), "passes": [record]}


def _matrix_pass(orchestrator):
    from repro.validate.matrix import ValidationMatrix

    result = ValidationMatrix(orchestrator=orchestrator).run(parallel=False)
    summary = result.summary()
    summary.pop("wall_seconds")
    return {"digest": digest(json.dumps(summary, sort_keys=True)),
            "attempted": summary["scenarios_run"],
            "failed": summary["unexplained"], "summary": summary}


def _fabric_pass(orchestrator, workload):
    from repro.net.fabric import canonical_fabric_json, run_fleet

    report = run_fleet(workload, orchestrator=orchestrator, mode="batched",
                       backends=("compiled",))
    switch = report["switch"]
    errors = report["totals"]["step_errors"]
    frames = switch["frames_switched"]
    return {"digest": digest(canonical_fabric_json(report)),
            "attempted": 1,
            "failed": int(bool(errors) or frames != FABRIC_FRAMES),
            "fabric": {"frames_switched": frames,
                       "drops": switch["queue_drops"]
                       + switch["runts_dropped"],
                       "step_errors": errors}}


def warm(workload, store_root, seed, seconds, trace):
    from repro.pipeline.orchestrator import PipelineOrchestrator
    from repro.pipeline.store import ArtifactStore

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.begin_pass()
    orchestrator = PipelineOrchestrator(store=ArtifactStore(store_root),
                                        parallel=False)
    orchestrator.warm(parallel=False)
    if orchestrator.last_warm_mode != "cached":
        raise RuntimeError("benchmark store %s is not prepared" % store_root)
    if workload == "matrix":
        def run():
            return _matrix_pass(orchestrator)
    else:
        from repro.net.fabric import build_workload

        plan = build_workload("saturation", FABRIC_ENDPOINTS, seed)

        def run():
            return _fabric_pass(orchestrator, plan)
    warmup = run()
    setup = {"setup_end": clock()}
    if tracer is not None:
        setup["layers"] = tracer.end_pass()
        tracer.uninstall()

    spans_after_setup = tracer.span_count() if tracer is not None else 0
    passes = []
    # Traced runs time a third of the budget untraced, the rest traced.
    untraced_budget = seconds / 3.0 if trace else seconds
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < untraced_budget:
        out, record = timed_pass(run)
        record.update(out)
        passes.append(record)
    if tracer is not None:
        stray = tracer.span_count() - spans_after_setup
        if stray:
            raise RuntimeError("wrappers outlived uninstall: %d stray spans"
                               % stray)
        tracer.install()
        first = len(passes)
        try:
            while len(passes) == first \
                    or time.perf_counter() - started < seconds:
                out, record = timed_pass(run, tracer)
                record.update(out)
                record["traced"] = True
                passes.append(record)
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(
            os.environ["PERFBENCH_WORK"], "spans", "warm-%s" % workload))
    setup["rss_mb"] = rss_mb()
    setup["warmup_digest"] = warmup["digest"]
    setup["passes"] = passes
    return setup


def calibrated(result, sampler):
    """Replace clock readings by seconds: ``setup_s`` / ``cpu_s`` are raw
    CPU with the kernel's samples taken out, ``setup_ref_s`` / ``ref_s``
    the same at the reference host's speed."""
    end = result.pop("setup_end")
    result["setup_s"] = end - sampler.kernel_s(0.0, end)
    result["setup_ref_s"] = sampler.reference_s(0.0, end)
    if "layers" in result:
        _rescale(result["layers"], result["setup_ref_s"] / end)
    for record in result["passes"]:
        start, end = record.pop("clock")
        record["cpu_s"] = end - start - sampler.kernel_s(start, end)
        record["ref_s"] = sampler.reference_s(start, end)
        if "layers" in record:
            _rescale(record["layers"], record["ref_s"] / (end - start))
    return result


def _rescale(layers, factor):
    """Kernel samples land in layers in proportion to their CPU, so one
    factor takes them out and rescales to the reference speed."""
    layers["self_s"] = {name: seconds * factor
                        for name, seconds in layers["self_s"].items()}


def main(argv):
    mode = argv[0]
    trace = "--trace" in argv
    args = [arg for arg in argv[1:] if arg != "--trace"]
    if mode == "prepare":
        result = prepare(args[0])
    elif mode in ("cold", "warm"):
        sampler = Sampler()
        sampler.start()
        try:
            if mode == "cold":
                result = cold(args[0], trace, sampler)
            else:
                result = warm(args[0], args[1], int(args[2]), float(args[3]),
                              trace)
        finally:
            sampler.stop()
        # Every reading is of the main thread's clock: fail loudly if
        # another thread did a measurable share of the work.
        others = time.process_time() - clock()
        if others > 0.05 + 0.02 * clock():
            raise RuntimeError("%.2fs of CPU ran outside the main thread"
                               % others)
        result = calibrated(result, sampler)
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
