"""Supervised persistent-process pool.

``pool.map`` over a :class:`ProcessPoolExecutor` has exactly the failure
modes RevNIC's own drivers are hardened against: one crashed worker
abandons the whole pool, one hung worker blocks ``map`` forever, and a
garbage result propagates as a parse error far from its cause.
:class:`SupervisedPool` replaces it with an explicit supervisor over
persistent spawned workers.  Every job gets a **per-job timeout**, a
**bounded retry budget with deterministic backoff**, result validation,
and classified failure accounting in a
:class:`~repro.faults.report.ResilienceReport`.  Jobs that exhaust the
budget are returned to the caller for **per-job** serial fallback -- a
single bad job never forces healthy jobs to recompute.

Each worker serves job after job over a duplex pipe, across every
:meth:`SupervisedPool.run` of the pool's life.  A batch is one FIFO
queue that any idle worker takes its next job from, so one slow job
holds only its own worker.  A crashed or timed-out worker is respawned
on demand.

The pool is also the worker-layer fault-injection point: a
:class:`~repro.faults.plan.FaultSpec` mapped to a job label is delivered
to the worker with that job, which then kills itself, hangs, or
substitutes garbage -- the exact hostile behaviors the
retry/timeout/validation path must absorb.
"""

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque

#: Environment variable: per-job wall-clock budget in seconds.
TIMEOUT_ENV = "REVNIC_JOB_TIMEOUT"
DEFAULT_TIMEOUT = 300.0

#: Environment variable: retry budget (re-launches after the first try).
RETRIES_ENV = "REVNIC_JOB_RETRIES"
DEFAULT_RETRIES = 2

#: Deterministic backoff before re-launching attempt N+1 after attempt N
#: failed: BASE * 2**(N-1), capped.  No jitter -- chaos replay depends on
#: the schedule being a pure function of the fault plan.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

_POLL_SECONDS = 0.05


#: Every worker is a spawned, fresh interpreter.
_CONTEXT = multiprocessing.get_context("spawn")


class PoolUnavailable(Exception):
    """No worker could be started (restricted environments); every
    unfinished job goes back to the caller."""


def backoff_delay(attempt):
    """Seconds to wait before re-launching after 1-based ``attempt``."""
    return min(BACKOFF_BASE * (2 ** (attempt - 1)), BACKOFF_CAP)


def default_timeout():
    value = os.environ.get(TIMEOUT_ENV)
    if value:
        try:
            parsed = float(value)
            return parsed if parsed > 0 else None
        except ValueError:
            pass
    return DEFAULT_TIMEOUT


def default_retries():
    value = os.environ.get(RETRIES_ENV)
    if value:
        try:
            return max(0, int(value))
        except ValueError:
            pass
    return DEFAULT_RETRIES


def _describe(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def _child_main(conn, run_job):
    """Worker process: answer every ``(job, fault)`` request with
    ``("ok", payload)`` or ``("error", description)`` until the parent
    closes the pipe."""
    from repro.faults.inject import apply_worker_fault

    while True:
        try:
            job, fault = conn.recv()
        except (EOFError, OSError):
            break
        try:
            payload = apply_worker_fault(fault)
            if payload is None:
                payload = run_job(job, fault)
            reply = ("ok", payload)
        except Exception as exc:
            reply = ("error", _describe(exc))
        try:
            conn.send(reply)
        except OSError:
            break
    conn.close()


class SupervisedPool:
    """Persistent spawned workers under one dispatch/timeout/retry loop.

    ``run_job`` is called in a worker as ``run_job(job, fault)`` and
    must be picklable by reference (module level).  ``workers`` defaults
    to min(first batch size, CPU count); ``timeout`` and ``retries``
    default to the ``REVNIC_JOB_TIMEOUT`` / ``REVNIC_JOB_RETRIES``
    environment budgets.
    """

    def __init__(self, run_job, workers=None, timeout=None, retries=None):
        self._run_job = run_job
        self.workers = workers
        self.timeout = default_timeout() if timeout is None \
            else (timeout or None)
        self.retries = default_retries() if retries is None else retries
        self._procs = []
        self._conns = []
        self._broken = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, slot):
        """Start a worker in ``slot``; False when it cannot be started,
        :class:`PoolUnavailable` when no worker is left at all."""
        try:
            parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
            process = _CONTEXT.Process(target=_child_main,
                                       args=(child_conn, self._run_job),
                                       daemon=True)
            process.start()
        except Exception as exc:
            if all(conn is None for conn in self._conns):
                raise PoolUnavailable(str(exc))
            return False
        child_conn.close()
        self._procs[slot] = process
        self._conns[slot] = parent_conn
        return True

    def _retire(self, slot, kill=False):
        process, conn = self._procs[slot], self._conns[slot]
        self._procs[slot] = self._conns[slot] = None
        if conn is not None:
            conn.close()
        if process is not None:
            if kill:
                process.kill()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)

    def close(self):
        """Stop every worker (closing its pipe ends its serve loop)."""
        for slot in range(len(self._procs)):
            self._retire(slot)

    # -- batch execution -----------------------------------------------

    def run(self, jobs, labels, faults, validate, report):
        """Run every job; returns ``(results, failures)``.

        ``labels`` names each job in ``report`` and keys ``faults``
        (label -> :class:`FaultSpec`; only worker- and run-layer specs
        are delivered).  ``validate`` (payload -> value,
        raising on garbage) gates every result.  ``results`` maps job
        index to the validated value, ``failures`` maps every other index
        to a classification string -- the caller owns their per-job
        serial fallback.  When no worker can be started, the pool records
        a ``"pool"`` degradation and hands every unfinished job back as
        ``"unavailable"``.
        """
        count = len(jobs)
        if not self._procs:
            self.workers = max(1, int(self.workers
                                      or min(count, os.cpu_count() or 1)))
            self._procs = [None] * self.workers
            self._conns = [None] * self.workers
        results = {}
        failures = {}
        attempts = [0] * count
        queue = deque(range(count))
        retry_pending = []      # (not_before, index)
        busy = {}               # slot -> (index, deadline)

        def take_job():
            if queue:
                return queue.popleft()
            now = time.monotonic()
            ready = [item for item in retry_pending if item[0] <= now]
            if ready:
                item = min(ready)
                retry_pending.remove(item)
                return item[1]
            return None

        def fault_for(index):
            spec = faults.get(labels[index])
            if spec is not None and spec.layer in ("worker", "run") \
                    and spec.fires_on(attempts[index]):
                return spec.to_dict()
            return None

        def fail_attempt(index, kind, detail):
            label = labels[index]
            report.record_attempt(label, attempts[index],
                                  event="%s (attempt %d): %s"
                                  % (kind, attempts[index], detail))
            if attempts[index] <= self.retries:
                retry_pending.append(
                    (time.monotonic() + backoff_delay(attempts[index]),
                     index))
            else:
                failures[index] = kind
                report.record_outcome(label, "pool-failed:%s" % kind)

        def dispatch():
            for slot in range(self.workers):
                if slot in busy:
                    continue
                index = take_job()
                if index is None:
                    break
                if self._conns[slot] is None and not self._spawn(slot):
                    queue.appendleft(index)
                    continue
                attempts[index] += 1
                try:
                    self._conns[slot].send((jobs[index], fault_for(index)))
                except OSError:
                    self._retire(slot, kill=True)
                    report.worker_crashes += 1
                    fail_attempt(index, "crash", "worker pipe closed")
                    continue
                deadline = (time.monotonic() + self.timeout) \
                    if self.timeout else None
                busy[slot] = (index, deadline)

        def collect(slot, index, deadline, now):
            """Settle ``slot``'s job if it replied, died or timed out;
            returns False while it is still running."""
            conn = self._conns[slot]
            if conn.poll():
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    self._retire(slot)
                    report.worker_crashes += 1
                    fail_attempt(index, "crash",
                                 "worker closed pipe without result")
                    return True
                if kind == "error":
                    report.run_faults += 1
                    fail_attempt(index, "error", payload)
                    return True
                try:
                    value = validate(payload)
                except Exception as exc:
                    report.garbage_results += 1
                    fail_attempt(index, "garbage", str(exc))
                    return True
                results[index] = value
                report.record_attempt(labels[index], attempts[index])
                report.record_outcome(labels[index], "pool")
            elif not self._procs[slot].is_alive():
                exitcode = self._procs[slot].exitcode
                self._retire(slot)
                report.worker_crashes += 1
                fail_attempt(index, "crash",
                             "worker died (exit %r)" % (exitcode,))
            elif deadline is not None and now > deadline:
                self._retire(slot, kill=True)
                report.timeouts += 1
                fail_attempt(index, "timeout",
                             "exceeded %.1fs job budget" % self.timeout)
            else:
                return False
            return True

        try:
            if self._broken:
                raise PoolUnavailable(self._broken)
            # Start every idle slot up front: the workers import the
            # package in parallel before the first job is waiting.
            for slot in range(self.workers):
                if self._conns[slot] is None:
                    self._spawn(slot)
            while len(results) + len(failures) < count:
                dispatch()
                if not busy:
                    # What is left waits out a retry backoff.
                    if retry_pending:
                        next_ready = min(item[0] for item in retry_pending)
                        time.sleep(max(0.0, min(next_ready
                                                - time.monotonic(),
                                                BACKOFF_CAP)))
                    continue
                multiprocessing.connection.wait(
                    [self._conns[slot] for slot in busy],
                    timeout=_POLL_SECONDS)
                now = time.monotonic()
                for slot, (index, deadline) in list(busy.items()):
                    if collect(slot, index, deadline, now):
                        del busy[slot]
        except PoolUnavailable as exc:
            self._broken = str(exc)
            report.record_degradation("pool", "pool unavailable: %s" % exc)
            for index in range(count):
                if index not in results:
                    failures.setdefault(index, "unavailable")
            self.close()
        finally:
            for slot in busy:
                self._retire(slot, kill=True)
        return results, failures
