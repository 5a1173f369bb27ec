"""Applying fault schedules: the mechanics of breaking things on purpose.

Two entry points, one per layer:

* :func:`maybe_raise_run_fault` is consulted by
  :func:`repro.pipeline.orchestrator.execute_run` between pipeline
  stages: it raises the induced, classified exception
  (:class:`GuestOsError` / :class:`SolverError`) the schedule asks for;
* :func:`corrupt_store_entry` vandalizes one entry of an on-disk
  :class:`~repro.pipeline.store.ArtifactStore` deterministically --
  truncation, a single flipped bit, an orphaned temp file, or a publish
  crashed mid-``os.replace``.

Everything here is deterministic given the fault spec and the store
contents; nothing reads a clock or an unseeded RNG.
"""

import os

from repro.errors import GuestOsError, SolverError


def _spec_dict(fault):
    """Accept either a FaultSpec or its dict form (as a serialized plan
    carries it)."""
    return fault.to_dict() if hasattr(fault, "to_dict") else fault


def maybe_raise_run_fault(fault, stage):
    """Raise the induced run-layer exception when ``fault`` targets
    ``stage`` (called between pipeline stages in ``execute_run``)."""
    fault = _spec_dict(fault)
    if fault is None or fault.get("layer") != "run":
        return
    params = fault.get("params", {})
    if params.get("stage", "revnic") != stage:
        return
    kind = fault["kind"]
    if kind == "guest_os_error":
        raise GuestOsError("injected fault: guest OS failure during %s"
                           % stage)
    if kind == "solver_budget":
        raise SolverError("injected fault: solver budget exhausted "
                          "during %s" % stage)
    raise ValueError("unknown run fault kind %r" % (kind,))


def corrupt_store_entry(store, fault, key):
    """Apply a store-layer fault to the entry of ``store`` under ``key``.

    Returns a record dict describing what was done (``None`` when the
    store holds no such entry and there is nothing to corrupt).
    """
    fault = _spec_dict(fault)
    if fault is None or fault.get("layer") != "store":
        return None
    kind = fault["kind"]
    params = fault.get("params", {})
    salt = params.get("salt", 0)
    if key not in store.keys():
        return None
    path = store.path_for(key)
    with open(path, "rb") as handle:
        original = handle.read()
    record = {"kind": kind, "key": key}

    if kind == "truncate":
        keep = int(len(original) * params.get("keep_fraction", 0.5))
        with open(path, "wb") as handle:
            handle.write(original[:keep])
        record["kept_bytes"] = keep
    elif kind == "bitflip":
        if original:
            offset = salt % len(original)
            flipped = bytearray(original)
            flipped[offset] ^= 1 << (salt % 8)
            with open(path, "wb") as handle:
                handle.write(bytes(flipped))
            record["offset"] = offset
    elif kind == "orphan_tmp":
        # A writer that died after writing its temp file but before
        # os.replace: the entry itself is intact, the orphan must be
        # swept by ArtifactStore.recover().
        tmp_path = os.path.join(store.directory, "crash-%08x.tmp" % salt)
        with open(tmp_path, "wb") as handle:
            handle.write(original[:max(1, len(original) // 2)])
        record["orphan"] = os.path.basename(tmp_path)
    elif kind == "partial_publish":
        # A publish crashed mid-flight: the temp file holds the full
        # payload but the rename never landed, and the destination is
        # gone (first publish of this key).  Load must miss cleanly and
        # recovery must sweep the orphan.
        tmp_path = os.path.join(store.directory, "crash-%08x.tmp" % salt)
        os.replace(path, tmp_path)
        record["orphan"] = os.path.basename(tmp_path)
    else:
        raise ValueError("unknown store fault kind %r" % (kind,))
    return record
