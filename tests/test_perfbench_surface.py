"""The library surface the benchmark harness (``perfbench/``) relies on.

``perfbench/tracer.py`` patches named functions and methods at every
layer boundary, and ``perfbench/worker.py`` reads the library's
deterministic counters on every pass.  A refactor under ``src/`` that
renames or drops one of those names would otherwise surface only when
the benchmark runs; these tests load the harness files from their paths,
unedited, and fail in well under a second instead.
"""

import importlib.util
import os
import sys

import pytest

_PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

#: Sibling modules ``worker.py`` imports by bare name once it has put its
#: own directory on ``sys.path``.
_SIBLINGS = ("calibrate", "tracer")


@pytest.fixture()
def load(monkeypatch):
    """Load a ``perfbench/`` file as a fresh module, undoing the
    ``sys.path`` entry and sibling imports the worker leaves behind (and
    writing no bytecode next to the harness)."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    present = {name for name in _SIBLINGS if name in sys.modules}

    def _load(name):
        spec = importlib.util.spec_from_file_location(
            "perfbench_" + name, os.path.join(_PERFBENCH, name + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield _load
    for name in _SIBLINGS:
        if name not in present:
            sys.modules.pop(name, None)


def _definition(module_name, attr):
    """The object ``attr`` names in ``module_name``'s (or its class's)
    own namespace -- what the tracer replaces and must put back."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        class_name, attr = attr.split(".")
        owner = getattr(owner, class_name)
    return vars(owner).get(attr)


def test_tracer_resolves_every_wrap_point(load):
    tracer = load("tracer")
    points = [(module_name, attr)
              for _layer, module_name, attrs in tracer.WRAP_POINTS
              for attr in attrs]
    originals = {point: _definition(*point) for point in points}
    missing = [point for point, value in originals.items() if value is None]
    assert not missing, "wrap points the library no longer defines: %r" \
        % missing

    instance = tracer.Tracer()
    instance.install()
    try:
        assert len(instance._saved) == len(points)
        for point in points:
            assert _definition(*point) is not originals[point]
    finally:
        instance.uninstall()
    for point in points:
        assert _definition(*point) is originals[point], \
            "uninstall did not restore %s.%s" % point


def test_worker_counters_cover_the_benchmark_metrics(load):
    worker = load("worker")
    run = load("run")
    snapshot = worker.counters()
    assert all(isinstance(value, int) for value in snapshot.values())
    missing = sorted(set(run.COUNTERS.values()) - set(snapshot))
    assert not missing, "counters the benchmark reports but the library " \
        "no longer exposes: %r" % missing
