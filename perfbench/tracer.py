"""Outside-in layer tracer for the benchmark's traced runs.

The tracer never edits the library: it replaces public functions and
methods at each layer boundary with wrappers that record one span per
call -- layer, start, end and parent span -- in flat in-memory arrays,
and puts the originals back on :meth:`Tracer.uninstall`.  Each name is
patched where its caller looks it up (a function imported by name into
another module is patched in that module too), so no call slips past a
wrapper that was installed before the caller's objects were built.

Span clocks are thread CPU seconds (``time.thread_time``): the library
runs serially in the main thread, and the process-wide clock moves in
4 ms steps while the calibration sampler's timer is armed (see
``calibrate.py``).  A layer's *self* time is its spans' duration minus
the part covered by their child spans; :func:`self_times` does that
arithmetic, and the benchmark's self-test checks it on a synthetic tree.
Garbage-collector pauses become spans of their own (through
``gc.callbacks``), so they are charged to ``gc.pause`` instead of to
whatever layer happened to allocate.  They are kept in arrays of their
own until the pass ends: a collection can start between two of a
wrapper's appends (a signal handler allocates), and must not land
between them.

The wrappers are not free: the vm.bus / vm.memory / hw boundaries are
crossed hundreds of thousands of times per fabric pass, which is why
the end-to-end metrics always come from an untraced run and traced runs
report ``trace.overhead`` beside their shares.
"""

import functools
import gc
import importlib
import json
import os
import time
from array import array

CLOCK = time.thread_time

#: Span-producing wrap points: (layer, module, names).  A name is either
#: ``function`` or ``Class.method``; every one must exist, so a rename in
#: the library fails the traced run loudly instead of silently leaving a
#: layer untimed.
WRAP_POINTS = (
    # -- reverse-engineering pipeline (revnic_cold_*) --------------------
    ("revnic.run", "repro.revnic.engine", ("RevNic.__init__", "RevNic.run")),
    ("symex.step", "repro.symex.executor", ("SymExecutor.step",)),
    ("dbt.translate", "repro.dbt.translator", ("translate_block",)),
    ("solver.search", "repro.symex.solver",
     ("Solver.check_context", "Solver.concretize_context",
      "Solver.find_model")),
    # compiled() and compiled_conjunction() look the compiler up as a
    # module global at call time, so one patch covers both.
    ("expr.compile", "repro.symex.expr", ("_compile_program",)),
    ("osbridge.handle", "repro.revnic.osbridge", ("SymOsBridge.handle",)),
    ("wiretap.record", "repro.revnic.wiretap",
     ("Wiretap.on_block", "Wiretap.on_import", "Wiretap.on_fork")),
    # execute_run imports synthesize from the package at call time.
    ("synth.synthesize", "repro.synth", ("synthesize",)),
    ("synth.synthesize", "repro.synth.module", ("synthesize",)),
    # -- artifact store (matrix_warm / fabric_saturation set-up) ---------
    ("store.load", "repro.pipeline.store", ("ArtifactStore.load",)),
    ("artifact.decode", "repro.pipeline.store", ("artifact_from_dict",)),
    # -- validation matrix ------------------------------------------------
    ("validate.build_dut", "repro.validate.observe",
     ("OriginalDut.__init__", "SynthesizedDut.__init__")),
    ("validate.observe", "repro.validate.matrix", ("run_scenario",)),
    ("validate.classify", "repro.validate.matrix",
     ("classify_observations",)),
    # -- the original binary on the source-OS harness ---------------------
    ("guestos.harness", "repro.guestos.harness",
     ("DriverHarness.__init__", "DriverHarness.boot", "DriverHarness.halt",
      "DriverHarness.reset", "DriverHarness.send", "DriverHarness.inject_rx",
      "DriverHarness.set_packet_filter", "DriverHarness.enable_promiscuous",
      "DriverHarness.query_mac", "DriverHarness.set_mac",
      "DriverHarness.set_multicast_list", "DriverHarness.set_full_duplex",
      "DriverHarness.enable_wake_on_lan", "DriverHarness.set_led",
      "DriverHarness.query_link_speed")),
    ("guestos.harness", "repro.guestos.ndis",
     ("NdisEnv.invoke", "NdisEnv.service_interrupts", "NdisEnv.fire_timers")),
    # -- the synthesized driver in its target-OS template -----------------
    ("templates.op", "repro.templates.base",
     ("NicTemplate.__init__", "NicTemplate.initialize", "NicTemplate.shutdown",
      "NicTemplate.reset", "NicTemplate.send", "NicTemplate.inject_rx",
      "NicTemplate.service_interrupts", "NicTemplate.fire_timers",
      "NicTemplate.set_packet_filter", "NicTemplate.query_mac",
      "NicTemplate.set_mac", "NicTemplate.set_multicast_list",
      "NicTemplate.set_full_duplex", "NicTemplate.enable_wake_on_lan",
      "NicTemplate.set_led", "NicTemplate.query_link_speed",
      "DmaNicTemplate.initialize")),
    ("synth.run_function", "repro.synth.module",
     ("SynthesizedDriver.run_function",)),
    ("targetos.call", "repro.targetos.base",
     ("TargetOs.call", "TargetOs.deliver_frame_up", "TargetOs.alloc")),
    # -- guest bus, memory and device models -------------------------------
    ("vm.bus", "repro.vm.bus",
     ("Bus.io_read", "Bus.io_write", "Bus.mem_read", "Bus.mem_write",
      "Bus.dma_read", "Bus.dma_write")),
    ("vm.memory", "repro.vm.memory",
     ("Memory.read", "Memory.write", "Memory.read_bytes",
      "Memory.write_bytes")),
    ("hw.device", "repro.hw.base",
     ("NicDevice.transmit", "NicDevice.receive_frame", "NicDevice.reset",
      "NicDevice.io_read", "NicDevice.io_write", "NicDevice.mmio_read",
      "NicDevice.mmio_write")),
    ("hw.device", "repro.hw.ne2000",
     ("Ne2000Device.reset", "Ne2000Device.io_read", "Ne2000Device.io_write",
      "Ne2000Device.receive_frame")),
    ("hw.device", "repro.hw.pcnet",
     ("PcnetDevice.reset", "PcnetDevice.io_read", "PcnetDevice.io_write",
      "PcnetDevice.receive_frame")),
    ("hw.device", "repro.hw.rtl8139",
     ("Rtl8139Device.reset", "Rtl8139Device.io_read",
      "Rtl8139Device.io_write", "Rtl8139Device.receive_frame")),
    ("hw.device", "repro.hw.smc91c111",
     ("Smc91c111Device.reset", "Smc91c111Device.mmio_read",
      "Smc91c111Device.mmio_write", "Smc91c111Device.receive_frame")),
    # -- switched fabric ----------------------------------------------------
    ("fabric.switch", "repro.net.fabric.switch",
     ("SwitchNode.switch_batch", "SwitchNode.drain", "SwitchNode.expire")),
    ("fabric.endpoint", "repro.net.fabric.endpoint",
     ("FabricEndpoint.boot", "FabricEndpoint.run_due",
      "FabricEndpoint.harvest", "FabricEndpoint.deliver")),
)

#: Layer of the per-pass root span (its self time is what no layer
#: covered) and of garbage-collector pauses.
ROOT_LAYER = "pass"
GC_LAYER = "gc.pause"


def layer_names():
    """Every layer a span can carry, root first, in a stable order."""
    names = [ROOT_LAYER, GC_LAYER]
    for layer, _module, _attrs in WRAP_POINTS:
        if layer not in names:
            names.append(layer)
    return names


def self_times(layers, parents, starts, ends, layer_count):
    """Per-layer ``(self seconds, span count)`` lists from flat span arrays.

    Span ``i`` has layer index ``layers[i]``, parent span index
    ``parents[i]`` (``-1`` for none) and the interval ``[starts[i],
    ends[i]]``.  A span's self time is its duration minus its direct
    children's durations; summing self times per layer attributes every
    covered second exactly once.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    seconds = [0.0] * layer_count
    counts = [0] * layer_count
    for index, layer in enumerate(layers):
        seconds[layer] += own[index]
        counts[layer] += 1
    return seconds, counts


class Tracer:
    """Records layer spans while installed; one root span per pass."""

    def __init__(self):
        self.names = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self._saved = []
        self._reset()

    def _reset(self):
        self.layers = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.gc_parents = array("i")
        self.gc_starts = array("d")
        self.gc_ends = array("d")
        # The sentinel -1 is the parent of every top-level span.
        self.stack = [-1]

    # -- span recording -------------------------------------------------

    def _wrap(self, function, layer):
        layer_id = self._index[layer]
        clock = CLOCK
        layers, parents = self.layers, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # No gc-tracked allocation happens between these appends, so
            # a collection (and its gc span) cannot interleave with them.
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            starts.append(clock())
            index = len(starts) - 1
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _on_gc(self, phase, _info):
        if phase == "start":
            self.gc_parents.append(self.stack[-1])
            self.gc_starts.append(CLOCK())
        elif len(self.gc_ends) < len(self.gc_starts):
            self.gc_ends.append(CLOCK())

    # -- installation ---------------------------------------------------

    def install(self):
        """Patch every wrap point and hook the garbage collector."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, attrs in WRAP_POINTS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                owner, name = module, attr
                if "." in attr:
                    class_name, name = attr.split(".")
                    owner = getattr(module, class_name)
                    if name not in vars(owner):
                        raise AttributeError("%s.%s defines no %s"
                                             % (module_name, class_name, name))
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        """Put every original back and unhook the garbage collector."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- passes -----------------------------------------------------------

    def begin_pass(self):
        """Drop the previous pass's spans and open this pass's root."""
        self.layers[:] = array("i")
        self.parents[:] = array("i")
        self.starts[:] = array("d")
        self.ends[:] = array("d")
        for column in (self.gc_parents, self.gc_starts, self.gc_ends):
            del column[:]
        del self.stack[1:]
        self.layers.append(self._index[ROOT_LAYER])
        self.parents.append(-1)
        self.ends.append(0.0)
        self.starts.append(CLOCK())
        self.stack.append(0)

    def end_pass(self):
        """Close the root span; returns the pass's layer summary:
        ``{"cpu_s", "coverage", "self_s": {layer: s},
        "calls": {layer: n}}``."""
        self.ends[0] = CLOCK()
        if self.stack != [-1, 0]:
            raise RuntimeError("unbalanced spans at pass end: %r"
                               % self.stack[1:])
        self.stack.pop()
        gc_layer = self._index[GC_LAYER]
        for parent, start, end in zip(self.gc_parents, self.gc_starts,
                                      self.gc_ends):
            self.layers.append(gc_layer)
            self.parents.append(parent)
            self.starts.append(start)
            self.ends.append(end)
        seconds, counts = self_times(self.layers, self.parents, self.starts,
                                     self.ends, len(self.names))
        total = self.ends[0] - self.starts[0]
        root = self._index[ROOT_LAYER]
        return {
            "cpu_s": total,
            "coverage": 1.0 - seconds[root] / total if total > 0 else 0.0,
            "self_s": {name: seconds[i] for i, name in enumerate(self.names)
                       if i != root},
            "calls": {name: counts[i] for i, name in enumerate(self.names)
                      if i != root},
        }

    def span_count(self):
        return len(self.starts)

    def write_spans(self, path):
        """Write the current pass's spans: ``<path>.json`` describes the
        layout, ``<path>.bin`` holds the four arrays back to back."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as handle:
            for column in (self.layers, self.parents, self.starts,
                           self.ends):
                column.tofile(handle)
        meta = {"layers": self.names, "spans": len(self.starts),
                "columns": [["layer", "int32"], ["parent", "int32"],
                            ["start_cpu_s", "float64"],
                            ["end_cpu_s", "float64"]]}
        with open(path + ".json", "w") as handle:
            json.dump(meta, handle, indent=1)
