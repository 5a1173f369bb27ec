"""Serializable run artifacts: the pipeline's cross-process interface.

A :class:`RunArtifact` captures everything downstream consumers (tables,
figures, the performance model, functional tests) actually use from one
reverse-engineering run -- the activity trace with its translated-block
IR, the coverage timeline, discovered entry points, run statistics, DMA
regions, import names, the captured code window, and the complete
synthesis output (recovered functions, C source, report, executable block
map).  No consumer ever touches a live :class:`~repro.revnic.engine.RevNic`
engine.

The JSON codec is versioned and *canonical*: encoding is a deterministic
function of the run's outputs (interned expression DAGs and shared
translation blocks are emitted once, in traversal order; all sets are
sorted), so a fresh run and a cache round-trip of the same driver
produce byte-identical canonical JSON.  The only non-deterministic
values are wall-clock timings (the run's seconds and each coverage
sample's); they live under the document's one top-level ``volatile``
section, which :func:`canonical_json` drops and :func:`to_json` keeps
for Table 4 and Figure 8.  Fuzz campaigns and fabric reports follow the
same rule, so :func:`stable_dumps` is the one function that decides what
a byte comparison ignores.
"""

import json

from repro.dbt.translator import CodeWindow
from repro.errors import ArtifactError
from repro.ir import nodes as N
from repro.revnic.coverage import CoverageTracker
from repro.revnic.engine import RevNicResult
from repro.revnic.trace import (BlockRecord, ImportRecord, PathTrace, Trace,
                                TraceSegment)
from repro.symex.expr import Expr
from repro.symex.executor import MemAccess
from repro.synth.cfg import RecoveredFunction
from repro.synth.module import SynthesizedDriver
from repro.synth.report import FunctionSummary, SynthesisReport

#: Bump on any incompatible change to the encoding below.  Loads of a
#: different version are rejected (the on-disk cache treats them as
#: misses), never migrated.  v2: run stats gained a volatile section of
#: persistent compiled-code cache outcomes.  v3: dropped that section
#: together with the persistent code cache.  v4: run stats gained the
#: ``solver_unknown``/``solver_unsat`` verdict counts, and the solver's
#: random fallback went, which moves trace and eval counters.  v5: the
#: ``config`` map lost ``explore_split_depth`` together with partitioned
#: exploration.  v6: the wall-clock values moved under the top-level
#: ``volatile`` section (``wall_seconds`` out of ``stats``, the seconds
#: out of each coverage-timeline sample, which became a
#: ``[blocks, fraction]`` pair).
SCHEMA_VERSION = 6

#: The top-level key of every byte-compared document (run artifacts,
#: fuzz campaigns, fabric reports) that holds its non-deterministic
#: values; :func:`stable_dumps` drops it.
VOLATILE = "volatile"


class RunArtifact:
    """One driver's reverse-engineering run and synthesis output.

    ``trace`` may be constructed lazily (deserialized artifacts defer
    decoding the activity trace -- by far the codec's largest section --
    until a consumer actually walks it, and store loads defer even
    reading it; tables, figures, porting and validation need only
    ``synthesized``, ``coverage`` and ``stats``, which keeps a warm
    cache load fast and small).
    """

    def __init__(self, driver, strategy, script, config, trace, coverage,
                 entry_points, stats, dma_regions, import_names, code,
                 synthesized, schema=SCHEMA_VERSION, source="computed"):
        self.driver = driver
        self.strategy = strategy
        self.script = script
        #: canonical RevNicConfig dict (part of the cache key)
        self.config = config
        if callable(trace):
            self._trace = None
            self._trace_thunk = trace
        else:
            self._trace = trace
            self._trace_thunk = None
        self.coverage = coverage
        self.entry_points = entry_points
        self.stats = stats
        self.dma_regions = dma_regions
        self.import_names = import_names
        self.code = code
        self.synthesized = synthesized
        self.schema = schema
        #: where this artifact came from: 'computed' or 'disk-cache'
        self.source = source

    # -- consumer conveniences -----------------------------------------

    @property
    def trace(self):
        if self._trace is None:
            self._trace = self._trace_thunk()
            self._trace_thunk = None
        return self._trace

    @property
    def name(self):
        return self.driver

    @property
    def coverage_fraction(self):
        return self.coverage.fraction

    @property
    def report(self):
        return self.synthesized.report

    @property
    def image(self):
        """The (deterministically rebuilt) original driver binary."""
        from repro.drivers import build_driver

        return build_driver(self.driver)

    @property
    def result(self):
        """A :class:`RevNicResult` view over the artifact's run data."""
        return RevNicResult(trace=self.trace, coverage=self.coverage,
                            entry_points=self.entry_points,
                            stats=self.stats, dma_regions=self.dma_regions,
                            import_names=self.import_names, code=self.code)


def build_artifact(config, result, synthesized, source="computed"):
    """Assemble a :class:`RunArtifact` from live pipeline outputs."""
    from dataclasses import asdict

    config_dict = asdict(config)
    return RunArtifact(
        driver=config.driver_name,
        strategy=config.strategy,
        script=config.script,
        config=config_dict,
        trace=result.trace,
        coverage=result.coverage,
        entry_points=dict(result.entry_points),
        stats=result.stats,
        dma_regions=[tuple(r) for r in result.dma_regions],
        import_names=dict(result.import_names),
        code=result.code,
        synthesized=synthesized,
        source=source,
    )


# ==========================================================================
# Encoding

_OP_ENCODERS = {
    N.IrConst: lambda op: ["const", op.dst, op.value],
    N.IrGetReg: lambda op: ["getreg", op.dst, op.reg],
    N.IrSetReg: lambda op: ["setreg", op.reg, op.src],
    N.IrBin: lambda op: ["bin", op.dst, op.kind.value, op.a, op.b],
    N.IrNot: lambda op: ["not", op.dst, op.a],
    N.IrNeg: lambda op: ["neg", op.dst, op.a],
    N.IrCmp: lambda op: ["cmp", op.dst, op.kind.value, op.a, op.b],
    N.IrLoad: lambda op: ["load", op.dst, op.addr, op.width],
    N.IrStore: lambda op: ["store", op.addr, op.src, op.width],
    N.IrIn: lambda op: ["in", op.dst, op.port, op.width],
    N.IrOut: lambda op: ["out", op.port, op.src, op.width],
    N.IrJump: lambda op: ["jump", op.target, 1 if op.indirect else 0],
    N.IrCondJump: lambda op: ["condjump", op.cond, op.target,
                              op.fallthrough],
    N.IrCall: lambda op: ["call", op.target, 1 if op.indirect else 0,
                          op.return_pc],
    N.IrRet: lambda op: ["ret", op.addr, op.cleanup],
    N.IrHalt: lambda op: ["halt"],
}

_OP_DECODERS = {
    "const": lambda f: N.IrConst(f[0], f[1]),
    "getreg": lambda f: N.IrGetReg(f[0], f[1]),
    "setreg": lambda f: N.IrSetReg(f[0], f[1]),
    "bin": lambda f: N.IrBin(f[0], N.BinKind(f[1]), f[2], f[3]),
    "not": lambda f: N.IrNot(f[0], f[1]),
    "neg": lambda f: N.IrNeg(f[0], f[1]),
    "cmp": lambda f: N.IrCmp(f[0], N.CmpKind(f[1]), f[2], f[3]),
    "load": lambda f: N.IrLoad(f[0], f[1], f[2]),
    "store": lambda f: N.IrStore(f[0], f[1], f[2]),
    "in": lambda f: N.IrIn(f[0], f[1], f[2]),
    "out": lambda f: N.IrOut(f[0], f[1], f[2]),
    "jump": lambda f: N.IrJump(f[0], bool(f[1])),
    "condjump": lambda f: N.IrCondJump(f[0], f[1], f[2]),
    "call": lambda f: N.IrCall(f[0], bool(f[1]), f[2]),
    "ret": lambda f: N.IrRet(f[0], f[1]),
    "halt": lambda f: N.IrHalt(),
}


class _Encoder:
    """Shared-structure encoder: expression DAG nodes and translation
    blocks are interned into tables and referenced by index, preserving
    sharing and keeping artifacts compact."""

    def __init__(self):
        self.exprs = []
        self._expr_index = {}
        self.blocks = []
        self._block_index = {}
        self._block_content = {}

    # -- expressions ---------------------------------------------------

    def expr_ref(self, expr):
        """Index of ``expr`` in the expression table (emitting the DAG
        bottom-up on first encounter)."""
        index = self._expr_index.get(id(expr))
        if index is not None:
            return index
        stack = [expr]
        while stack:
            node = stack[-1]
            if id(node) in self._expr_index:
                stack.pop()
                continue
            pending = [a for a in node.args if isinstance(a, Expr)
                       and id(a) not in self._expr_index]
            if pending:
                stack.extend(pending)
                continue
            args = []
            for arg in node.args:
                if isinstance(arg, Expr):
                    args.append([1, self._expr_index[id(arg)]])
                else:
                    args.append([0, arg])
            self._expr_index[id(node)] = len(self.exprs)
            self.exprs.append([node.kind, node.width, args, node.name,
                               node.lo])
            stack.pop()
        return self._expr_index[id(expr)]

    def value(self, value):
        """Encode an int / None / Expr value slot."""
        if value is None or isinstance(value, int):
            return value
        if isinstance(value, Expr):
            return ["e", self.expr_ref(value)]
        raise ArtifactError("unencodable value %r" % (value,))

    # -- blocks --------------------------------------------------------

    def block_ref(self, block):
        index = self._block_index.get(id(block))
        if index is not None:
            return index
        encoded = {
            "pc": block.pc,
            "size": block.size,
            "instr_addrs": list(block.instr_addrs),
            "instr_spans": [list(span) for span in block.instr_spans],
            "ops": [self._op(op) for op in block.ops],
        }
        # Interning is keyed on *content*, with the id() map as a fast
        # path: equal blocks that reach the encoder as distinct objects
        # share one table entry, so the bytes never depend on object
        # identity.
        content = (encoded["pc"], encoded["size"],
                   tuple(encoded["instr_addrs"]),
                   tuple(tuple(span) for span in encoded["instr_spans"]),
                   tuple(tuple(op) for op in encoded["ops"]))
        index = self._block_content.get(content)
        if index is None:
            index = len(self.blocks)
            self._block_content[content] = index
            self.blocks.append(encoded)
        self._block_index[id(block)] = index
        return index

    def _op(self, op):
        encoder = _OP_ENCODERS.get(type(op))
        if encoder is None:
            raise ArtifactError("unencodable IR op %r" % (op,))
        return encoder(op)


class _Decoder:
    def __init__(self, exprs, blocks):
        # The table is topologically ordered (children first), so each
        # node only references already-decoded entries.
        self._exprs = []
        for node in exprs:
            self._exprs.append(self._decode_expr(node))
        self._blocks = [self._decode_block(b) for b in blocks]

    def _decode_expr(self, node):
        kind, width, args, name, lo = node
        decoded_args = []
        for tag, payload in args:
            if tag == 1:
                decoded_args.append(self._exprs[payload])
            else:
                decoded_args.append(payload)
        # The raw constructor interns; smart-constructor simplification
        # already happened before the artifact was written.
        return Expr(kind, width, tuple(decoded_args), name, lo)

    def _decode_block(self, encoded):
        ops = []
        for op in encoded["ops"]:
            decoder = _OP_DECODERS.get(op[0])
            if decoder is None:
                raise ArtifactError("unknown IR op tag %r" % (op[0],))
            ops.append(decoder(op[1:]))
        return N.TranslationBlock(
            pc=encoded["pc"], size=encoded["size"],
            instr_addrs=list(encoded["instr_addrs"]),
            ops=ops,
            instr_spans=[tuple(span) for span in encoded["instr_spans"]])

    def expr(self, index):
        return self._exprs[index]

    def block(self, index):
        return self._blocks[index]

    def value(self, encoded):
        if encoded is None or isinstance(encoded, int):
            return encoded
        if isinstance(encoded, list) and len(encoded) == 2 \
                and encoded[0] == "e":
            return self.expr(encoded[1])
        raise ArtifactError("undecodable value %r" % (encoded,))


# -- trace -----------------------------------------------------------------

def _encode_record(record, enc):
    # Register slots and access values are overwhelmingly plain ints (or
    # None); only genuine Expr values take the slow interning path.  This
    # is the hottest loop of the codec.
    value = enc.value
    if isinstance(record, BlockRecord):
        return ["B", record.seq, record.pc, enc.block_ref(record.block),
                [r if not isinstance(r, Expr) else value(r)
                 for r in record.regs_before],
                [r if not isinstance(r, Expr) else value(r)
                 for r in record.regs_after],
                [[a.kind, a.address, a.width,
                  a.value if not isinstance(a.value, Expr)
                  else value(a.value),
                  1 if a.is_write else 0] for a in record.accesses],
                record.terminator, record.target]
    if isinstance(record, ImportRecord):
        return ["I", record.seq, record.name,
                [value(a) for a in record.args], record.caller_pc]
    raise ArtifactError("unencodable trace record %r" % (record,))


def _decode_record(encoded, dec):
    # Mirror of _encode_record's fast path: anything list-shaped is an
    # expression reference, everything else decodes to itself.
    tag = encoded[0]
    value = dec.value
    if tag == "B":
        _, seq, pc, block_ref, before, after, accesses, term, target = \
            encoded
        return BlockRecord(
            seq=seq, pc=pc, block=dec.block(block_ref),
            regs_before=[r if type(r) is not list else value(r)
                         for r in before],
            regs_after=[r if type(r) is not list else value(r)
                        for r in after],
            accesses=[MemAccess(a[0], a[1], a[2],
                                a[3] if type(a[3]) is not list
                                else value(a[3]),
                                bool(a[4])) for a in accesses],
            terminator=term, target=target)
    if tag == "I":
        _, seq, name, args, caller_pc = encoded
        return ImportRecord(seq=seq, name=name,
                            args=tuple(value(a) for a in args),
                            caller_pc=caller_pc)
    raise ArtifactError("unknown trace record tag %r" % (tag,))


def _encode_trace(trace, enc):
    return {
        "driver_name": trace.driver_name,
        "text_base": trace.text_base,
        "text_size": trace.text_size,
        "entry_points": {name: addr for name, addr
                         in sorted(trace.entry_points.items())},
        "segments": [{
            "entry_name": segment.entry_name,
            "entry_address": segment.entry_address,
            "paths": [{
                "path_id": path.path_id,
                "status": path.status,
                "return_value": enc.value(path.return_value),
                "records": [_encode_record(r, enc) for r in path.records],
            } for path in segment.paths],
        } for segment in trace.segments],
    }


def _decode_trace(encoded, dec):
    trace = Trace(driver_name=encoded["driver_name"],
                  text_base=encoded["text_base"],
                  text_size=encoded["text_size"])
    trace.entry_points = dict(encoded["entry_points"])
    for seg in encoded["segments"]:
        segment = TraceSegment(entry_name=seg["entry_name"],
                               entry_address=seg["entry_address"])
        for p in seg["paths"]:
            segment.paths.append(PathTrace(
                path_id=p["path_id"],
                records=[_decode_record(r, dec) for r in p["records"]],
                status=p["status"],
                return_value=dec.value(p["return_value"])))
        trace.segments.append(segment)
    return trace


# -- synthesized driver ----------------------------------------------------

def _encode_function(function, enc):
    return {
        "entry": function.entry,
        "name": function.name,
        "role": function.role,
        "blocks": {str(pc): enc.block_ref(block)
                   for pc, block in sorted(function.blocks.items())},
        "edges": {str(pc): sorted(successors)
                  for pc, successors in sorted(function.edges.items())},
        "callees": sorted(function.callees),
        "imports_called": sorted(function.imports_called),
        "unexplored_targets": sorted(function.unexplored_targets),
        "param_count": function.param_count,
        "has_return": function.has_return,
    }


def _decode_function(encoded, dec):
    return RecoveredFunction(
        entry=encoded["entry"],
        name=encoded["name"],
        role=encoded["role"],
        blocks={int(pc): dec.block(ref)
                for pc, ref in encoded["blocks"].items()},
        edges={int(pc): set(successors)
               for pc, successors in encoded["edges"].items()},
        callees=set(encoded["callees"]),
        imports_called=set(encoded["imports_called"]),
        unexplored_targets=set(encoded["unexplored_targets"]),
        param_count=encoded["param_count"],
        has_return=encoded["has_return"],
    )


def _encode_report(report):
    return {
        "driver_name": report.driver_name,
        "covered_instructions": report.covered_instructions,
        "total_trace_blocks": report.total_trace_blocks,
        "dbt_filled_blocks": report.dbt_filled_blocks,
        "functions": [{
            "entry": f.entry, "name": f.name, "role": f.role,
            "blocks": f.blocks, "instructions": f.instructions,
            "param_count": f.param_count, "has_return": f.has_return,
            "imports_called": list(f.imports_called),
            "unexplored": f.unexplored,
        } for f in report.functions],
    }


def _decode_report(encoded):
    report = SynthesisReport(
        driver_name=encoded["driver_name"],
        covered_instructions=encoded["covered_instructions"],
        total_trace_blocks=encoded["total_trace_blocks"],
        dbt_filled_blocks=encoded["dbt_filled_blocks"])
    for f in encoded["functions"]:
        report.functions.append(FunctionSummary(
            entry=f["entry"], name=f["name"], role=f["role"],
            blocks=f["blocks"], instructions=f["instructions"],
            param_count=f["param_count"], has_return=f["has_return"],
            imports_called=tuple(f["imports_called"]),
            unexplored=f["unexplored"]))
    return report


def _encode_synthesized(synth, enc):
    return {
        "name": synth.name,
        "entry_points": {name: addr for name, addr
                         in sorted(synth.entry_points.items())},
        "import_names": {str(slot): name for slot, name
                         in sorted(synth.import_names.items())},
        "c_source": synth.c_source,
        "c_per_function": {str(entry): text for entry, text
                           in sorted(synth.c_per_function.items())},
        "functions": [_encode_function(synth.functions[entry], enc)
                      for entry in sorted(synth.functions)],
        "block_map": {str(pc): enc.block_ref(block)
                      for pc, block in sorted(synth.block_map.items())},
        "report": _encode_report(synth.report),
    }


def _decode_synthesized(encoded, dec):
    functions = {}
    for f in encoded["functions"]:
        function = _decode_function(f, dec)
        functions[function.entry] = function
    return SynthesizedDriver(
        name=encoded["name"],
        functions=functions,
        entry_points=dict(encoded["entry_points"]),
        c_source=encoded["c_source"],
        c_per_function={int(entry): text for entry, text
                        in encoded["c_per_function"].items()},
        report=_decode_report(encoded["report"]),
        import_names={int(slot): name for slot, name
                      in encoded["import_names"].items()},
        block_map={int(pc): dec.block(ref)
                   for pc, ref in encoded["block_map"].items()},
    )


# -- top level -------------------------------------------------------------

def artifact_to_dict(artifact):
    """Encode ``artifact`` as a JSON-serializable dict (full fidelity,
    wall-clock timings under :data:`VOLATILE`)."""
    enc = _Encoder()
    trace = _encode_trace(artifact.trace, enc)
    synthesized = _encode_synthesized(artifact.synthesized, enc)
    timeline = artifact.coverage.timeline
    return {
        "schema": SCHEMA_VERSION,
        "driver": artifact.driver,
        "strategy": artifact.strategy,
        "script": artifact.script,
        "config": _encode_config(artifact.config),
        "entry_points": {name: addr for name, addr
                         in sorted(artifact.entry_points.items())},
        "stats": {key: value for key, value in artifact.stats.items()
                  if key != "wall_seconds"},
        "dma_regions": [list(region) for region in artifact.dma_regions],
        "import_names": {str(slot): name for slot, name
                         in sorted(artifact.import_names.items())},
        "code": {"base": artifact.code.base,
                 "data": artifact.code.data.hex()},
        "coverage": {
            "leaders": list(artifact.coverage.leaders),
            "executed": sorted(artifact.coverage.executed),
            "timeline": [[blocks, fraction]
                         for blocks, _seconds, fraction in timeline],
        },
        "trace": trace,
        "synthesized": synthesized,
        # The tables last: they were filled while encoding the above.
        "exprs": enc.exprs,
        "blocks": enc.blocks,
        VOLATILE: {
            "wall_seconds": artifact.stats["wall_seconds"],
            "timeline_seconds": [seconds
                                 for _blocks, seconds, _fraction in timeline],
        },
    }


def _encode_config(config_dict):
    """RevNicConfig as JSON-safe canonical dict (the pci descriptor is a
    nested dataclass dict already; skip_functions values may be tuples)."""
    out = {}
    for key, value in sorted(config_dict.items()):
        if key == "skip_functions":
            out[key] = {name: list(v) if isinstance(v, tuple) else v
                        for name, v in sorted(value.items())}
        else:
            out[key] = value
    return out


def artifact_from_dict(data, source="disk-cache", read_trace=None):
    """Decode a dict produced by :func:`artifact_to_dict`.

    ``read_trace``, when given, is a callable returning the encoded trace
    section, and ``data`` need not hold one: the artifact store passes a
    reader of its entry's trace section.  Either way the trace is decoded
    only when something walks ``artifact.trace``.
    """
    try:
        schema = data["schema"]
        if schema != SCHEMA_VERSION:
            raise ArtifactError("artifact schema %r, expected %r"
                                % (schema, SCHEMA_VERSION))
        dec = _Decoder(data["exprs"], data["blocks"])
        if read_trace is None:
            # A whole document (from_json): the thunk keeps its trace
            # section alive, never `data` with the code hex, tables and
            # synthesis the artifact has already decoded.
            encoded_trace = data["trace"]

            def read_trace():
                return encoded_trace
        volatile = data[VOLATILE]
        coverage = CoverageTracker(
            leaders=list(data["coverage"]["leaders"]),
            executed=set(data["coverage"]["executed"]),
            timeline=[(blocks, seconds, fraction)
                      for (blocks, fraction), seconds
                      in zip(data["coverage"]["timeline"],
                             volatile["timeline_seconds"], strict=True)])
        return RunArtifact(
            driver=data["driver"],
            strategy=data["strategy"],
            script=data["script"],
            config=data["config"],
            trace=lambda: _decode_trace(read_trace(), dec),
            coverage=coverage,
            entry_points=dict(data["entry_points"]),
            stats=dict(data["stats"],
                       wall_seconds=volatile["wall_seconds"]),
            dma_regions=[tuple(region) for region in data["dma_regions"]],
            import_names={int(slot): name for slot, name
                          in data["import_names"].items()},
            code=CodeWindow(data["code"]["base"],
                            bytes.fromhex(data["code"]["data"])),
            synthesized=_decode_synthesized(data["synthesized"], dec),
            source=source,
        )
    except ArtifactError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactError("malformed artifact: %s" % (exc,)) from exc


def canonical_dumps(data):
    """Canonical JSON encoding: sorted keys, no whitespace.

    The one serialization every byte-compared document in the repo uses
    (run artifacts, fuzz campaigns, fabric reports): two equal values
    always encode to identical bytes.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def stable_dumps(document):
    """Canonical JSON of ``document`` without its :data:`VOLATILE`
    section.

    Byte-equality of this form is the equivalence relation of every
    byte-compared document: computed, cached and faulted-but-recovered
    runs of one input must agree on it.
    """
    return canonical_dumps({key: value for key, value in document.items()
                            if key != VOLATILE})


def to_json(artifact):
    """Full-fidelity deterministic JSON (timings included)."""
    return canonical_dumps(artifact_to_dict(artifact))


def from_json(text, source="disk-cache"):
    return artifact_from_dict(json.loads(text), source=source)


def canonical_json(artifact):
    """Deterministic JSON without the wall-clock timings.

    Byte-equality of canonical JSON is the artifact-equivalence relation
    the determinism tests (computed vs cached vs recomputed) assert on.
    """
    return stable_dumps(artifact_to_dict(artifact))
