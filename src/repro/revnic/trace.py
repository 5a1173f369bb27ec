"""Activity-trace containers produced by the wiretap.

A trace is organized as *segments* (one per exercised entry point, in
script order), each holding the set of explored *paths*; a path is an
ordered list of :class:`BlockRecord` / :class:`ImportRecord` entries.  This
is the input format of the synthesizer: "RevNIC exercises the driver and
outputs a trace consisting of translated LLVM blocks, along with their
sequencing and all memory and I/O information" (section 4).
"""

from dataclasses import dataclass, field

from repro.symex.expr import Expr


def _sanitize(value):
    """Registers in trace records: concrete ints stay, symbolic values are
    recorded as an opaque marker (the synthesizer only needs concrete
    values for control-flow reconstruction)."""
    if isinstance(value, Expr):
        return None
    return value


@dataclass
class BlockRecord:
    """One executed translation block on one path."""

    seq: int                   # global sequence number (wiretap order)
    pc: int
    block: object              # the TranslationBlock (IR)
    regs_before: list
    regs_after: list
    accesses: list             # list of MemAccess
    terminator: str            # 'jump' | 'condjump' | 'call' | 'ret' | 'halt'
    #: resolved guest target for calls/jumps (None when unresolved)
    target: object = None


@dataclass
class ImportRecord:
    """One OS API call crossing the symbolic/concrete boundary."""

    seq: int
    name: str
    args: tuple
    caller_pc: int


@dataclass
class PathTrace:
    """One explored path: its records plus the path outcome."""

    path_id: int
    records: list
    status: str
    return_value: object = None


@dataclass
class TraceSegment:
    """All paths explored while exercising one entry point."""

    entry_name: str
    entry_address: int
    paths: list = field(default_factory=list)


@dataclass
class Trace:
    """The complete wiretap output for one RevNIC run."""

    driver_name: str
    segments: list = field(default_factory=list)
    #: entry point name -> guest virtual address (from registration calls)
    entry_points: dict = field(default_factory=dict)
    #: loaded-image info needed to map addresses back to text offsets
    text_base: int = 0
    text_size: int = 0

    def all_records(self):
        """Iterate every record of every path of every segment."""
        for segment in self.segments:
            for path in segment.paths:
                for record in path.records:
                    yield segment, path, record

    def executed_block_pcs(self):
        """Set of translation-block start addresses seen in the trace."""
        return {r.pc for _s, _p, r in self.all_records()
                if isinstance(r, BlockRecord)}
