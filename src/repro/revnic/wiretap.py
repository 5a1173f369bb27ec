"""The wiretap: records driver activity during symbolic exploration.

Paper section 3.3: the wiretap saves (1) executed instructions in the
intermediate representation, (2) whether accesses touch device-mapped or
regular memory, with pointer values and data, and (3) block types and the
register file at block entry/exit -- everything the synthesizer needs to
rebuild control flow and data flow.
"""

import itertools

from repro.ir import nodes as N
from repro.revnic.trace import BlockRecord, ImportRecord, _sanitize


def _terminator_kind(term_info):
    if term_info is None:
        return "fallthrough"
    return {"jump": "jump", "condjump": "condjump", "call": "call",
            "ret": "ret", "halt": "halt"}[term_info[0]]


def _static_target(block):
    term = block.terminator
    if isinstance(term, N.IrCall) and not term.indirect:
        return term.target
    if isinstance(term, N.IrJump) and not term.indirect:
        return term.target
    return None


class Wiretap:
    """Per-run trace recorder; states carry their own record lists so COW
    forking keeps path prefixes shared."""

    def __init__(self, text_base=0, text_end=0, coverage=None):
        self._seq = itertools.count()
        self.text_base = text_base
        self.text_end = text_end
        self.blocks_recorded = 0
        self.imports_recorded = 0
        self.forks_observed = 0
        #: optional CoverageTracker fed with every recorded block
        self.coverage = coverage

    def _in_driver(self, pc):
        if self.text_end == 0:
            return True
        return self.text_base <= pc < self.text_end

    def on_block(self, state, block, regs_before, regs_after, accesses,
                 term_info):
        """Record one executed translation block.

        RevNIC "stops recording when execution leaves the driver" -- blocks
        outside the driver's text are not recorded.
        """
        if not self._in_driver(block.pc):
            return
        if self.coverage is not None:
            self.coverage.mark_block(block)
        record = BlockRecord(
            seq=next(self._seq),
            pc=block.pc,
            block=block,
            regs_before=[_sanitize(r) for r in regs_before],
            regs_after=[_sanitize(r) for r in regs_after],
            accesses=list(accesses),
            terminator=_terminator_kind(term_info),
            target=_static_target(block),
        )
        state.trace_records.append(record)
        self.blocks_recorded += 1

    def on_import(self, state, name, args, caller_pc):
        """Record an OS API call made by the driver."""
        record = ImportRecord(seq=next(self._seq), name=name,
                              args=tuple(args), caller_pc=caller_pc)
        state.trace_records.append(record)
        self.imports_recorded += 1

    def on_fork(self, parent, child):
        self.forks_observed += 1
