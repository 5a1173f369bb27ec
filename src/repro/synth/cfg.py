"""CFG reconstruction from merged activity traces (paper section 4.1).

"Building is done in two steps: First, RevNIC identifies function
boundaries by looking for call-return instruction pairs.  Second, the
translation blocks between call-return pairs are chained together to
reproduce the original CFG of the function.  RevNIC splits translation
blocks into basic blocks in the process."
"""

from dataclasses import dataclass, field

from repro.revnic.trace import BlockRecord, ImportRecord


@dataclass
class RecoveredFunction:
    """One function recovered from the traces."""

    entry: int
    name: str
    #: basic blocks: start pc -> TranslationBlock (possibly split)
    blocks: dict = field(default_factory=dict)
    #: observed intra-function edges: pc -> set of successor pcs
    edges: dict = field(default_factory=dict)
    #: direct callees (guest addresses)
    callees: set = field(default_factory=set)
    #: OS API functions called (import names) -- Figure 9 classification
    imports_called: set = field(default_factory=set)
    #: statically known successors never seen in any trace ("RevNIC flags
    #: such branches to warn the developer")
    unexplored_targets: set = field(default_factory=set)
    #: filled by def-use analysis
    param_count: int = 0
    has_return: bool = False
    #: entry-point role if registered ('send', 'isr', ...) else None
    role: str = None

    def sorted_blocks(self):
        return [self.blocks[pc] for pc in sorted(self.blocks)]


@dataclass
class _Invocation:
    """A live function activation while replaying one path."""

    function: object
    entry_sp: int       # sp at function entry (points at return address)


class CfgBuilder:
    """Merges all traced paths into per-function CFGs."""

    def __init__(self, trace):
        self.trace = trace
        self.functions = {}
        self._roles = {address: name
                       for name, address in trace.entry_points.items()}
        #: (function_entry, path_id, record list, is_reopen) per activation
        #: -- consumed by def-use analysis; re-opened activations (records
        #: after an inner call returned) start mid-function and cannot
        #: anchor the parameter-slot base.
        self.invocations = []

    # ------------------------------------------------------------------

    def build(self):
        """Replay every path, attributing blocks to functions; then split
        translation blocks whose interior is a branch target."""
        for segment in self.trace.segments:
            for path in segment.paths:
                self._replay_path(segment, path)
        self._merge_edges_from_terminators()
        self._split_blocks()
        self._flag_unexplored()
        return self.functions

    # ------------------------------------------------------------------

    def _function(self, entry):
        function = self.functions.get(entry)
        if function is None:
            role = self._roles.get(entry)
            name = role if role is not None else "fn_%08x" % entry
            function = RecoveredFunction(entry=entry, name=name, role=role)
            self.functions[entry] = function
        return function

    @staticmethod
    def _sp_of(record, reg_index=13):
        value = record.regs_after[reg_index]
        return value if isinstance(value, int) else None

    def _replay_path(self, segment, path):
        """Walk one path's records, maintaining the call stack."""
        stack = []
        records = path.records
        current_records = []

        def open_invocation(function, sp):
            stack.append(_Invocation(function, sp))
            self.invocations.append((function.entry, path.path_id, [],
                                     False))

        # The path starts inside the exercised entry point.
        root = self._function(segment.entry_address)
        open_invocation(root, None)

        previous_block = None
        for index, record in enumerate(records):
            if isinstance(record, ImportRecord):
                if stack:
                    stack[-1].function.imports_called.add(record.name)
                # r0 is redefined by the OS call; note it for def-use.
                if self.invocations:
                    self.invocations[-1][2].append(record)
                continue
            if not isinstance(record, BlockRecord):
                continue
            current = stack[-1] if stack else None
            if current is None:
                break

            function = current.function
            function.blocks.setdefault(record.pc, record.block)
            if self.invocations:
                self.invocations[-1][2].append(record)

            if previous_block is not None and \
                    previous_block[0] is function:
                function.edges.setdefault(previous_block[1], set()) \
                    .add(record.pc)

            if record.terminator == "call":
                next_record = self._next_block(records, index)
                target = record.target
                if target is None and next_record is not None:
                    target = next_record.pc
                if target is not None and \
                        self._is_driver_code(target):
                    function.callees.add(target)
                    callee = self._function(target)
                    open_invocation(callee, self._sp_of(record))
                    previous_block = None
                    continue
                # Import call (or unresolved): stay in this function.
                previous_block = None
                continue
            if record.terminator == "ret":
                stack.pop()
                previous_block = None
                # Find the caller's invocation record list to keep appending.
                if stack:
                    self._reopen_invocation(stack[-1].function,
                                            path.path_id)
                continue
            previous_block = (function, record.pc)

    def _reopen_invocation(self, function, path_id):
        """After a return, subsequent records belong to the caller again;
        start a fresh record list for it so def-use sees post-call reads."""
        self.invocations.append((function.entry, path_id, [], True))

    @staticmethod
    def _next_block(records, index):
        for record in records[index + 1:]:
            if isinstance(record, BlockRecord):
                return record
        return None

    def _is_driver_code(self, address):
        base = self.trace.text_base
        return base <= address < base + self.trace.text_size

    # ------------------------------------------------------------------

    def _merge_edges_from_terminators(self):
        """Add the statically-known successor edges of every recorded
        conditional branch (both arms are part of the CFG even if only one
        was traversed -- the untraversed one is flagged separately)."""
        for function in self.functions.values():
            for pc, block in function.blocks.items():
                for successor in block.static_successors():
                    if block.terminator.__class__.__name__ == "IrCall":
                        continue
                    if self._is_driver_code(successor):
                        function.edges.setdefault(pc, set()).add(successor)

    def _split_blocks(self):
        """Split translation blocks containing interior branch targets."""
        for function in self.functions.values():
            changed = True
            while changed:
                changed = False
                targets = set(function.blocks)
                for target_pc in list(targets):
                    for pc, block in list(function.blocks.items()):
                        if pc != target_pc and block.contains(target_pc):
                            head = block.split_at(target_pc)
                            function.blocks[pc] = head
                            function.edges.setdefault(pc, set()).clear()
                            function.edges[pc].add(target_pc)
                            changed = True
                # Also split at targets referenced by edges but interior to
                # an existing block.
                edge_targets = set()
                for successors in function.edges.values():
                    edge_targets |= successors
                for target_pc in edge_targets:
                    for pc, block in list(function.blocks.items()):
                        if pc != target_pc and block.contains(target_pc) \
                                and target_pc not in function.blocks:
                            # Target interior but never executed as a block
                            # start: synthesize the tail by re-slicing.
                            head = block.split_at(target_pc)
                            tail = _tail_of(block, target_pc)
                            function.blocks[pc] = head
                            function.blocks[target_pc] = tail
                            function.edges.setdefault(pc, set()).add(
                                target_pc)
                            changed = True

    def _flag_unexplored(self):
        """Record statically known but never executed branch targets.

        Targets interior to an executed block are flagged too: execution
        entered the containing block only from its start, so entering at
        the interior address is still an unexercised path.
        """
        for function in self.functions.values():
            executed = set(function.blocks)
            for pc, block in function.blocks.items():
                term = block.terminator
                if term.__class__.__name__ == "IrCondJump":
                    for successor in (term.target, term.fallthrough):
                        if successor not in executed \
                                and self._is_driver_code(successor):
                            function.unexplored_targets.add(successor)


def _tail_of(block, address):
    """The tail piece of ``block`` from instruction ``address`` onward."""
    index = block.instr_addrs.index(address)
    op_cut = block.instr_spans[index][0]
    from repro.ir.nodes import TranslationBlock

    return TranslationBlock(
        pc=address,
        size=block.end_pc - address,
        instr_addrs=block.instr_addrs[index:],
        ops=block.ops[op_cut:],
        instr_spans=[(a - op_cut, b - op_cut)
                     for a, b in block.instr_spans[index:]],
    )
