"""The symbolic/concrete OS boundary.

When symbolically-executed driver code calls an OS API (a ``CALL`` into the
import-thunk window), execution crosses into the concrete domain: argument
values are concretized (adding the equality constraints to the path), the
API's effect is applied to the *state* (not the shared machine), and
execution resumes at the return address -- the mechanism of paper section
3.4 ("RevNIC automatically concretizes the symbolic values whenever they
are read by the OS").
"""

from repro.errors import SymexError
from repro.guestos.structures import MINIPORT_FIELDS, NdisStatus, bind_api
from repro.isa.registers import REG_SP
from repro.layout import RETURN_TO_OS
from repro.symex import expr as E
from repro.symex.state import PathStatus


class SymOsBridge:
    """Applies OS API semantics to symbolic states; each handler is bound
    to its API by :data:`~repro.guestos.structures.NDIS_API`, which also
    gives the API's argument count."""

    def __init__(self, solver, shell, wiretap=None, import_names=None,
                 on_entry_points=None, skip_functions=None):
        self.solver = solver
        self.shell = shell
        self.wiretap = wiretap
        self.import_names = import_names or {}
        #: callback(name -> address dict) invoked on registration calls
        self.on_entry_points = on_entry_points
        #: OS functions configured away (paper: "OS functions like log
        #: writes can be configured away"): name -> forced return value,
        #: or name -> (return value, argument count) for APIs the bridge
        #: has no handler for.  Skipped calls pop their stack arguments
        #: and return immediately without applying any API semantics.
        self.skip_functions = skip_functions or {}
        self.calls_handled = 0
        self.calls_skipped = 0
        self.api_table = bind_api(self)

    # ------------------------------------------------------------------

    def handle(self, state, slot):
        """Process an import call on ``state``.

        Returns the list of states to requeue (``[state]`` when the path
        continues, ``[]`` when it completed or died).
        """
        name = self.import_names.get(slot)
        skipped = name is not None and name in self.skip_functions
        if skipped:
            spec = self.skip_functions[name]
            if isinstance(spec, tuple):
                forced_return, nargs = spec
            else:
                entry = self.api_table.get(name)
                if entry is None:
                    # A bare return value gives no way to know how many
                    # stack arguments to pop; guessing would silently
                    # misalign the stack.  Force the explicit form.
                    raise SymexError(
                        "skip_functions[%r]: no bridge handler to take "
                        "the argument count from; use (return value, "
                        "nargs)" % name)
                forced_return = spec
                nargs = entry[1]
            handler = None
        elif name is None or name not in self.api_table:
            state.status = PathStatus.ERROR
            return []
        else:
            handler, nargs = self.api_table[name]
        self.calls_handled += 1

        sp = self._concrete(state, state.regs[REG_SP])
        if sp is None:
            return []
        args = []
        for i in range(nargs):
            raw = state.memory.read(sp + 4 + 4 * i, 4)
            value = self._concrete(state, raw)
            if value is None:
                return []
            args.append(value)

        if self.wiretap is not None:
            self.wiretap.on_import(state, name, tuple(args), state.pc)

        if skipped:
            self.calls_skipped += 1
            result = forced_return
        else:
            result = handler(state, *args)
        state.regs[0] = result & 0xFFFFFFFF

        return_addr = self._concrete(state, state.memory.read(sp, 4))
        if return_addr is None:
            return []
        state.regs[REG_SP] = sp + 4 + 4 * nargs
        if return_addr == RETURN_TO_OS:
            state.status = PathStatus.COMPLETED
            state.return_value = state.regs[0]
            return []
        state.pc = return_addr
        return [state]

    def _concrete(self, state, value):
        """Concretize ``value`` at the OS boundary, constraining the path."""
        if isinstance(value, int):
            return value
        concrete, model = self.solver.concretize_context(
            state.solver_ctx, value, prefer=state.model_hint)
        if concrete is None:
            state.status = PathStatus.ERROR
            return None
        state.add_constraint(E.bv_cmp("eq", value, concrete), model=model)
        state.model_hint.update(model)
        return concrete

    # ------------------------------------------------------------------
    # API semantics (applied to the state, not the shared machine)

    def _succeed(self, state, *args):
        return NdisStatus.SUCCESS

    _set_attributes = _set_timer = _cancel_timer = _succeed

    def _physical_address(self, state, value):
        return value

    def _register_miniport(self, state, characteristics_ptr):
        entries = {}
        for name, offset in MINIPORT_FIELDS.items():
            pointer = state.memory.read(characteristics_ptr + offset, 4)
            pointer = self._concrete(state, pointer)
            if pointer:
                entries[name] = pointer
        if self.on_entry_points is not None:
            self.on_entry_points(entries)
        return NdisStatus.SUCCESS

    def _allocate_memory(self, state, size):
        address = (state.os.heap_next + 15) & ~15
        state.os.heap_next = address + max(size, 4)
        return address

    def _allocate_shared_memory(self, state, size, physical_out):
        address = (state.os.heap_next + 63) & ~63
        state.os.heap_next = address + max(size, 4)
        state.memory.write(physical_out, 4, address)
        if self.shell is not None:
            self.shell.register_dma_region(address, size)
        return address

    def _io_port_base(self, state, size):
        return self.shell.PCI.io_base if self.shell is not None else 0

    def _mmio_base(self, state, physical, size):
        return self.shell.PCI.mmio_base if self.shell is not None else 0

    def _initialize_timer(self, state, timer_struct, handler):
        state.os.timers[timer_struct] = handler
        if self.on_entry_points is not None:
            self.on_entry_points({"timer": handler})
        return NdisStatus.SUCCESS

    def _log_error(self, state, code):
        state.os.error_logs += 1
        return NdisStatus.SUCCESS

    def _indicate_receive(self, state, buffer, length):
        state.os.indicated += 1
        return NdisStatus.SUCCESS

    def _send_complete(self, state, status):
        state.os.send_completions += 1
        return NdisStatus.SUCCESS

    def _read_configuration(self, state, key):
        return 0                        # no registry: every key reads 0
