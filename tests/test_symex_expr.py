"""Unit tests for the symbolic expression language and solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.counters import counting
from repro.symex import expr as E
from repro.symex.solver import Solver


class TestExprSimplification:
    def test_constant_folding(self):
        assert E.bv_add(2, 3) == 5
        assert E.bv_sub(2, 3) == (2 - 3) & 0xFFFFFFFF
        assert E.bv_mul(4, 5) == 20
        assert E.bv_and(0xFF, 0x0F) == 0x0F
        assert E.bv_xor(0xFF, 0xFF) == 0

    def test_identities(self):
        x = E.bv_sym("x")
        assert E.bv_add(x, 0) is x
        assert E.bv_and(x, 0) == 0
        assert E.bv_and(x, 0xFFFFFFFF) is x
        assert E.bv_or(x, 0) is x
        assert E.bv_xor(x, x) == 0
        assert E.bv_mul(x, 1) is x
        assert E.bv_not(E.bv_not(x)) is x

    def test_add_chain_folding(self):
        x = E.bv_sym("x")
        chained = E.bv_add(E.bv_add(x, 4), 8)
        assert chained.kind == "add"
        assert chained.args[1] == 12

    def test_and_chain_folding(self):
        x = E.bv_sym("x")
        chained = E.bv_and(E.bv_and(x, 0xFF), 0x0F)
        assert chained.args[1] == 0x0F

    def test_extract_concat_roundtrip(self):
        x = E.bv_sym("x", 8)
        y = E.bv_sym("y", 8)
        word = E.bv_concat([x, y])
        assert word.width == 16
        assert E.bv_extract(word, 0, 8) is x
        assert E.bv_extract(word, 8, 8) is y

    def test_extract_of_int(self):
        assert E.bv_extract(0xAABBCCDD, 8, 8) == 0xCC

    def test_zext_passthrough(self):
        x = E.bv_sym("x", 8)
        wide = E.bv_zext(x, 32)
        assert wide.width == 32
        assert E.bv_extract(wide, 0, 8) is x
        assert E.bv_extract(wide, 8, 8) == 0

    def test_cmp_folding(self):
        assert E.bv_cmp("eq", 4, 4) == 1
        assert E.bv_cmp("ult", 3, 4) == 1
        assert E.bv_cmp("slt", 0xFFFFFFFF, 1) == 1  # -1 < 1 signed
        assert E.bv_cmp("uge", 3, 4) == 0
        x = E.bv_sym("x")
        assert E.bv_cmp("eq", x, x) == 1
        assert E.bv_cmp("ne", x, x) == 0

    def test_bool_not(self):
        x = E.bv_sym("x")
        cond = E.bv_cmp("eq", x, 5)
        assert E.bool_not(cond).kind == "ne"
        assert E.bool_not(1) == 0
        assert E.bool_not(0) == 1

    def test_shift_masking(self):
        assert E.bv_shift("shl", 1, 33) == 2
        assert E.bv_shift("sar", 0x80000000, 31) == 0xFFFFFFFF

    def test_symbols_collection(self):
        x, y = E.bv_sym("x"), E.bv_sym("y")
        combined = E.bv_add(E.bv_and(x, 0xFF), y)
        assert combined.symbols() == {"x", "y"}


class TestEvaluate:
    def test_arithmetic(self):
        x = E.bv_sym("x")
        expression = E.bv_add(E.bv_mul(x, 3), 7)
        assert E.evaluate(expression, {"x": 5}) == 22

    def test_extract_concat(self):
        lo = E.bv_sym("lo", 8)
        hi = E.bv_sym("hi", 8)
        word = E.bv_concat([lo, hi])
        assert E.evaluate(word, {"lo": 0x34, "hi": 0x12}) == 0x1234

    def test_unbound_symbol_is_zero(self):
        assert E.evaluate(E.bv_sym("nothing"), {}) == 0

    def test_signed_comparisons(self):
        x = E.bv_sym("x")
        cond = E.bv_cmp("slt", x, 0)
        assert E.evaluate(cond, {"x": 0xFFFFFFFF}) == 1
        assert E.evaluate(cond, {"x": 1}) == 0


def _reference(value, model):
    """Recursive reference evaluator for the compiled programs."""
    if isinstance(value, int):
        return value
    kind = value.kind
    mask = (1 << value.width) - 1
    if kind == "sym":
        return model.get(value.name, 0) & mask
    args = [_reference(arg, model) for arg in value.args]
    if kind == "zext":
        return args[0]
    if kind == "extract":
        return (args[0] >> value.lo) & mask
    if kind == "concat":
        out, shift = 0, 0
        for part, part_value in zip(value.args, args):
            part_width = 32 if isinstance(part, int) else part.width
            out |= (part_value & ((1 << part_width) - 1)) << shift
            shift += part_width
        return out
    if kind == "not":
        return ~args[0] & mask
    if kind == "neg":
        return -args[0] & mask
    a, b = args
    signed = [x - (1 << 32) if x & 0x80000000 else x for x in args]
    if kind in ("eq", "ne", "ult", "uge", "slt", "sge"):
        left, right = signed if kind in ("slt", "sge") else args
        holds = {"eq": left == right, "ne": left != right,
                 "ult": left < right, "uge": left >= right,
                 "slt": left < right, "sge": left >= right}[kind]
        return 1 if holds else 0
    return {"add": a + b, "sub": a - b, "and": a & b, "or": a | b,
            "xor": a ^ b, "mul": a * b, "shl": a << (b & 31),
            "shr": a >> (b & 31), "sar": signed[0] >> (b & 31),
            "divu": a // b if b else 0,
            "remu": a % b if b else 0}[kind] & mask


def _nodes(value, out=None):
    """Distinct Expr nodes of a DAG, depth-first (test-side order)."""
    out = {} if out is None else out
    if isinstance(value, E.Expr) and id(value) not in out:
        for arg in value.args:
            _nodes(arg, out)
        out[id(value)] = value
    return out


def _shape(value):
    """The DAG with constants and symbol names abstracted out: node
    kinds, widths and offsets, with operands as node indices (so shared
    operands stay visible) and every constant as ``"k"``."""
    nodes = list(_nodes(value).values())
    index = {id(node): i for i, node in enumerate(nodes)}
    return tuple(
        (node.kind, node.width, node.lo,
         tuple("k" if isinstance(arg, int) else index[id(arg)]
               for arg in node.args))
        for node in nodes)


def _descriptor_check(base, own, length):
    """The same ring-descriptor check a driver makes on every slot:
    the OWN bit is clear and the length field is in range."""
    status = E.bv_sym("hw_dma_%x_status" % base)
    owned = E.bv_cmp("eq", E.bv_and(status, own), 0)
    size = E.bv_extract(E.bv_sym("hw_dma_%x_len" % base), 0, 16)
    return owned, E.bv_cmp("ult", size, length)


class TestShapeSharing:
    def test_same_shape_shares_code_object(self):
        check_a, _ = _descriptor_check(0x640002, 0x80000000, 1514)
        check_b, _ = _descriptor_check(0x640006, 0x2000, 60)
        prog_a = E._compile_program(check_a)
        prog_b = E._compile_program(check_b)
        assert prog_a.__code__ is prog_b.__code__
        assert prog_a({"hw_dma_640002_status": 0x2000}) == 1
        assert prog_b({"hw_dma_640006_status": 0x2000}) == 0
        assert prog_a({"hw_dma_640006_status": 0x80000000}) == 1
        assert prog_b({"hw_dma_640002_status": 0x2000}) == 1

    @pytest.mark.parametrize("left, right", [
        # width
        (E.bv_add(E.bv_sym("shape_w", 16), 1, 16),
         E.bv_add(E.bv_sym("shape_w"), 1)),
        # extract offset
        (E.bv_extract(E.bv_sym("shape_x"), 8, 8),
         E.bv_extract(E.bv_sym("shape_x"), 16, 8)),
        # symbol sharing
        (E.bv_add(E.bv_sym("shape_a"), E.bv_sym("shape_b")),
         E.bv_add(E.bv_sym("shape_a"), E.bv_sym("shape_a"))),
    ], ids=["width", "extract-offset", "symbol-sharing"])
    def test_different_shapes_do_not_share(self, left, right):
        prog_left = E._compile_program(left)
        prog_right = E._compile_program(right)
        assert prog_left.__code__ is not prog_right.__code__
        model = {"shape_w": 0x1FFFF, "shape_x": 0x00ABCDEF,
                 "shape_a": 3, "shape_b": 4}
        assert prog_left(model) == _reference(left, model)
        assert prog_right(model) == _reference(right, model)

    def test_conjunction_bit_order(self):
        owned_a, short_a = _descriptor_check(0x650000, 0x80000000, 1514)
        owned_b, short_b = _descriptor_check(0x650004, 0x80000000, 60)
        model = {"hw_dma_650000_status": 0, "hw_dma_650000_len": 2000,
                 "hw_dma_650004_status": 0, "hw_dma_650004_len": 10}
        forward = E.compiled_conjunction((owned_a, short_a))
        swapped = E.compiled_conjunction((short_a, owned_a))
        other = E.compiled_conjunction((owned_b, short_b))
        assert forward(model) == 0b01
        assert swapped(model) == 0b10
        assert other(model) == 0b11
        assert forward.__code__ is other.__code__

    def test_one_call_counts_one_run_and_every_node(self):
        owned, short = _descriptor_check(0x660000, 0x80000000, 1514)
        condition = E.bv_cmp("ne", E.bv_or(E.bv_zext(
            E.bv_extract(E.bv_sym("hw_dma_660000_len"), 0, 16), 32),
            E.bv_sym("hw_dma_660000_status")), 0)
        for value in (owned, condition):
            program = E._compile_program(value)
            with counting() as work:
                program({})
            assert work["program_runs"] == 1
            assert work["node_visits"] == len(_nodes(value))
        conjunction = E.compiled_conjunction((owned, short))
        with counting() as work:
            conjunction({})
        assert work["program_runs"] == 1
        nodes = _nodes(short, _nodes(owned))
        assert work["node_visits"] == len(nodes)


# A template is a tree of operations whose leaves are symbol slots and
# constant slots; instantiating it twice with other names and constants
# gives DAGs that usually, but not always, keep the same shape (the
# smart constructors fold some constants away).
_BINOPS = ["add", "sub", "and", "or", "xor", "shl", "shr", "sar", "mul",
           "divu", "remu"]
_CMPS = ["eq", "ne", "ult", "uge", "slt", "sge"]

_templates = st.recursive(
    st.one_of(st.tuples(st.just("sym"), st.integers(0, 2),
                        st.sampled_from([8, 16, 32])),
              st.tuples(st.just("const"), st.integers(0, 3))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(_BINOPS), inner, inner),
        st.tuples(st.sampled_from(_CMPS), inner, inner),
        st.tuples(st.sampled_from(["not", "neg"]), inner),
        st.tuples(st.just("extract"), inner, st.sampled_from([0, 8, 16]),
                  st.sampled_from([8, 16])),
        st.tuples(st.just("zext"), inner),
        st.tuples(st.just("concat"), inner, inner)),
    max_leaves=8)


def _instantiate(template, names, consts):
    kind = template[0]
    if kind == "sym":
        return E.bv_sym(names[template[1]], template[2])
    if kind == "const":
        return consts[template[1]]
    args = [_instantiate(part, names, consts)
            for part in template[1:] if isinstance(part, tuple)]
    if kind in _BINOPS:
        return E.BINOP_BUILDERS[kind](args[0], args[1])
    if kind in _CMPS:
        return E.bv_cmp(kind, args[0], args[1])
    if kind == "not":
        return E.bv_not(args[0])
    if kind == "neg":
        return E.bv_neg(args[0])
    if kind == "extract":
        return E.bv_extract(args[0], template[2], template[3])
    if kind == "zext":
        return E.bv_zext(args[0], 32)
    return E.bv_concat([E.bv_extract(arg, 0, 8) for arg in args])


_u32 = st.integers(0, 0xFFFFFFFF)
_names = st.lists(st.from_regex(r"[a-z]{1,4}_[0-9a-f]{1,6}", fullmatch=True),
                  min_size=3, max_size=3, unique=True)
_consts = st.lists(st.one_of(st.sampled_from([0, 1, 31, 0xFFFFFFFF]), _u32),
                   min_size=4, max_size=4)


class TestShapeSharingProperties:
    @settings(max_examples=150, deadline=None)
    @given(template=_templates, names_a=_names, names_b=_names,
           consts_a=_consts, consts_b=_consts,
           values=st.lists(_u32, min_size=6, max_size=6))
    def test_same_template_programs_match_reference(
            self, template, names_a, names_b, consts_a, consts_b, values):
        dag_a = _instantiate(template, names_a, consts_a)
        dag_b = _instantiate(template, names_b, consts_b)
        model = dict(zip(names_a + names_b, values))
        programs = []
        for dag in (dag_a, dag_b):
            if isinstance(dag, E.Expr):
                program = E._compile_program(dag)
                assert program(model) == _reference(dag, model)
                programs.append(program)
        if len(programs) == 2:
            shared = programs[0].__code__ is programs[1].__code__
            assert shared == (_shape(dag_a) == _shape(dag_b))


_constraint_specs = st.lists(
    st.tuples(_templates, st.sampled_from(_CMPS),
              st.one_of(st.integers(0, 40), _u32), _consts),
    min_size=1, max_size=9)


def _constraints(specs, names):
    """1-bit comparisons over ``names``; ones that fold to a constant
    are dropped."""
    out = []
    for template, kind, right, consts in specs:
        constraint = E.bv_cmp(kind, _instantiate(template, names, consts),
                              right)
        if isinstance(constraint, E.Expr):
            out.append(constraint)
    return out


def _fused_mask(roots, model):
    """The satisfied mask of ``roots`` from one program over all of
    them, bypassing the conjunction table."""
    return E._compile_program(None, roots=tuple(roots))(model)


def _greedy_reference(constraints, symbols, candidates, model, passes):
    """The greedy climb of ``Solver._greedy_search`` without bound
    pruning: every candidate is scored by one fused program over its
    symbol's whole slice."""
    model = dict(model)
    slices = {name: [c for c in constraints if name in c.symbols()]
              for name in symbols}
    scorers = {name: E._compile_program(None, roots=tuple(roots))
               for name, roots in slices.items() if roots}

    def all_hold():
        return all(E.evaluate(c, model) == 1 for c in constraints)

    for _ in range(passes):
        improved = False
        for name in symbols:
            if name not in scorers:
                continue
            size = len(slices[name])
            original = model[name]
            best_value = original
            best = scorers[name](model).bit_count()
            if best == size:
                continue
            for value in candidates:
                if value == original:
                    continue
                model[name] = value
                local = scorers[name](model).bit_count()
                if local > best:
                    best, best_value = local, value
                    if best == size:
                        break
            model[name] = best_value
            if best_value != original:
                improved = True
                if all_hold():
                    return model
        if not improved:
            break
    return model if all_hold() else None


class TestSplitConjunctions:
    """A conjunction is a fused prefix plus a delta (see
    ``expr.conjunction_parts``); growing a slice root by root, and
    probing siblings of it, must give the fused program's mask."""

    @settings(max_examples=120, deadline=None)
    @given(specs=_constraint_specs, names=_names,
           values=st.lists(_u32, min_size=3, max_size=3))
    def test_split_mask_equals_fused_mask(self, specs, names, values):
        constraints = _constraints(specs, names)
        model = dict(zip(names, values))
        sibling = E.bv_cmp("ult", E.bv_sym(names[0]), values[1])
        for count in range(1, len(constraints) + 1):
            for roots in (constraints[:count],
                          constraints[:count - 1] + [sibling]):
                prefix, k, delta = E.conjunction_parts(tuple(roots))
                assert (delta is None) == (k == len(roots))
                assert 2 * k >= len(roots)
                mask = E.compiled_conjunction(tuple(roots))(model)
                assert mask == _fused_mask(roots, model)
                assert mask == sum(_reference(c, model) << i
                                   for i, c in enumerate(roots))

    @settings(max_examples=60, deadline=None)
    @given(specs=_constraint_specs, names=_names,
           values=st.lists(_u32, min_size=3, max_size=3),
           extra=st.lists(st.one_of(st.integers(0, 64), _u32), max_size=8))
    def test_pruned_greedy_search_matches_unpruned(self, specs, names,
                                                   values, extra):
        constraints = _constraints(specs, names)
        solver = Solver()
        # Grow the set root by root, so slice conjunctions split.
        for count in range(1, len(constraints) + 1):
            grown = constraints[:count]
            symbols = sorted(set().union(*(c.symbols() for c in grown)))
            model = {name: values[names.index(name)] for name in symbols}
            candidates = sorted(set(solver._mine_candidates(grown))
                                | set(extra))
            programs = [E.compiled(c) for c in grown]
            got = solver._greedy_search(grown, programs, symbols,
                                        candidates, model)
            assert got == _greedy_reference(grown, symbols, candidates,
                                            model, solver.greedy_passes)

    def test_reset_makes_counts_depend_on_the_run_alone(self):
        checks = [c for base in (0x670000, 0x670004, 0x670008)
                  for c in _descriptor_check(base, 0x80000000, 1514)]
        model = {"hw_dma_670004_len": 9}

        def run():
            E.reset_programs()
            with counting() as work:
                for count in range(1, len(checks) + 1):
                    E.compiled_conjunction(tuple(checks[:count]))(model)
                    E.compiled(checks[count - 1])(model)
            return work

        first = run()
        assert first["nodes_lowered"] > 0
        # Other history: a fused prefix the run would not have made.
        E._fuse(tuple(checks[:3]))
        assert run() == first

    @settings(max_examples=60, deadline=None)
    @given(specs=_constraint_specs, names=_names,
           values=st.lists(_u32, min_size=3, max_size=3),
           bound=st.integers(1, 4))
    def test_table_bound_clears_safely(self, specs, names, values, bound):
        constraints = _constraints(specs, names)
        model = dict(zip(names, values))
        held = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(E, "_CONJUNCTIONS", {})
            patch.setattr(E, "_CONJUNCTIONS_MAX", bound)
            for count in range(1, len(constraints) + 1):
                roots = tuple(constraints[:count])
                held.append((roots, E.compiled_conjunction(roots)))
                assert len(E._CONJUNCTIONS) <= bound
            # Programs handed out before a clear keep working, and a
            # conjunction whose prefix was cleared is rebuilt.
            for roots, program in held:
                assert program(model) == _fused_mask(roots, model)
                assert E.compiled_conjunction(roots)(model) \
                    == _fused_mask(roots, model)
                assert len(E._CONJUNCTIONS) <= bound


class TestSolver:
    def setup_method(self):
        self.solver = Solver()

    def test_simple_equality(self):
        x = E.bv_sym("x")
        model = self.solver.find_model([E.bv_cmp("eq", x, 42)])
        assert model == {"x": 42}

    def test_range_constraint(self):
        x = E.bv_sym("x")
        constraints = [E.bv_cmp("ult", x, 100), E.bv_cmp("uge", x, 90)]
        model = self.solver.find_model(constraints)
        assert 90 <= model["x"] < 100

    def test_mask_constraint(self):
        x = E.bv_sym("x")
        bit_set = E.bv_cmp("ne", E.bv_and(x, 0x10), 0)
        model = self.solver.find_model([bit_set])
        assert model["x"] & 0x10

    def test_arithmetic_chain(self):
        # ((x >> 16) & 0xFFFF) - 4 must exceed 1514 (the driver's
        # rx_bad_frame branch).
        x = E.bv_sym("x")
        length = E.bv_sub(E.bv_and(E.bv_shift("shr", x, 16), 0xFFFF), 4)
        constraints = [E.bv_cmp("ult", 1514, length)]
        model = self.solver.find_model(constraints)
        assert model is not None
        assert E.evaluate(constraints[0], model) == 1

    def test_contradiction(self):
        x = E.bv_sym("x")
        constraints = [E.bv_cmp("eq", x, 1), E.bv_cmp("eq", x, 2)]
        assert self.solver.find_model(constraints) is None

    def test_two_symbols(self):
        x, y = E.bv_sym("x"), E.bv_sym("y")
        constraints = [E.bv_cmp("eq", x, 7), E.bv_cmp("ult", x, y)]
        model = self.solver.find_model(constraints)
        assert model["x"] == 7 and model["y"] > 7

    def test_prefer_hint_respected(self):
        x = E.bv_sym("x")
        constraints = [E.bv_cmp("ult", x, 100)]
        model = self.solver.find_model(constraints, prefer={"x": 55})
        assert model["x"] == 55

    def test_concretize(self):
        x = E.bv_sym("x")
        expression = E.bv_add(x, 10)
        value, model = self.solver.concretize(
            expression, [E.bv_cmp("eq", x, 5)])
        assert value == 15

    def test_empty_constraints_sat(self):
        assert self.solver.find_model([]) == {}

    def test_feasibility_api(self):
        x = E.bv_sym("x")
        assert self.solver.find_model([E.bv_cmp("ne", x, 0)]) is not None
        assert self.solver.find_model(
            [E.bv_cmp("ult", x, 1), E.bv_cmp("uge", x, 1)]) is None


class TestSymMemory:
    def make(self, backing=None):
        from repro.symex.memory import SymMemory
        backing = backing or {}

        def read(addr, width):
            return backing.get(addr, 0)

        return SymMemory(read)

    def test_concrete_roundtrip(self):
        mem = self.make()
        mem.write(0x100, 4, 0xDEADBEEF)
        assert mem.read(0x100, 4) == 0xDEADBEEF
        assert mem.read(0x101, 2) == 0xADBE

    def test_backing_fallthrough(self):
        mem = self.make(backing={0x50: 0xAB})
        assert mem.read_byte(0x50) == 0xAB

    def test_symbolic_bytes(self):
        mem = self.make()
        x = E.bv_sym("x")
        mem.write(0x200, 4, x)
        value = mem.read(0x200, 4)
        assert not E.is_concrete(value)
        assert E.evaluate(value, {"x": 0x11223344}) == 0x11223344

    def test_partial_symbolic_read(self):
        mem = self.make()
        x = E.bv_sym("x", 8)
        mem.write_byte(0x300, x)
        mem.write_byte(0x301, 0x7F)
        value = mem.read(0x300, 2)
        assert E.evaluate(value, {"x": 0x42}) == 0x7F42

    def test_cow_fork_isolation(self):
        mem = self.make()
        mem.write(0x400, 4, 0x1111)
        child = mem.fork()
        child.write(0x400, 4, 0x2222)
        assert mem.read(0x400, 4) == 0x1111
        assert child.read(0x400, 4) == 0x2222

    def test_fork_shares_unmodified(self):
        mem = self.make()
        mem.write(0x500, 4, 0xABCD)
        child = mem.fork()
        assert child.read(0x500, 4) == 0xABCD

