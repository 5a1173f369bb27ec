"""Tests for expression interning, compiled evaluation, and the
incremental solver context (the PR-2 constraint-solving layers)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.counters import counting
from repro.symex import expr as E
from repro.symex.executor import SymExecutor
from repro.symex.solver import SAT, UNKNOWN, UNSAT, Solver, SolverContext
from repro.symex.state import SymState


class TestInterning:
    def test_structural_equality_is_identity(self):
        x = E.bv_sym("intern_x")
        a = E.bv_add(x, 5)
        b = E.bv_add(x, 5)
        assert a is b

    def test_distinct_structures_distinct_nodes(self):
        x = E.bv_sym("intern_x")
        assert E.bv_add(x, 5) is not E.bv_add(x, 6)

    def test_interning_across_builders(self):
        x = E.bv_sym("intern_x")
        direct = E.Expr("add", 32, args=(x, 5))
        built = E.bv_add(x, 5)
        assert direct is built

    def test_hash_precomputed_and_stable(self):
        x = E.bv_sym("intern_x")
        a = E.bv_and(x, 0xFF)
        assert hash(a) == hash(E.bv_and(x, 0xFF))
        table = {a: "hit"}
        assert table[E.bv_and(x, 0xFF)] == "hit"

    def test_symbols_cached_frozenset(self):
        x, y = E.bv_sym("ix"), E.bv_sym("iy")
        combined = E.bv_add(E.bv_and(x, 0xFF), y)
        first = combined.symbols()
        assert first == frozenset({"ix", "iy"})
        assert combined.symbols() is first

    def test_identity_enables_new_folds(self):
        x = E.bv_sym("intern_x")
        a = E.bv_add(x, 7)
        b = E.bv_add(x, 7)
        assert E.bv_sub(a, b) == 0
        assert E.bv_xor(a, b) == 0


class TestCompiledEvaluation:
    def test_compiled_matches_evaluate(self):
        x, y = E.bv_sym("cx"), E.bv_sym("cy")
        expr = E.bv_add(E.bv_mul(E.bv_and(x, 0xFF), 3), E.bv_shift("shr",
                                                                   y, 4))
        model = {"cx": 0x1234, "cy": 0x80}
        assert E.compiled(expr)(model) == E.evaluate(expr, model)

    def test_compiled_all_kinds(self):
        x = E.bv_sym("ck", 8)
        wide = E.bv_zext(x, 32)
        cases = [
            E.bv_not(wide), E.bv_neg(wide),
            E.bv_concat([x, E.bv_sym("ck2", 8)]),
            E.bv_extract(E.bv_sym("ck3"), 8, 8),
            E.bv_divu(E.bv_sym("ck3"), wide),
            E.bv_remu(E.bv_sym("ck3"), wide),
            E.bv_cmp("slt", E.bv_sym("ck3"), 0),
            E.bv_cmp("sge", E.bv_sym("ck3"), wide),
            E.bv_shift("sar", E.bv_sym("ck3"), wide),
        ]
        for model in ({}, {"ck": 0xAB, "ck2": 0x7F, "ck3": 0xFFFF1234},
                      {"ck": 1, "ck3": 0x80000000}):
            for expr in cases:
                assert E.compiled(expr)(model) == E.evaluate(expr, model), \
                    repr(expr)

    def test_program_cached_on_node(self):
        x = E.bv_sym("cc_x")
        expr = E.bv_add(x, 11)
        assert E.compiled(expr) is E.compiled(expr)

    def test_division_by_zero_yields_zero(self):
        x, y = E.bv_sym("dz_x"), E.bv_sym("dz_y")
        assert E.compiled(E.bv_divu(x, y))({"dz_x": 7, "dz_y": 0}) == 0
        assert E.compiled(E.bv_remu(x, y))({"dz_x": 7, "dz_y": 0}) == 0

    def test_conjunction_bitmask(self):
        x = E.bv_sym("cj_x")
        constraints = (E.bv_cmp("ult", x, 10), E.bv_cmp("uge", x, 5),
                       E.bv_cmp("ne", x, 7))
        program = E.compiled_conjunction(constraints)
        assert program({"cj_x": 6}) == 0b111
        assert program({"cj_x": 7}) == 0b011
        assert program({"cj_x": 20}) == 0b110

    def test_counters_advance(self):
        x = E.bv_sym("ctr_x")
        with counting() as work:
            E.evaluate(E.bv_add(x, 1), {"ctr_x": 2})
        assert work["program_runs"] > 0
        assert work["node_visits"] > 0


class TestSolverContext:
    def make(self):
        return Solver(), SolverContext()

    def test_components_partition_by_symbols(self):
        _, ctx = self.make()
        x, y, z = (E.bv_sym(n) for n in ("sc_x", "sc_y", "sc_z"))
        ctx.add(E.bv_cmp("ult", x, 10))
        ctx.add(E.bv_cmp("ult", y, 10))
        assert len(list(ctx.components())) == 2
        # A constraint linking x and y merges their components.
        ctx.add(E.bv_cmp("eq", x, y))
        assert len(list(ctx.components())) == 1
        ctx.add(E.bv_cmp("ne", z, 0))
        assert len(list(ctx.components())) == 2

    def test_check_context_feasible_and_infeasible(self):
        solver, ctx = self.make()
        x = E.bv_sym("cf_x")
        ctx.add(E.bv_cmp("ult", x, 10))
        assert solver.check_context(ctx) is not None
        assert solver.check_context(ctx, E.bv_cmp("eq", x, 3)) is not None
        assert solver.check_context(ctx, E.bv_cmp("uge", x, 10)) is None
        # The probe did not pollute the context.
        assert solver.check_context(ctx) is not None

    def test_check_matches_find_model_verdicts(self):
        x, y = E.bv_sym("cm_x"), E.bv_sym("cm_y")
        queries = [
            [E.bv_cmp("ult", x, 100), E.bv_cmp("uge", x, 90)],
            [E.bv_cmp("eq", x, 1), E.bv_cmp("eq", x, 2)],
            [E.bv_cmp("eq", x, 7), E.bv_cmp("ult", x, y)],
            [E.bv_cmp("ne", E.bv_and(x, 0x10), 0)],
        ]
        for constraints in queries:
            reference = Solver().find_model(constraints) is not None
            solver, ctx = self.make()
            for constraint in constraints[:-1]:
                ctx.add(constraint)
            verdict = solver.check_context(ctx, constraints[-1]) is not None
            assert verdict == reference, constraints

    def test_fork_isolation(self):
        solver, ctx = self.make()
        x = E.bv_sym("fi_x")
        ctx.add(E.bv_cmp("ult", x, 10))
        child = ctx.fork()
        child.add(E.bv_cmp("uge", x, 5))
        assert len(next(iter(ctx.components())).constraints) == 1
        assert len(next(iter(child.components())).constraints) == 2
        assert solver.check_context(ctx, E.bv_cmp("eq", x, 2)) is not None
        assert solver.check_context(child, E.bv_cmp("eq", x, 2)) is None

    def test_witness_commit_keeps_fast_path(self):
        solver, ctx = self.make()
        x = E.bv_sym("wc_x")
        first = E.bv_cmp("ult", x, 10)
        witness = solver.check_context(ctx, first)
        ctx.add(first, model=witness)
        comp = next(iter(ctx.components()))
        assert comp.model is not None
        before = solver.fast_path_hits
        assert solver.check_context(ctx, E.bv_cmp("ult", x, 11)) is not None
        assert solver.fast_path_hits == before + 1

    def test_model_cache_reused_across_forks(self):
        solver, ctx = self.make()
        x = E.bv_sym("mc_x")
        ctx.add(E.bv_cmp("uge", x, 5))
        constraint = E.bv_cmp("ult", x, 4)   # forces a real (failing) solve
        assert solver.check_context(ctx, constraint) is None
        assert solver.verdict == UNKNOWN
        solves = solver.comp_solves
        sibling = ctx.fork()
        assert solver.check_context(sibling, constraint) is None
        # The cached failure stays UNKNOWN; it never becomes UNSAT.
        assert solver.verdict == UNKNOWN
        assert solver.unknown_results == 2
        assert solver.comp_solves == solves
        assert solver.cache_hits > 0

    def test_ground_false_context(self):
        solver, ctx = self.make()
        x = E.bv_sym("gf_x", 1)
        # A symbol-free contradiction that escaped constant folding.
        ctx.add(E.Expr("eq", 1, args=(1, 0)))
        assert ctx.ground_false
        assert solver.check_context(ctx, E.bv_cmp("eq", x, 1)) is None

    def test_concretize_context_prefers_hint(self):
        solver, ctx = self.make()
        x = E.bv_sym("cz_x")
        ctx.add(E.bv_cmp("ult", x, 100))
        value, model = solver.concretize_context(ctx, E.bv_add(x, 10),
                                                 prefer={"cz_x": 55})
        assert value == 65
        assert model["cz_x"] == 55

    def test_concretize_context_matches_legacy(self):
        x = E.bv_sym("cl_x")
        constraints = [E.bv_cmp("ult", x, 100), E.bv_cmp("uge", x, 90)]
        legacy_value, legacy_model = Solver().concretize(
            E.bv_add(x, 1), constraints)
        solver, ctx = self.make()
        for constraint in constraints:
            ctx.add(constraint)
        value, model = solver.concretize_context(ctx, E.bv_add(x, 1))
        assert value == legacy_value
        assert model == legacy_model


class TestDeterminism:
    def test_random_fallback_is_per_query_deterministic(self):
        x, y = E.bv_sym("dq_x"), E.bv_sym("dq_y")
        # An equality between two symbols: the same query on fresh
        # solvers must give the same model, symbol for symbol.
        constraints = [E.bv_cmp("eq", E.bv_xor(x, y), 0x12345678),
                       E.bv_cmp("uge", x, 3)]
        models = [Solver().find_model(constraints) for _ in range(3)]
        assert models[0] == models[1] == models[2]

    def test_solver_history_does_not_change_verdicts(self):
        x = E.bv_sym("dh_x")
        query = [E.bv_cmp("ult", x, 10), E.bv_cmp("uge", x, 5)]
        fresh = Solver().find_model(query)
        busy = Solver()
        for value in range(40):
            busy.find_model([E.bv_cmp("eq", E.bv_sym("dh_y"), value)])
        assert busy.find_model(query) == fresh


# -- three-valued verdicts ---------------------------------------------------
#
# Constraint sets over at most 12 symbol bits in total, so every verdict
# can be checked against enumerating every assignment.

_SYMBOLS = (("tv_a", 4), ("tv_b", 4), ("tv_c", 4))
_small = st.integers(0, 15)


def _term(draw):
    name, width = draw(st.sampled_from(_SYMBOLS))
    sym = E.bv_sym(name, width)
    form = draw(st.sampled_from(["sym", "and", "add", "sub", "xor", "pair"]))
    if form == "and":
        return E.bv_and(sym, draw(_small))
    if form == "add":
        return E.bv_add(sym, draw(_small))
    if form == "sub":
        return E.bv_sub(E.bv_and(sym, draw(_small)), draw(_small))
    if form == "xor":
        return E.bv_xor(sym, draw(_small))
    if form == "pair":
        other, other_width = draw(st.sampled_from(_SYMBOLS))
        return E.bv_add(sym, E.bv_sym(other, other_width))
    return sym


@st.composite
def _constraint_sets(draw):
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        if constraints and draw(st.booleans()) and draw(st.booleans()):
            # The negation of an earlier constraint: a contradiction the
            # solver can prove.
            constraint = E.bool_not(draw(st.sampled_from(constraints)))
        else:
            kind = draw(st.sampled_from(["eq", "ne", "ult", "uge", "slt",
                                         "sge"]))
            right = (_term(draw) if draw(st.booleans())
                     else draw(st.integers(0, 40)))
            constraint = E.bv_cmp(kind, _term(draw), right)
        if isinstance(constraint, E.Expr):
            constraints.append(constraint)
    return constraints


def _satisfiable(constraints):
    """Decide ``constraints`` by enumerating every assignment."""
    names = sorted(set().union(*(c.symbols() for c in constraints)))
    widths = dict(_SYMBOLS)
    program = E.compiled_conjunction(tuple(constraints))
    full = (1 << len(constraints)) - 1
    for values in itertools.product(*(range(1 << widths[n])
                                      for n in names)):
        if program(dict(zip(names, values))) == full:
            return True
    return False


def _check_cache(solver):
    """No cached verdict claims UNSAT without enumeration agreeing."""
    for (members, _projection), verdict in solver._model_cache.items():
        if isinstance(verdict, dict):
            assert all(E.evaluate(c, verdict) == 1 for c in members)
        else:
            assert verdict in (UNSAT, UNKNOWN)
            if verdict is UNSAT:
                assert not _satisfiable(list(members))


class TestThreeValuedVerdicts:
    @settings(max_examples=120, deadline=None)
    @given(constraints=_constraint_sets().filter(bool))
    def test_verdicts_agree_with_enumeration(self, constraints):
        solver = Solver()
        model = solver.find_model(constraints)
        if model is not None:
            assert solver.verdict == SAT
            for constraint in constraints:
                assert E.evaluate(constraint, model) == 1
        elif solver.verdict == UNSAT:
            assert not _satisfiable(constraints)
        else:
            assert solver.verdict == UNKNOWN
        _check_cache(solver)

        # The same set through the incremental API.
        ctx = SolverContext()
        for constraint in constraints[:-1]:
            ctx.add(constraint)
        witness = solver.check_context(ctx, constraints[-1])
        if witness is not None:
            # The witness covers the components the probe touches.
            assert E.evaluate(constraints[-1], witness) == 1
            for constraint in constraints:
                if constraint.symbols() <= witness.keys():
                    assert E.evaluate(constraint, witness) == 1
        elif solver.verdict == UNSAT:
            assert not _satisfiable(constraints)
        _check_cache(solver)
        assert solver.queries == (solver.sat_results + solver.unsat_results
                                  + solver.unknown_results)

    def test_smc91c111_window_query_is_never_unsat(self):
        # (x & 2047) - 6 >= 2, (x & 2047) - 8 >= 2, (x & 2047) - 10 < 2:
        # satisfied by x & 2047 in {10, 11}, which the greedy climb
        # misses.  It may be UNKNOWN; it must not be UNSAT.
        x = E.bv_sym("tv_smc_x")
        low = E.bv_and(x, 2047)
        constraints = [E.bv_cmp("uge", E.bv_sub(low, 6), 2),
                       E.bv_cmp("uge", E.bv_sub(low, 8), 2),
                       E.bv_cmp("ult", E.bv_sub(low, 10), 2)]
        solver = Solver()
        model = solver.find_model(constraints)
        if model is None:
            assert solver.verdict == UNKNOWN
            assert solver.unknown_results == 1
        else:
            assert all(E.evaluate(c, model) == 1 for c in constraints)
        assert solver.unsat_results == 0
        assert UNSAT not in solver._model_cache.values()

    def test_contradiction_is_proven_unsat(self):
        x = E.bv_sym("tv_pair_x")
        less = E.bv_cmp("ult", E.bv_and(x, 0xFF), 7)
        solver = Solver()
        assert solver.find_model([less, E.bool_not(less)]) is None
        assert solver.verdict == UNSAT
        assert (solver.unsat_results, solver.unknown_results) == (1, 0)


class TestBranchDropLabel:
    def _drop(self, state):
        executor = SymExecutor(None, Solver())
        cond = E.bv_cmp("eq", E.bv_sym("bd_x"), 2)
        successors, events = executor._branch(state, cond, 0x200, 0x300)
        assert successors == [] and len(events) == 1
        assert events[0].kind == "error"
        return events[0].detail

    def test_unknown_sides_are_not_called_infeasible(self):
        # Two constraints added without a witness leave the component
        # dirty; the search cannot satisfy it, so both sides are UNKNOWN.
        x = E.bv_sym("bd_x")
        state = SymState(0x100, [0] * 16, None,
                         constraints=[E.bv_cmp("uge", x, 5),
                                      E.bv_cmp("ult", x, 4)])
        assert self._drop(state) == "unknown branch"

    def test_proven_unsat_sides_are_infeasible(self):
        state = SymState(0x100, [0] * 16, None,
                         constraints=[E.Expr("eq", 1, args=(1, 0))])
        assert state.solver_ctx.ground_false
        assert self._drop(state) == "infeasible branch"
