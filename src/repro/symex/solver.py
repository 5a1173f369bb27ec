"""Heuristic bitvector constraint solver with incremental contexts.

The queries symbolic driver execution generates are overwhelmingly
comparisons of (chains of arithmetic/masking over) hardware-input symbols
against constants -- status-bit tests, length checks, OID dispatch.  This
solver decides them with a model-search strategy:

1. **candidate mining** -- constants appearing in the constraint trees
   (plus neighbours and boundary values) are candidate assignments;
2. **greedy per-symbol search** -- hill-climb one symbol at a time over the
   candidate set, keeping the assignment maximizing satisfied constraints.

Verdicts are three-valued.  A found model proves ``SAT``.  ``UNSAT`` is
claimed only with a proof: a constant-false constraint
(``SolverContext.ground_false``) or a constraint set holding some
constraint together with its negation.  Every other search failure is
``UNKNOWN``.  Queries return ``None`` for both, and callers drop that
side, as a timeout-bounded KLEE/STP drops paths whose feasibility cannot
be established in budget; the solver counts each dropped query by verdict
(``unsat_results`` / ``unknown_results``) and leaves the latest one in
``verdict``.  See DESIGN.md ("The model-search substitution").

Solving is *incremental*: a :class:`SolverContext` (one per execution
state, forked with it) maintains the path constraints partitioned into
symbol-connected components with a union-find, each component carrying a
cached witness model.  A new branch constraint only touches the components
its symbols connect to; every other component reuses its witness.  On top
of that, solved components are memoized on the solver in a KLEE-style
model cache keyed by the interned constraint set, so sibling forks and
re-explorations of the same path prefix never re-search.
"""

from repro.symex.expr import (Expr, bool_not, compiled, compiled_conjunction,
                              evaluate)

_BOUNDARY_VALUES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 0x10, 0x20, 0x40, 0x7F, 0x80,
                    0xFF, 0x100, 0x5EA, 0x5EB, 0x600, 0xFFFF, 0x10000,
                    0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF)

#: Query verdicts.  A ``SAT`` component solve yields its model (a dict);
#: the other two are what the model cache stores instead of one.
SAT = "sat"
UNSAT = "unsat"          # proven: no assignment satisfies the constraints
UNKNOWN = "unknown"      # the search found no model; nothing is proven


def _all_hold(programs, model):
    """True iff every program evaluates ``model`` to 1.  Runs them in
    order and stops at the first that does not."""
    for program in programs:
        if program(model) != 1:
            return False
    return True


def _refuted(members):
    """True when the constraint set holds some constraint and its
    negation -- the contradiction a failed search can prove cheaply."""
    for constraint in members:
        if bool_not(constraint) in members:
            return True
    return False


class _Component:
    """One symbol-connected slice of a context's path constraints.

    Treated as immutable: merges and witness updates build a new instance,
    so forked contexts can share components structurally.
    """

    __slots__ = ("constraints", "members", "symbols", "model")

    def __init__(self, constraints, members, symbols, model):
        self.constraints = constraints      # tuple, insertion order
        self.members = members              # frozenset of the tuple
        self.symbols = symbols              # frozenset of symbol names
        self.model = model                  # witness dict or None (dirty)

    def with_model(self, model):
        return _Component(self.constraints, self.members, self.symbols,
                          model)


class SolverContext:
    """Per-state incremental view of the path constraints.

    Maintains symbol -> component membership with a union-find as
    constraints are added, replacing the O(n^2) re-partition the solver
    previously ran on every query.  Forks share component objects
    copy-on-write, so forking is O(symbols) dictionary copies.
    """

    __slots__ = ("_parent", "_comps", "ground_false")

    def __init__(self):
        self._parent = {}       # symbol -> parent symbol (union-find)
        self._comps = {}        # root symbol -> _Component
        self.ground_false = False

    # -- union-find ----------------------------------------------------

    def _find(self, symbol):
        parent = self._parent
        root = symbol
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(symbol, symbol) != root:
            parent[symbol], symbol = root, parent[symbol]
        return root

    # -- queries -------------------------------------------------------

    def components(self):
        """The current components (arbitrary but deterministic order)."""
        return self._comps.values()

    def affected(self, symbols):
        """Components any of ``symbols`` belongs to.

        Symbols are visited in sorted order so the returned component
        order -- and everything downstream of it (merged constraint
        order, greedy-search tie-breaking) -- is independent of string
        hash randomization.  Cross-process artifact byte-equality
        depends on this.
        """
        seen = set()
        out = []
        for symbol in sorted(symbols):
            root = self._find(symbol)
            comp = self._comps.get(root)
            if comp is not None and id(comp) not in seen:
                seen.add(id(comp))
                out.append(comp)
        return out

    def constraint_count(self):
        return sum(len(c.constraints) for c in self._comps.values())

    # -- updates -------------------------------------------------------

    def set_model(self, component, model):
        """Attach a witness to ``component`` (replaces the instance)."""
        root = self._find(next(iter(component.symbols)))
        self._comps[root] = component.with_model(model)

    def add(self, constraint, model=None):
        """Add a path constraint, merging the components it connects.

        ``model``, when given, must be a witness satisfying the new
        constraint *and* every constraint of the components it touches; it
        becomes the merged component's cached model.  Without a witness
        the merged component tries to extend the old witnesses past the
        new constraint, and goes dirty (re-solved lazily) if that fails.
        """
        symbols = constraint.symbols()
        if not symbols:
            if evaluate(constraint, {}) != 1:
                self.ground_false = True
            return
        parent = self._parent
        roots = []
        # Sorted for cross-process determinism: the merge order decides
        # the merged component's constraint order (see affected()).
        for symbol in sorted(symbols):
            root = self._find(symbol)
            if root not in roots:
                roots.append(root)
        comps = [self._comps[r] for r in roots if r in self._comps]

        if len(comps) == 1 and constraint in comps[0].members \
                and symbols <= comps[0].symbols:
            if model is not None:
                merged_syms = comps[0].symbols
                self.set_model(comps[0], {s: model.get(s, 0)
                                          for s in merged_syms})
            return

        constraints = []
        members = set()
        merged_syms = set(symbols)
        for comp in comps:
            constraints.extend(comp.constraints)
            members.update(comp.members)
            merged_syms |= comp.symbols
        if constraint not in members:
            constraints.append(constraint)
            members.add(constraint)

        new_root = roots[0]
        for root in roots[1:]:
            parent[root] = new_root
            self._comps.pop(root, None)
        for symbol in sorted(symbols):
            if parent.get(symbol, symbol) != new_root and symbol != new_root:
                parent[symbol] = new_root

        if model is not None:
            witness = {s: model.get(s, 0) for s in merged_syms}
        else:
            witness = self._merge_witness(comps, constraint, merged_syms)
        self._comps[new_root] = _Component(tuple(constraints),
                                           frozenset(members),
                                           frozenset(merged_syms), witness)

    @staticmethod
    def _merge_witness(comps, constraint, merged_syms):
        """Try to extend the old component witnesses past ``constraint``."""
        union = {}
        for comp in comps:
            if comp.model is None:
                return None
            union.update(comp.model)
        if compiled(constraint)(union) != 1:
            return None
        return {s: union.get(s, 0) for s in merged_syms}

    def fork(self):
        child = SolverContext.__new__(SolverContext)
        child._parent = dict(self._parent)
        child._comps = dict(self._comps)
        child.ground_false = self.ground_false
        return child


class Solver:
    """Model finder over conjunctions of 1-bit constraint expressions."""

    def __init__(self, greedy_passes=3):
        self.greedy_passes = greedy_passes
        self.queries = 0
        self.sat_results = 0
        #: queries answered ``None``, by verdict (both drop the side)
        self.unsat_results = 0
        self.unknown_results = 0
        #: verdict of the most recent query: SAT, UNSAT or UNKNOWN
        self.verdict = None
        #: model searches actually run (cache/fast-path misses)
        self.comp_solves = 0
        self.cache_hits = 0
        self.fast_path_hits = 0
        self._model_cache = {}

    # ------------------------------------------------------------------
    # Incremental (context) API

    def check_context(self, ctx, extra=None, prefer=None):
        """Feasibility of ``ctx``'s constraints plus optional ``extra``.

        Returns a witness model covering the components ``extra`` touches
        (plus ``prefer`` pass-through), or ``None`` when no model was found
        (``self.verdict`` then says UNSAT or UNKNOWN).  Does
        not add ``extra`` to the context; cached witnesses for components
        the probe does not touch are reused untouched, which is what makes
        per-branch feasibility O(new component) instead of O(path).
        """
        self.queries += 1
        if ctx.ground_false:
            return self._dropped(UNSAT)
        prefer = prefer or {}
        for comp in list(ctx.components()):
            if comp.model is None:
                solved = self._component_model(comp.constraints,
                                               comp.symbols, prefer)
                if not isinstance(solved, dict):
                    return self._dropped(solved)
                ctx.set_model(comp, solved)

        if extra is None:
            merged = dict(prefer)
            for comp in ctx.components():
                merged.update(comp.model)
            return self._sat(merged)

        symbols = extra.symbols()
        affected = ctx.affected(symbols)
        env = {}
        for comp in affected:
            env.update(comp.model)
        for symbol in symbols:
            if symbol not in env and symbol in prefer:
                env[symbol] = prefer[symbol]
        if compiled(extra)(env) == 1:
            # Fast path: the accumulated witnesses already satisfy the
            # new constraint, so the conjunction is satisfiable as-is.
            self.fast_path_hits += 1
            witness = dict(env)
            for symbol in symbols:
                witness.setdefault(symbol, 0)
            return self._sat(witness)

        constraints = []
        members = set()
        all_symbols = set(symbols)
        for comp in affected:
            for constraint in comp.constraints:
                if constraint not in members:
                    members.add(constraint)
                    constraints.append(constraint)
            all_symbols |= comp.symbols
        if extra not in members:
            constraints.append(extra)
        solved = self._component_model(tuple(constraints), all_symbols,
                                       prefer)
        if not isinstance(solved, dict):
            return self._dropped(solved)
        return self._sat(solved)

    def concretize_context(self, ctx, expr, prefer=None):
        """Pick a concrete value for ``expr`` consistent with the
        context's constraints; returns ``(value, model)`` or
        ``(None, None)`` when no model was found (see ``self.verdict``).

        Mirrors the legacy :meth:`concretize` exactly: each component
        first tries the ``prefer`` projection (so concretizations stay
        stable along a path) and only searches when the hint fails.
        """
        self.queries += 1
        if ctx.ground_false:
            self._dropped(UNSAT)
            return None, None
        prefer = prefer or {}
        merged = dict(prefer)
        for comp in ctx.components():
            projection = {s: prefer.get(s, 0) for s in comp.symbols}
            conjunction = compiled_conjunction(comp.constraints)
            if conjunction(projection) == (1 << len(comp.constraints)) - 1:
                merged.update(projection)
                continue
            solved = self._component_model(comp.constraints, comp.symbols,
                                           prefer)
            if not isinstance(solved, dict):
                self._dropped(solved)
                return None, None
            merged.update(solved)
        self._sat(merged)
        return evaluate(expr, merged), merged

    # ------------------------------------------------------------------
    # Legacy list API (kept for tests and ad-hoc queries)

    def find_model(self, constraints, prefer=None):
        """Return a satisfying ``{symbol: value}`` or ``None``.

        ``prefer`` optionally seeds the search with a partial model, so
        concretizations stay stable along a path.
        """
        self.queries += 1
        constraints = [c for c in constraints if not isinstance(c, int)
                       or c == 0]
        if any(isinstance(c, int) and c == 0 for c in constraints):
            return self._dropped(UNSAT)
        if not constraints:
            return self._sat(dict(prefer or {}))

        # Partition through a throwaway context: one union-find
        # implementation (SolverContext.add) serves both the incremental
        # and the list API.
        ctx = SolverContext()
        for constraint in constraints:
            ctx.add(constraint)
        if ctx.ground_false:
            return self._dropped(UNSAT)
        merged = dict(prefer or {})
        for comp in ctx.components():
            result = self._component_model(comp.constraints, comp.symbols,
                                           merged)
            if not isinstance(result, dict):
                return self._dropped(result)
            merged.update(result)
        return self._sat(merged)

    def is_feasible(self, constraints):
        """True when a model was found for the conjunction."""
        return self.find_model(constraints) is not None

    def concretize(self, expr, constraints, prefer=None):
        """Pick a concrete value for ``expr`` consistent with
        ``constraints``; returns ``(value, model)`` or ``(None, None)``."""
        model = self.find_model(constraints, prefer=prefer)
        if model is None:
            return None, None
        return evaluate(expr, model), model

    # ------------------------------------------------------------------
    # Verdict accounting

    def _sat(self, model):
        self.verdict = SAT
        self.sat_results += 1
        return model

    def _dropped(self, verdict):
        """Record a query that found no model; its caller drops it."""
        self.verdict = verdict
        if verdict is UNSAT:
            self.unsat_results += 1
        else:
            self.unknown_results += 1
        return None

    # ------------------------------------------------------------------
    # Component solving + model cache

    def _component_model(self, constraints, symbols, prefer):
        """Solve one component (cached): a model dict, UNSAT or UNKNOWN.

        The cache key is the interned constraint set plus the relevant
        ``prefer`` projection -- sound because interning makes a
        constraint set's identity structural, and the search below is a
        deterministic function of exactly those inputs.  Subset/superset
        reuse: a cached model for the set minus the newest constraint is
        re-tried on the full set before searching from scratch.
        """
        projection = tuple(sorted((s, prefer[s]) for s in symbols
                                  if s in prefer))
        members = frozenset(constraints)
        key = (members, projection)
        cached = self._model_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached

        # Superset reuse (KLEE-style): a model found for this set minus
        # its most recent constraint often satisfies the new one too.
        if len(constraints) > 1:
            subset_key = (frozenset(constraints[:-1]), projection)
            subset = self._model_cache.get(subset_key)
            if isinstance(subset, dict) \
                    and compiled(constraints[-1])(subset) == 1:
                model = dict(subset)
                for symbol in constraints[-1].symbols():
                    model.setdefault(symbol, 0)
                self.cache_hits += 1
                self._model_cache[key] = model
                return model

        model = self._search(list(constraints), symbols, prefer)
        if model is None:
            model = UNSAT if _refuted(members) else UNKNOWN
        self._model_cache[key] = model
        return model

    def _search(self, constraints, symbols, prefer):
        """The model search (uncached): a model, or ``None`` when the
        greedy climb finds none."""
        self.comp_solves += 1
        symbols = sorted(symbols)
        programs = [compiled(c) for c in constraints]
        model = {name: prefer.get(name, 0) for name in symbols}
        if _all_hold(programs, model):
            return model
        return self._greedy_search(constraints, programs, symbols,
                                   self._mine_candidates(constraints), model)

    # ------------------------------------------------------------------

    def _mine_candidates(self, constraints):
        mined = set(_BOUNDARY_VALUES)
        seen = set()
        stack = list(constraints)
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                value = node & 0xFFFFFFFF
                for delta in (-2, -1, 0, 1, 2):
                    mined.add((value + delta) & 0xFFFFFFFF)
                # Values helpful against masks / shifted comparisons.
                mined.add((value << 8) & 0xFFFFFFFF)
                mined.add((value << 16) & 0xFFFFFFFF)
                mined.add((value >> 8) & 0xFFFFFFFF)
                if value:
                    mined.add((~value) & 0xFFFFFFFF)
                continue
            if isinstance(node, Expr):
                marker = id(node)
                if marker in seen:
                    continue
                seen.add(marker)
                stack.extend(node.args)
        return sorted(mined)

    @staticmethod
    def _satisfied_mask(programs, model):
        mask = 0
        bit = 1
        for program in programs:
            if program(model) == 1:
                mask |= bit
            bit <<= 1
        return mask

    def _greedy_search(self, constraints, programs, symbols, candidates,
                       model):
        model = dict(model)
        satisfied = self._satisfied_mask(programs, model)
        full = (1 << len(constraints)) - 1
        # Changing one symbol can only flip constraints that mention it, so
        # the hill climb scores candidates against a compiled conjunction
        # of just that slice (subtrees shared across the slice are
        # evaluated once per candidate).  Slice tuples only change when a
        # new constraint mentions the symbol, so the conjunction cache
        # absorbs component growth elsewhere.
        by_symbol = {}
        slice_masks = {name: 0 for name in symbols}
        indices = {name: [] for name in symbols}
        for index, constraint in enumerate(constraints):
            bit = 1 << index
            for name in constraint.symbols():
                if name in slice_masks:
                    slice_masks[name] |= bit
                    indices[name].append(index)
        for name in symbols:
            if indices[name]:
                by_symbol[name] = (compiled_conjunction(
                    tuple(constraints[i] for i in indices[name])),
                    indices[name])
        for _ in range(self.greedy_passes):
            improved = False
            for name in symbols:
                entry = by_symbol.get(name)
                if entry is None:
                    continue
                scorer, slice_indices = entry
                slice_size = len(slice_indices)
                original = model[name]
                best_value = original
                best_local = (satisfied & slice_masks[name]).bit_count()
                if best_local == slice_size:
                    # Every affected constraint already holds; no strictly
                    # better candidate exists, so the scan is skipped.
                    continue
                for value in candidates:
                    if value == original:
                        continue
                    model[name] = value
                    local = scorer(model).bit_count()
                    if local > best_local:
                        best_local = local
                        best_value = value
                        if best_local == slice_size:
                            break
                model[name] = best_value
                if best_value != original:
                    improved = True
                    # Only this symbol's slice can have flipped: patch its
                    # bits back into the global mask from the slice score.
                    local = scorer(model)
                    patched = 0
                    for offset, index in enumerate(slice_indices):
                        if (local >> offset) & 1:
                            patched |= 1 << index
                    satisfied = (satisfied & ~slice_masks[name]) | patched
                    if satisfied == full:
                        return model
            if not improved:
                break
        if satisfied == full:
            return model
        return None
