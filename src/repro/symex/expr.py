"""Bitvector expression language for symbolic execution.

Expressions are immutable, *hash-consed* DAGs over named symbols and
constants.  Smart constructors perform aggressive local simplification
(constant folding, identity/annihilator elimination, extract-of-concat
fusion) so that the expressions reaching the solver stay small -- the same
role KLEE's expression rewriting plays.

Three properties make expressions cheap to solve against (see DESIGN.md):

* **structural interning** -- ``Expr.__new__`` returns the canonical node
  for each distinct ``(kind, width, args, name, lo)`` tuple, so structural
  equality *is* identity and a node is a sound dictionary/cache key;
* **cached symbol sets** -- ``symbols()`` returns a frozenset computed once
  per node and shared by every holder;
* **compiled evaluation** -- ``compiled(expr)`` lowers a DAG once into a
  flat Python function (postorder, no recursion, no per-node dispatch)
  that maps a ``{symbol: int}`` model to the expression's value; each
  distinct DAG shape is compiled once and its code object reused.

Plain Python ints are used for fully concrete values throughout the engine;
an :class:`Expr` only appears once a value actually depends on a symbol.
"""

from repro.counters import CELLS, EVAL, NAMES, snapshot

_MASKS = {1: 1, 8: 0xFF, 16: 0xFFFF, 32: 0xFFFFFFFF}


def _mask(width):
    return (1 << width) - 1


class Expr:
    """A bitvector expression of ``width`` bits (interned).

    ``kind`` is one of: ``sym``, ``add sub and or xor shl shr sar mul divu
    remu``, ``not neg``, ``zext``, ``extract`` (args: operand; ``lo`` bit
    offset), ``concat`` (little-endian: args[0] is least significant).
    Comparison kinds (``eq ne slt sge ult uge``) have width 1.

    Instances are hash-consed: constructing the same structure twice
    returns the same object, so ``a is b`` iff ``a`` and ``b`` are
    structurally equal.  Do not mutate nodes.
    """

    __slots__ = ("kind", "width", "args", "name", "lo",
                 "_hash", "_symbols", "_program")

    _intern = {}

    def __new__(cls, kind, width, args=(), name="", lo=0):
        key = (kind, width, args, name, lo)
        table = cls._intern
        self = table.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.kind = kind
        self.width = width
        self.args = args
        self.name = name
        self.lo = lo
        self._hash = hash(key)
        self._symbols = None
        self._program = None
        table[key] = self
        return self

    def __hash__(self):
        return self._hash

    # Interning makes identity equality complete: two structurally equal
    # expressions are the same object, so the default object.__eq__ /
    # __ne__ (identity) are exactly right and comparisons stay O(1).

    def symbols(self):
        """The (frozen, cached) set of symbol names this depends on."""
        cached = self._symbols
        if cached is not None:
            return cached
        # Iterative bottom-up: resolve children first so deep DAGs do not
        # hit the recursion limit; every node's set is computed once ever.
        stack = [self]
        while stack:
            node = stack[-1]
            if node._symbols is not None:
                stack.pop()
                continue
            if node.kind == "sym":
                node._symbols = frozenset((node.name,))
                stack.pop()
                continue
            pending = [a for a in node.args
                       if isinstance(a, Expr) and a._symbols is None]
            if pending:
                stack.extend(pending)
                continue
            out = frozenset()
            for arg in node.args:
                if isinstance(arg, Expr):
                    out |= arg._symbols
            node._symbols = out
            stack.pop()
        return self._symbols

    def __repr__(self):
        return "<%s:%d %s>" % (self.kind, self.width, self.name or
                               ",".join(repr(a) for a in self.args))


#: Alias used where an expression is known to be a 1-bit condition.
BoolExpr = Expr


def is_concrete(value):
    """True when ``value`` is a plain integer (no symbolic dependence)."""
    return isinstance(value, int)


def bv_sym(name, width=32):
    """A fresh (or named) symbolic variable."""
    return Expr("sym", width, name=name)


def _binop(kind, a, b, width, fold):
    if isinstance(a, int) and isinstance(b, int):
        return fold(a, b) & _mask(width)
    return Expr(kind, width, args=(a, b))


def bv_add(a, b, width=32):
    if b == 0:
        return a
    if a == 0 and isinstance(b, Expr):
        return b
    # (x + c1) + c2 -> x + (c1 + c2)
    if isinstance(b, int) and isinstance(a, Expr) and a.kind == "add" \
            and isinstance(a.args[1], int):
        return bv_add(a.args[0], (a.args[1] + b) & _mask(width), width)
    return _binop("add", a, b, width, lambda x, y: x + y)


def bv_sub(a, b, width=32):
    if isinstance(b, int):
        if b == 0:
            return a
        return bv_add(a, (-b) & _mask(width), width)
    if a is b:
        return 0
    return _binop("sub", a, b, width, lambda x, y: x - y)


def bv_and(a, b, width=32):
    if a == 0 or b == 0:
        return 0
    full = _mask(width)
    if isinstance(b, int) and b == full:
        return a
    if isinstance(a, int) and a == full:
        return b
    # (x & c1) & c2 -> x & (c1 & c2)
    if isinstance(b, int) and isinstance(a, Expr) and a.kind == "and" \
            and isinstance(a.args[1], int):
        return bv_and(a.args[0], a.args[1] & b, width)
    return _binop("and", a, b, width, lambda x, y: x & y)


def bv_or(a, b, width=32):
    if a == 0:
        return b
    if b == 0:
        return a
    return _binop("or", a, b, width, lambda x, y: x | y)


def bv_xor(a, b, width=32):
    if a == 0:
        return b
    if b == 0:
        return a
    if isinstance(a, Expr) and a is b:
        return 0
    return _binop("xor", a, b, width, lambda x, y: x ^ y)


def _shift_fold(kind):
    return {
        "shl": lambda x, y: x << (y & 31),
        "shr": lambda x, y: x >> (y & 31),
        "sar": lambda x, y: (_signed32(x) >> (y & 31)),
    }[kind]


def _signed32(value):
    return value - (1 << 32) if value & 0x8000_0000 else value


def bv_shift(kind, a, b, width=32):
    if isinstance(b, int):
        b &= 31
        if b == 0:
            return a
    return _binop(kind, a, b, width, _shift_fold(kind))


def bv_mul(a, b, width=32):
    if a == 0 or b == 0:
        return 0
    if b == 1:
        return a
    if a == 1:
        return b
    return _binop("mul", a, b, width, lambda x, y: x * y)


def bv_divu(a, b, width=32):
    if isinstance(b, int) and b == 1:
        return a
    return _binop("divu", a, b, width,
                  lambda x, y: x // y if y else 0)


def bv_remu(a, b, width=32):
    return _binop("remu", a, b, width,
                  lambda x, y: x % y if y else 0)


def bv_not(a, width=32):
    if isinstance(a, int):
        return (~a) & _mask(width)
    if a.kind == "not":
        return a.args[0]
    return Expr("not", width, args=(a,))


def bv_neg(a, width=32):
    if isinstance(a, int):
        return (-a) & _mask(width)
    return Expr("neg", width, args=(a,))


def bv_zext(a, width):
    """Zero-extend ``a`` to ``width`` bits."""
    if isinstance(a, int):
        return a
    if a.width == width:
        return a
    return Expr("zext", width, args=(a,))


def bv_extract(a, lo_bit, width):
    """Extract ``width`` bits starting at bit ``lo_bit``."""
    if isinstance(a, int):
        return (a >> lo_bit) & _mask(width)
    if lo_bit == 0 and a.width == width:
        return a
    if a.kind == "zext":
        inner = a.args[0]
        if lo_bit + width <= inner.width or isinstance(inner, int):
            return bv_extract(inner, lo_bit, width)
        if lo_bit >= inner.width:
            return 0
    if a.kind == "concat":
        # Byte-granular concat: find the covered parts.
        return _extract_from_concat(a, lo_bit, width)
    if a.kind == "extract":
        return bv_extract(a.args[0], a.lo + lo_bit, width)
    return Expr("extract", width, args=(a,), lo=lo_bit)


def _extract_from_concat(concat, lo_bit, width):
    offset = 0
    parts = []
    need_lo = lo_bit
    need_hi = lo_bit + width
    for part in concat.args:
        part_width = 32 if isinstance(part, int) else part.width
        part_lo, part_hi = offset, offset + part_width
        overlap_lo = max(need_lo, part_lo)
        overlap_hi = min(need_hi, part_hi)
        if overlap_lo < overlap_hi:
            piece = bv_extract(part, overlap_lo - part_lo,
                               overlap_hi - overlap_lo)
            parts.append(piece)
        offset = part_hi
    if not parts:
        return 0
    if len(parts) == 1:
        return parts[0]
    return bv_concat(parts)


def bv_concat(parts):
    """Concatenate little-endian parts (parts[0] = least significant)."""
    widths = [32 if isinstance(p, int) else p.width for p in parts]
    total = sum(widths)
    if all(isinstance(p, int) for p in parts):
        value = 0
        shift = 0
        for part, width in zip(parts, widths):
            value |= (part & _mask(width)) << shift
            shift += width
        return value
    if len(parts) == 1:
        return parts[0]
    return Expr("concat", total, args=tuple(parts))


_CMP_FOLDS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "ult": lambda a, b: a < b,
    "uge": lambda a, b: a >= b,
    "slt": lambda a, b: _signed32(a) < _signed32(b),
    "sge": lambda a, b: _signed32(a) >= _signed32(b),
}


def bv_cmp(kind, a, b):
    """Comparison producing a 1-bit expression (or 0/1 int)."""
    if isinstance(a, int) and isinstance(b, int):
        return 1 if _CMP_FOLDS[kind](a, b) else 0
    if isinstance(a, Expr) and a is b:
        if kind in ("eq", "uge", "sge"):
            return 1
        if kind in ("ne", "ult", "slt"):
            return 0
    return Expr(kind, 1, args=(a, b))


def bool_not(cond):
    """Negate a 1-bit condition."""
    if isinstance(cond, int):
        return 0 if cond else 1
    negations = {"eq": "ne", "ne": "eq", "ult": "uge", "uge": "ult",
                 "slt": "sge", "sge": "slt"}
    if cond.kind in negations:
        return Expr(negations[cond.kind], 1, args=cond.args)
    return Expr("eq", 1, args=(cond, 0))


BINOP_BUILDERS = {
    "add": bv_add,
    "sub": bv_sub,
    "and": bv_and,
    "or": bv_or,
    "xor": bv_xor,
    "shl": lambda a, b, w=32: bv_shift("shl", a, b, w),
    "shr": lambda a, b, w=32: bv_shift("shr", a, b, w),
    "sar": lambda a, b, w=32: bv_shift("sar", a, b, w),
    "mul": bv_mul,
    "divu": bv_divu,
    "remu": bv_remu,
}


# ==========================================================================
# Compiled evaluation
#
# A constraint DAG is lowered once into the source of a flat Python
# function: one assignment per distinct node in postorder (shared subtrees
# are emitted once), symbols read through ``model.get``, all semantics
# identical to the old recursive evaluator.  The compiled function is
# cached on the interned node, so every state/fork/query that reaches the
# same constraint reuses the same program; its code object is shared by
# every DAG of the same shape (see ``_SHAPES``).

_SIGNED = "(%s - 4294967296 if %s & 2147483648 else %s)"


def _shape(exprs):
    """One postorder walk over the distinct Expr nodes of ``exprs``.

    Returns ``(key, names, consts, count)``.  ``key`` is the structural
    shape as one flat tuple: per node, children before parents, its kind,
    width, extract offset and operand count, then one slot per operand --
    an earlier node's position, or ``None`` for a constant; last come the
    slots of ``exprs`` themselves and their count.  ``names`` (one per
    ``sym`` node) and ``consts`` (one per ``None`` slot) are the values a
    program of that shape binds, in slot order.  ``count`` is the number
    of distinct nodes.
    """
    place = {}
    names = []
    consts = []
    shape = []
    emit = shape.append
    seen = set()
    stack = [(e, False) for e in reversed(exprs) if isinstance(e, Expr)]
    while stack:
        node, expanded = stack.pop()
        marker = id(node)
        if expanded:
            if node.kind == "sym":
                names.append(node.name)
            place[marker] = len(place)
            args = node.args
            shape += (node.kind, node.width, node.lo, len(args))
            for arg in args:
                if isinstance(arg, int):
                    consts.append(arg)
                    emit(None)
                else:
                    emit(place[id(arg)])
            continue
        if marker in seen:
            continue
        seen.add(marker)
        stack.append((node, True))
        for arg in node.args:
            if isinstance(arg, Expr) and id(arg) not in seen:
                stack.append((arg, False))
    for root in exprs:
        if isinstance(root, int):
            consts.append(root)
            emit(None)
        else:
            emit(place[id(root)])
    emit(len(exprs))
    return tuple(shape), names, consts, len(place)


def _program_source(key):
    """The source of the program factory for one structural shape.

    The factory's parameters are the shape's symbol names (``s0, s1,
    ...``) and constants (``k0, k1, ...``); the program it returns has
    one assignment per node.  A shape of one root returns that root's
    value; of several, a bitmask with bit *i* set iff root *i* is 1.
    """
    end = len(key) - 1 - key[-1]
    roots = key[end:-1]
    nodes = []          # (kind, width, lo, operand slots)
    at = 0
    while at < end:
        kind, width, lo, arity = key[at:at + 4]
        nodes.append((kind, width, lo, key[at + 4:at + 4 + arity]))
        at += 4 + arity
    symbols = constants = 0     # parameters bound so far
    lines = []

    def ref(slot):
        nonlocal constants
        if slot is None:
            constants += 1
            return "k%d" % (constants - 1)
        return "v%d" % slot

    for index, (kind, width, lo, args) in enumerate(nodes):
        mask = _mask(width)
        if kind == "sym":
            symbols += 1
            rhs = "g(s%d, 0) & %d" % (symbols - 1, mask)
        elif kind == "zext":
            rhs = ref(args[0])
        elif kind == "extract":
            rhs = "(%s >> %d) & %d" % (ref(args[0]), lo, mask)
        elif kind == "concat":
            shift = 0
            pieces = []
            for part in args:
                part_width = 32 if part is None else nodes[part][1]
                masked = "(%s & %d)" % (ref(part), _mask(part_width))
                pieces.append(masked if shift == 0
                              else "(%s << %d)" % (masked, shift))
                shift += part_width
            rhs = " | ".join(pieces)
        elif kind == "not":
            rhs = "~%s & %d" % (ref(args[0]), mask)
        elif kind == "neg":
            rhs = "-%s & %d" % (ref(args[0]), mask)
        elif kind in ("eq", "ne", "ult", "uge", "slt", "sge"):
            a, b = ref(args[0]), ref(args[1])
            if kind in ("slt", "sge"):
                a = _SIGNED % (a, a, a)
                b = _SIGNED % (b, b, b)
            op = {"eq": "==", "ne": "!=", "ult": "<", "uge": ">=",
                  "slt": "<", "sge": ">="}[kind]
            rhs = "1 if %s %s %s else 0" % (a, op, b)
        else:
            a, b = ref(args[0]), ref(args[1])
            if kind == "add":
                body = "%s + %s" % (a, b)
            elif kind == "sub":
                body = "%s - %s" % (a, b)
            elif kind == "and":
                body = "%s & %s" % (a, b)
            elif kind == "or":
                body = "%s | %s" % (a, b)
            elif kind == "xor":
                body = "%s ^ %s" % (a, b)
            elif kind == "shl":
                body = "%s << (%s & 31)" % (a, b)
            elif kind == "shr":
                body = "%s >> (%s & 31)" % (a, b)
            elif kind == "sar":
                body = "%s >> (%s & 31)" % (_SIGNED % (a, a, a), b)
            elif kind == "mul":
                body = "%s * %s" % (a, b)
            elif kind == "divu":
                body = "(%s // %s if %s else 0)" % (a, b, b)
            elif kind == "remu":
                body = "(%s %% %s if %s else 0)" % (a, b, b)
            else:  # pragma: no cover
                raise TypeError("cannot compile kind %r" % (kind,))
            rhs = "(%s) & %d" % (body, mask)
        lines.append("        v%d = %s" % (index, rhs))

    result = " | ".join(
        ref(root) if shift == 0 else "(%s << %d)" % (ref(root), shift)
        for shift, root in enumerate(roots))
    params = ["s%d" % i for i in range(symbols)]
    params += ["k%d" % i for i in range(constants)]
    return ("def _factory(%s):\n"
            "    def _program(m):\n"
            "        _c[%d] += 1\n"
            "        _c[%d] += %d\n"
            "        g = m.get\n"
            "%s\n"
            "        return %s\n"
            "    return _program\n") % (", ".join(params), _RUNS, _VISITS,
                                       len(nodes), "\n".join(lines), result)


def _compile_program(expr, roots=None):
    """Lower one DAG (or, with ``roots``, a conjunction of 1-bit DAGs
    sharing subtrees) into a flat evaluation function.

    With ``roots`` the function returns a bitmask with bit *i* set iff
    ``roots[i]`` evaluates to 1 -- the representation the solver's greedy
    hill-climb scores against.

    Each distinct structural shape (see :func:`_shape`) is lowered to
    source and compiled once, on its first use; every DAG of that shape
    binds its own names and constants into a fresh closure over the same
    code object.
    """
    key, names, consts, count = _shape(roots if roots is not None
                                       else (expr,))
    factory = _SHAPES.get(key)
    if factory is None:
        namespace = {"_c": CELLS}
        exec(compile(_program_source(key), "<expr-program>", "exec"),
             namespace)
        factory = namespace["_factory"]
        if len(_SHAPES) >= _SHAPES_MAX:
            _SHAPES.clear()
        _SHAPES[key] = factory
    CELLS[_PROGRAMS] += 1
    CELLS[_LOWERED] += count
    return factory(*names, *consts)


#: Shape-keyed factory table: the structural shape of a program (kinds,
#: widths, extract offsets, which operands are shared and which are
#: constants) maps to its compiled factory, so constraints that differ
#: only in constants and symbol names (the same check on another ring
#: descriptor) share one code object.  The shape determines the source
#: text, which is generated only on a miss.  Bounded: once full the table
#: is cleared (semantics-safe -- every entry is a pure function of its
#: key, and live programs keep their closures).
_SHAPES = {}
_SHAPES_MAX = 4096


#: This module's cells in ``repro.counters.CELLS``: program runs, node
#: visits, programs compiled, nodes lowered.
_RUNS, _VISITS, _PROGRAMS, _LOWERED = map(NAMES.index, EVAL)


def eval_counters():
    """Process totals of the compiled-evaluation counters."""
    return snapshot(EVAL)


def compiled(expr):
    """The compiled evaluation program of ``expr`` (cached on the node).

    Returns a function ``program(model) -> int`` with semantics identical
    to :func:`evaluate`; unbound symbols read as 0.
    """
    program = expr._program
    if program is None:
        program = _compile_program(expr)
        expr._program = program
    return program


#: Conjunction table: a tuple of 1-bit roots maps to its parts
#: ``(prefix, k, delta)`` (see :func:`conjunction_parts`).  An entry whose
#: ``delta`` is ``None`` is *fused* -- one program over all its roots --
#: and only fused entries serve as a longer conjunction's prefix.  Bounded
#: like ``_SHAPES``: once full the table is cleared (semantics-safe --
#: every entry is a pure function of its key, and callers keep the
#: programs they already hold).
_CONJUNCTIONS = {}
_CONJUNCTIONS_MAX = 4096


def _remember(roots, parts):
    if len(_CONJUNCTIONS) >= _CONJUNCTIONS_MAX:
        _CONJUNCTIONS.clear()
    _CONJUNCTIONS[roots] = parts
    return parts


def _fuse(roots):
    """Remember ``roots`` as fused: one program over all of them."""
    return _remember(roots, (_compile_program(None, roots=roots),
                             len(roots), None))


def reset_programs():
    """Forget every lowered program: the ones cached on nodes and the
    conjunction table.

    How a conjunction splits depends on which prefixes are already
    fused, and what a run lowers on which programs it finds cached, so
    a run calls this first: its eval counters then depend on the run
    alone, and the Nth run in one interpreter counts what a fresh
    interpreter does.  Compiled code objects (``_SHAPES``) are kept;
    they change no counter.
    """
    _CONJUNCTIONS.clear()
    for node in Expr._intern.values():
        node._program = None


def conjunction_parts(constraints):
    """The program parts of a tuple of 1-bit constraints (cached).

    Returns ``(prefix, k, delta)``: ``prefix(model)`` is the satisfied
    mask of ``constraints[:k]`` and ``delta(model)`` that of
    ``constraints[k:]``, so the conjunction's mask is
    ``prefix(model) | delta(model) << k``.  A fused conjunction has
    ``k == len(constraints)`` and ``delta`` ``None``.

    A slice grows by appending constraints, so a new conjunction reuses
    the longest fused prefix of at least half its roots and lowers only
    the rest as its delta.  Without one, a conjunction of three or more
    roots fuses all but its last root, which sibling branch probes (the
    same slice plus another last constraint) then share; the last root's
    own node-cached program is the delta.  A prefix is therefore
    re-fused only once the slice has doubled past it.
    """
    parts = _CONJUNCTIONS.get(constraints)
    if parts is not None:
        return parts
    count = len(constraints)
    for k in range(count - 1, (count + 1) // 2 - 1, -1):
        head = _CONJUNCTIONS.get(constraints[:k])
        if head is not None and head[2] is None:
            break
    else:
        if count < 3:
            return _fuse(constraints)
        k = count - 1
        head = _fuse(constraints[:k])
    return _remember(constraints, (head[0], k, _delta(constraints[k:])))


def _delta(roots):
    """The program of a delta: a lone root's own node-cached program (a
    1-bit value is its own mask), else one program over all of them."""
    if len(roots) == 1 and isinstance(roots[0], Expr):
        return compiled(roots[0])
    return _compile_program(None, roots=roots)


def compiled_conjunction(constraints):
    """One program for a tuple of 1-bit constraints sharing subtrees.

    Returns ``program(model) -> mask`` where bit *i* is set iff
    ``constraints[i]`` is satisfied.  Shared subexpressions within each
    part (see :func:`conjunction_parts`) are evaluated once per call --
    the property the old per-batch memo dict provided, without its
    per-node dict traffic.
    """
    prefix, k, delta = conjunction_parts(constraints)
    if delta is None:
        return prefix
    return lambda model: prefix(model) | delta(model) << k


def evaluate(expr, model):
    """Evaluate ``expr`` to a concrete int under ``model`` (name -> int).

    Unbound symbols evaluate to 0.  Runs the node's compiled program
    (built on first use, cached on the interned node), so shared subtrees
    are evaluated once and repeated evaluations pay no traversal or
    dispatch cost.
    """
    if isinstance(expr, int):
        return expr
    return compiled(expr)(model)
