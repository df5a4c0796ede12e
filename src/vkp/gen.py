"""Seeded random generation of well-typed terms.

Generation is goal-directed: pick a formula and a context, then inhabit the
formula, mixing introduction steps with deliberately reducible shapes (beta
redexes, projections of pairs, case on an injection) so reduction tests get
something to chew on.  Under KP and V the admissible constructs are attempted
with a fixed bias so roughly a third of the output exercises them.

An attempt whose goal is classically false under its context is skipped
before any search: IPC, V and KP are all classically sound, so no calculus
here inhabits such a goal.  A truth table over the atoms of the goal and
the context decides it when they have at most eight distinct atoms; past
that every attempt searches.  The skip is part of the seeded stream: an
attempt that is skipped draws nothing more from the generator's random
source.

Everything is driven by one random.Random(seed); equal seeds give equal
output.  Choices over context entries go through sorted lists, never raw
dict or set iteration.  Equal atom leaves are one object: one Atom per name
of ATOM_NAMES is shared, which draws nothing.

The context is indexed once, when it is built: `_Ctx` keeps the entries
that each kind of move can use, keyed by the formula the move must match,
and `_Ctx.add` extends a parent's index by one binding.  Every list in
the index is in name order, the order of `sorted(ctx.items())`, because
`rng.choice` picks by position.  Names sort as strings, so `v10` comes
before `v2`: a new entry is inserted at its sorted place, not appended.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import itemgetter

from .syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, FALSUM, Falsum, Formula,
    Harrop, Impl, Inj, Pair, Proj, Term, TypingContext, Var, Visser, neg,
)
from .typecheck import _curried, checks
from .normalize import InternalError

ATOM_NAMES = ("p", "q", "r", "s", "a", "b", "c", "d")
_ATOMS = {n: Atom(n) for n in ATOM_NAMES}  # the shared leaves, see above
CTX_SHAPES = ("any", "implicative", "negated")


class GenerationFailed(Exception):
    """No inhabitant found within the retry budget."""


class _GenState:
    def __init__(self, rng: random.Random, gas: int, atoms: tuple[str, ...]):
        self.rng = rng
        self.gas = gas
        self.atoms = atoms
        self.counter = 0

    def spend(self) -> bool:
        self.gas -= 1
        return self.gas <= 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"


def _atom(name: str) -> Atom:
    return _ATOMS.get(name) or Atom(name)  # a fresh Atom for any other name


def _formula(rng: random.Random, depth: int, atoms) -> Formula:
    if depth <= 0 or (roll := rng.random()) < 0.20:  # a leaf; no roll at depth 0
        return FALSUM if rng.random() < 0.08 else _atom(rng.choice(atoms))
    l = _formula(rng, depth - 1, atoms)
    r = _formula(rng, depth - 1, atoms)
    if roll < 0.52:
        return Impl(l, r)
    if roll < 0.73:
        return Conj(l, r)
    return Disj(l, r)


def _ctx_entry(rng: random.Random, shape: str, atoms) -> Formula:
    if shape == "implicative":
        return Impl(_formula(rng, 1, atoms), _formula(rng, 1, atoms))
    if shape == "negated":
        return neg(_formula(rng, 1, atoms))
    return _formula(rng, 2, atoms)


def _weighted_order(rng: random.Random, moves):
    """All thunks, drawn without replacement by weight."""
    pool = list(moves)
    out = []
    while pool:
        total = sum(w for w, _ in pool)
        pick = rng.random() * total
        acc = 0.0
        for i, (w, f) in enumerate(pool):
            acc += w
            if pick <= acc:
                out.append(f)
                del pool[i]
                break
        else:
            out.append(pool.pop()[1])
    return out


_NAME = itemgetter(0)
_NO_MOVES = ((), (), (), ())  # a row of _Ctx.goals: direct, heads, heads2, sides


def _insort(entries: tuple, e, key=None) -> tuple:
    """entries with e inserted after every entry of the same or a smaller name."""
    i = bisect_right(entries, e if key is None else key(e), key=key)
    return (*entries[:i], e, *entries[i:])


def _put(goals: dict, goal: Formula, slot: int, e, key=_NAME) -> None:
    row = list(goals.get(goal, _NO_MOVES))
    row[slot] = _insort(row[slot], e, key)
    goals[goal] = tuple(row)


class _Ctx:
    """A typing context, indexed by what the moves of _inhabit look up.

    `goals` maps a goal C to four tuples: the names bound to C (direct),
    the entries (n, A -> C) (heads), the entries (n, A -> B -> C) (heads2)
    and the conjunction sides (n, C /\\ B, 1) and (n, B /\\ C, 2) (sides).
    One lookup, and so one hash of the goal, serves all four moves.
    """

    __slots__ = ("goals", "disjs", "bots", "negs")

    def __init__(self, goals: dict | None = None, disjs=(), bots=(), negs=()):
        self.goals = {} if goals is None else goals
        self.disjs = disjs  # (n, A \/ B)
        self.bots = bots    # names n with n : False
        self.negs = negs    # (n, ~A)

    def add(self, x: str, a: Formula) -> _Ctx:
        """The context with x : a added; x must not be bound yet."""
        cx = _Ctx(dict(self.goals), self.disjs, self.bots, self.negs)
        goals = cx.goals
        _put(goals, a, 0, x, None)
        match a:
            case Impl(_, r):
                _put(goals, r, 1, (x, a))
                if isinstance(r, Impl):
                    _put(goals, r.right, 2, (x, a))
                elif isinstance(r, Falsum):
                    cx.negs = _insort(self.negs, (x, a), _NAME)
            case Conj(l, r):
                _put(goals, l, 3, (x, a, 1))
                _put(goals, r, 3, (x, a, 2))
            case Disj():
                cx.disjs = _insort(self.disjs, (x, a), _NAME)
            case Falsum():
                cx.bots = _insort(self.bots, x)
        return cx


def _inhabit(st: _GenState, ctx: _Ctx, goal: Formula, depth: int,
             calculus: str) -> Term | None:
    if st.spend():
        return None
    rng = st.rng

    if depth >= 2 and rng.random() < 0.30:
        if calculus == "KP":
            t = _try_harrop(st, ctx, goal, depth, calculus)
            if t is not None:
                return t
        elif calculus == "V":
            t = _try_visser(st, ctx, goal, depth, calculus)
            if t is not None:
                return t

    moves: list[tuple[float, object]] = []

    direct, heads, heads2, side_matches = ctx.goals.get(goal, _NO_MOVES)
    if direct:
        moves.append((2.5, lambda: Var(rng.choice(direct))))

    if isinstance(goal, (Impl, Conj, Disj)):
        moves.append((2.0, lambda: _intro(st, ctx, goal, depth, calculus)))

    if heads and depth >= 1:
        moves.append((2.0, lambda: _app_ctx(st, ctx, heads, depth, calculus)))
    if heads2 and depth >= 2:
        moves.append((0.8, lambda: _app_ctx2(st, ctx, heads2, depth, calculus)))

    disjs = ctx.disjs
    if disjs and depth >= 1:
        moves.append((1.2, lambda: _case_ctx(st, ctx, disjs, goal, depth, calculus)))
    if side_matches:
        moves.append((1.5, lambda: _proj_ctx(rng, side_matches)))

    bots = ctx.bots
    if bots:
        moves.append((1.5, lambda: Exfalso(goal, Var(rng.choice(bots)))))
    negs = ctx.negs
    if negs and depth >= 2:
        moves.append((0.7, lambda: _exfalso_neg(st, ctx, negs, goal, depth, calculus)))

    if depth >= 2:
        moves.append((0.9, lambda: _beta_redex(st, ctx, goal, depth, calculus)))
        moves.append((0.6, lambda: _proj_redex(st, ctx, goal, depth, calculus)))
    if depth >= 3:
        moves.append((0.6, lambda: _case_redex(st, ctx, goal, depth, calculus)))

    for thunk in _weighted_order(rng, moves):
        t = thunk()
        if t is not None:
            return t
    return None


def _intro(st, ctx, goal, depth, calculus):
    rng = st.rng
    match goal:
        case Impl(l, r):
            x = st.fresh()
            body = _inhabit(st, ctx.add(x, l), r, depth - 1, calculus)
            return None if body is None else Abs(x, l, body)
        case Conj(l, r):
            t1 = _inhabit(st, ctx, l, depth - 1, calculus)
            if t1 is None:
                return None
            t2 = _inhabit(st, ctx, r, depth - 1, calculus)
            return None if t2 is None else Pair(t1, t2)
        case Disj(l, r):
            first = rng.choice((1, 2))
            for i in (first, 3 - first):
                mine, other = (l, r) if i == 1 else (r, l)
                p = _inhabit(st, ctx, mine, depth - 1, calculus)
                if p is not None:
                    return Inj(i, other, p)
    return None


def _app_ctx(st, ctx, heads, depth, calculus):
    n, a = st.rng.choice(heads)
    arg = _inhabit(st, ctx, a.left, depth - 1, calculus)
    return None if arg is None else App(Var(n), arg)


def _app_ctx2(st, ctx, heads, depth, calculus):
    n, a = st.rng.choice(heads)
    arg1 = _inhabit(st, ctx, a.left, depth - 2, calculus)
    if arg1 is None:
        return None
    arg2 = _inhabit(st, ctx, a.right.left, depth - 2, calculus)
    return None if arg2 is None else App(App(Var(n), arg1), arg2)


def _case_ctx(st, ctx, disjs, goal, depth, calculus):
    n, a = st.rng.choice(disjs)
    y = st.fresh()
    b1 = _inhabit(st, ctx.add(y, a.left), goal, depth - 1, calculus)
    if b1 is None:
        return None
    b2 = _inhabit(st, ctx.add(y, a.right), goal, depth - 1, calculus)
    return None if b2 is None else Case(Var(n), y, b1, b2)


def _proj_ctx(rng, side_matches):
    n, a, i = rng.choice(side_matches)
    return Proj(i, Var(n))


def _exfalso_neg(st, ctx, negs, goal, depth, calculus):
    n, a = st.rng.choice(negs)
    arg = _inhabit(st, ctx, a.left, depth - 1, calculus)
    return None if arg is None else Exfalso(goal, App(Var(n), arg))


def _beta_redex(st, ctx, goal, depth, calculus):
    rng = st.rng
    arg_ty = goal if rng.random() < 0.4 else _formula(rng, 1, st.atoms)
    arg = _inhabit(st, ctx, arg_ty, depth - 2, calculus)
    if arg is None:
        return None
    x = st.fresh()
    if arg_ty == goal and rng.random() < 0.6:
        body = Var(x)
    else:
        body = _inhabit(st, ctx.add(x, arg_ty), goal, depth - 2, calculus)
        if body is None:
            return None
    return App(Abs(x, arg_ty, body), arg)


def _proj_redex(st, ctx, goal, depth, calculus):
    rng = st.rng
    other = _formula(rng, 1, st.atoms)
    t1 = _inhabit(st, ctx, goal, depth - 2, calculus)
    if t1 is None:
        return None
    t2 = _inhabit(st, ctx, other, depth - 2, calculus)
    if t2 is None:
        return None
    i = rng.choice((1, 2))
    pair = Pair(t1, t2) if i == 1 else Pair(t2, t1)
    return Proj(i, pair)


def _case_redex(st, ctx, goal, depth, calculus):
    rng = st.rng
    l = _formula(rng, 1, st.atoms)
    r = _formula(rng, 1, st.atoms)
    i = rng.choice((1, 2))
    payload = _inhabit(st, ctx, l if i == 1 else r, depth - 2, calculus)
    if payload is None:
        return None
    y = st.fresh()
    b1 = _inhabit(st, ctx.add(y, l), goal, depth - 2, calculus)
    if b1 is None:
        return None
    b2 = _inhabit(st, ctx.add(y, r), goal, depth - 2, calculus)
    if b2 is None:
        return None
    scrut = Inj(i, r if i == 1 else l, payload)
    return Case(scrut, y, b1, b2)


def _try_harrop(st, ctx, goal, depth, calculus):
    rng = st.rng
    annot = neg(_formula(rng, 1, st.atoms))
    x = st.fresh()
    disj = Disj(_formula(rng, 1, st.atoms), _formula(rng, 1, st.atoms))
    main = _inhabit(st, ctx.add(x, annot), disj, depth - 1, calculus)
    if main is None:
        return None
    y = st.fresh()
    b1 = _inhabit(st, ctx.add(y, Impl(annot, disj.left)), goal, depth - 1, calculus)
    if b1 is None:
        return None
    b2 = _inhabit(st, ctx.add(y, Impl(annot, disj.right)), goal, depth - 1, calculus)
    if b2 is None:
        return None
    return Harrop(x, annot, main, y, b1, b2)


def _try_visser(st, ctx, goal, depth, calculus):
    rng = st.rng
    template = rng.choice(("inj", "efq", "app"))
    p0 = _atom(st.atoms[0])
    ident_ty = Impl(p0, p0)
    xa = st.fresh()
    ident = Abs(xa, p0, Var(xa))
    x1 = st.fresh()

    if template == "inj":
        ann = Impl(_formula(rng, 1, st.atoms), _formula(rng, 1, st.atoms))
        other = _formula(rng, 1, st.atoms)
        side = rng.choice((1, 2))
        binders = [(x1, ann)]
        main = Inj(side, other, Var(x1))
        disj = Disj(ann, other) if side == 1 else Disj(other, ann)
    elif template == "efq":
        ann = Impl(ident_ty, FALSUM)
        binders = [(x1, ann)]
        disj = Disj(_formula(rng, 1, st.atoms), _formula(rng, 1, st.atoms))
        main = Exfalso(disj, App(Var(x1), ident))
    else:
        disj = Disj(_formula(rng, 1, st.atoms), _formula(rng, 1, st.atoms))
        ann = Impl(ident_ty, disj)
        binders = [(x1, ann)]
        main = App(Var(x1), ident)

    if rng.random() < 0.3:
        extra = st.fresh()
        binders.append((extra, Impl(_formula(rng, 1, st.atoms),
                                    _formula(rng, 1, st.atoms))))
    bs = tuple(binders)

    y = st.fresh()
    b1 = _inhabit(st, ctx.add(y, _curried(bs, disj.left)), goal, depth - 1, calculus)
    if b1 is None:
        return None
    b2 = _inhabit(st, ctx.add(y, _curried(bs, disj.right)), goal, depth - 1, calculus)
    if b2 is None:
        return None
    z = st.fresh()
    us = []
    for _, ann_j in bs:
        u = _inhabit(st, ctx.add(z, _curried(bs, ann_j.left)), goal, depth - 1, calculus)
        if u is None:
            return None
        us.append(u)
    return Visser(bs, main, y, b1, b2, z, tuple(us))


# A truth table over at most _TABLE_ATOMS atoms.  Row r gives the i-th atom
# met the value of bit i of r, and a formula's column is the int whose bit
# r is the formula's value in row r.
_TABLE_ATOMS = 8
_ROWS = 1 << _TABLE_ATOMS
_TRUE = (1 << _ROWS) - 1
_ATOM_COLUMNS = tuple(sum(1 << r for r in range(_ROWS) if r >> i & 1)
                      for i in range(_TABLE_ATOMS))
_CONNECTIVE = {
    Impl: lambda l, r: (_TRUE ^ l) | r,
    Conj: int.__and__,
    Disj: int.__or__,
}


def _column(a: Formula, columns: dict[str, int]) -> int | None:
    """a's truth-table column, or None once a needs a column past the table.

    An atom not yet in `columns` takes the next free atom column.  A
    post-order over an explicit stack, where a connective's combining
    function waits under its two sides.
    """
    vals: list[int] = []
    todo: list = [a]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is Atom:
            c = columns.get(f.name)
            if c is None:
                if len(columns) == _TABLE_ATOMS:
                    return None
                c = columns[f.name] = _ATOM_COLUMNS[len(columns)]
            vals.append(c)
        elif cls is Falsum:
            vals.append(0)
        elif (combine := _CONNECTIVE.get(cls)) is not None:
            todo += (combine, f.right, f.left)
        else:  # a connective whose sides are on vals, left below right
            r = vals.pop()
            vals.append(f(vals.pop(), r))
    return vals[0]


def _classically_false(ctx: TypingContext, goal: Formula) -> bool:
    """Whether some valuation makes every formula of ctx true and goal false.

    False, too, when the formulas have more than _TABLE_ATOMS distinct atoms
    between them, since the table is then not built.
    """
    columns: dict[str, int] = {}
    hyps = _TRUE
    for a in ctx.values():
        c = _column(a, columns)
        if c is None:
            return False
        hyps &= c
    g = _column(goal, columns)
    return g is not None and hyps & ~g != 0


def generate_typed(calculus: str = "IPC", max_depth: int = 5, atom_count: int = 3,
                   seed: int = 0, *, ctx_shape: str = "any",
                   goal: Formula | None = None, closed: bool = False,
                   ) -> tuple[TypingContext, Term, Formula]:
    """A well-typed (context, term, formula) triple, deterministic in seed."""
    if not 1 <= atom_count <= len(ATOM_NAMES):
        raise ValueError(f"atom_count must be 1..{len(ATOM_NAMES)}")
    if ctx_shape not in CTX_SHAPES:
        raise ValueError(f"ctx_shape must be one of {CTX_SHAPES}")
    rng = random.Random(seed)
    atoms = ATOM_NAMES[:atom_count]

    for _ in range(60):
        g = goal if goal is not None else _formula(rng, rng.randint(1, 3), atoms)
        if closed:
            ctx: TypingContext = {}
        else:
            ctx = {f"g{i + 1}": _ctx_entry(rng, ctx_shape, atoms)
                   for i in range(rng.randint(0, 3))}
        if _classically_false(ctx, g):
            continue  # uninhabitable: IPC, V and KP are classically sound
        st = _GenState(rng, 600, atoms)
        cx = _Ctx()
        for n, a in ctx.items():
            cx = cx.add(n, a)
        t = _inhabit(st, cx, g, max_depth, calculus)
        if t is None:
            continue
        if not checks(ctx, t, g, calculus):
            raise InternalError("generator produced an ill-typed term")
        return ctx, t, g
    raise GenerationFailed(
        f"no inhabitant within budget (calculus={calculus}, seed={seed})"
    )
