"""Abstract syntax: formulas, proof terms, contexts.

Terms carry named binders and a formula annotation at every binding site,
so checking is syntax-directed.  Alpha-equivalence and the nameless
index form read one stream, a preorder that names each bound variable by
its distance to its binder.  Substitution is capture-avoiding and renames
colliding binders deterministically (smallest unused numeric suffix).

The free variables of a term are computed once per node and kept in a
hidden `_fv` slot, which is not a dataclass field, so equality, hashing
and repr do not see it.  A node whose set equals one child's keeps that
child's frozenset, and a variable keeps none.  So `substitute` tells at a
lookup that a subterm it leaves alone does not mention the variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import eq


# ---------------------------------------------------------------- formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Impl(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Conj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Disj(Formula):
    left: Formula
    right: Formula


FALSUM = Falsum()


def neg(a: Formula) -> Formula:
    """Negation is sugar: ~A is A -> False, never a separate node."""
    return Impl(a, FALSUM)


def is_neg(a: Formula) -> bool:
    return isinstance(a, Impl) and a.right == FALSUM


# Calculi are plain strings; they match the script pragma spellings.
CALCULI = ("IPC", "V", "KP")


# ------------------------------------------------------------------- terms


class Term:
    __slots__ = ("_fv",)  # free_vars' cache, see the module docstring


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Abs(Term):
    binder: str
    annot: Formula
    body: Term


@dataclass(frozen=True, slots=True)
class Exfalso(Term):
    """Ex falso quodlibet; target records the type being produced."""

    target: Formula
    arg: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True, slots=True)
class Proj(Term):
    index: int  # 1 or 2
    arg: Term

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError(f"projection index must be 1 or 2, got {self.index}")


@dataclass(frozen=True, slots=True)
class Inj(Term):
    """Injection into a disjunction; `other` is the absent disjunct."""

    index: int  # 1 or 2
    other: Formula
    arg: Term

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError(f"injection index must be 1 or 2, got {self.index}")


@dataclass(frozen=True, slots=True)
class Case(Term):
    """Disjunction elimination; binder is shared by both branches."""

    scrutinee: Term
    binder: str
    branch1: Term
    branch2: Term


@dataclass(frozen=True, slots=True)
class Visser(Term):
    """Case split on a disjunction proved from implication hypotheses alone.

    binders lists the hypotheses (all implications) available to the main
    premise; main may use nothing else.  branch1/branch2 consume the
    abstracted disjunct through case_binder, app_branches[j] consumes an
    abstracted argument for binder j through app_binder.
    """

    binders: tuple[tuple[str, Formula], ...]
    main: Term
    case_binder: str
    branch1: Term
    branch2: Term
    app_binder: str
    app_branches: tuple[Term, ...]

    def __post_init__(self):
        if len(self.binders) < 1:
            raise ValueError("visser needs at least one binder")
        if len(self.app_branches) != len(self.binders):
            raise ValueError(
                f"visser has {len(self.binders)} binders "
                f"but {len(self.app_branches)} app branches"
            )
        names = [n for n, _ in self.binders]
        if len(set(names)) != len(names):
            raise ValueError(f"visser binder names must be distinct: {names}")
        for n, a in self.binders:
            if not isinstance(a, Impl):
                raise ValueError(f"visser binder {n} must be annotated with an implication")


@dataclass(frozen=True, slots=True)
class Harrop(Term):
    """Case split on a disjunction proved under one negated hypothesis."""

    binder: str
    annot: Formula  # must be a negation
    main: Term
    case_binder: str
    branch1: Term
    branch2: Term

    def __post_init__(self):
        if not is_neg(self.annot):
            raise ValueError("hop binder must be annotated with a negation")


# A typing context is an insertion-ordered map with distinct names.
TypingContext = dict[str, Formula]


# ------------------------------------------------------- scopes and traversal

# Child index convention, used for reduction paths:
#   App: 0 fun, 1 arg          Abs: 0 body         Exfalso: 0 arg
#   Pair: 0 fst, 1 snd         Proj: 0 arg         Inj: 0 arg
#   Case: 0 scrutinee, 1 branch1, 2 branch2
#   Visser: 0 main, 1 branch1, 2 branch2, 3.. app_branches
#   Harrop: 0 main, 1 branch1, 2 branch2


def children(t: Term) -> tuple[Term, ...]:
    match t:
        case Var():
            return ()
        case App(f, a):
            return (f, a)
        case Abs(_, _, b):
            return (b,)
        case Exfalso(_, a):
            return (a,)
        case Pair(a, b):
            return (a, b)
        case Proj(_, a):
            return (a,)
        case Inj(_, _, a):
            return (a,)
        case Case(s, _, b1, b2):
            return (s, b1, b2)
        case Visser(_, m, _, b1, b2, _, us):
            return (m, b1, b2) + us
        case Harrop(_, _, m, _, b1, b2):
            return (m, b1, b2)
    raise TypeError(f"not a term: {t!r}")


def with_children(t: Term, new: tuple[Term, ...]) -> Term:
    """Rebuild t with its children replaced, binders and annotations kept."""
    match t:
        case Var():
            return t
        case App():
            return App(new[0], new[1])
        case Abs(x, a, _):
            return Abs(x, a, new[0])
        case Exfalso(f, _):
            return Exfalso(f, new[0])
        case Pair():
            return Pair(new[0], new[1])
        case Proj(i, _):
            return Proj(i, new[0])
        case Inj(i, o, _):
            return Inj(i, o, new[0])
        case Case(_, y, _, _):
            return Case(new[0], y, new[1], new[2])
        case Visser(bs, _, y, _, _, z, _):
            return Visser(bs, new[0], y, new[1], new[2], z, tuple(new[3:]))
        case Harrop(x, a, _, y, _, _):
            return Harrop(x, a, new[0], y, new[1], new[2])
    raise TypeError(f"not a term: {t!r}")


def _plug(frames, t: Term) -> Term:
    """t put back through (parent, child index) frames, given outermost
    first; a parent whose child is already t is kept as it is."""
    for parent, i in reversed(frames):
        cs = children(parent)
        if cs[i] is not t:
            parent = with_children(parent, cs[:i] + (t,) + cs[i + 1:])
        t = parent
    return t


def _subterms(t: Term):
    """Every subterm of t, each before its own subterms, from an explicit
    stack: a preorder that takes the children right to left."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(children(s))


def binders_of_child(t: Term, i: int) -> tuple[str, ...]:
    """Names bound in child i of t, in binding order."""
    match t:
        case Abs(x, _, _):
            return (x,)
        case Case(_, y, _, _):
            return () if i == 0 else (y,)
        case Visser(bs, _, y, _, _, z, _):
            if i == 0:
                return tuple(n for n, _ in bs)
            if i in (1, 2):
                return (y,)
            return (z,)
        case Harrop(x, _, _, y, _, _):
            return (x,) if i == 0 else (y,)
    return ()


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def _frames(t: Term, path: tuple[int, ...]):
    """The (node, child index) frames path runs through from t, outermost
    first, lazily; IndexError for an index that names no child."""
    for i in path:
        cs = children(t)
        if not 0 <= i < len(cs):
            raise IndexError(f"no child {i}")
        yield t, i
        t = cs[i]


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    return _plug(list(_frames(t, path)), new)


# ------------------------------------------------------------ free variables


_NO_NAMES: frozenset[str] = frozenset()
_BINDING = (Abs, Case, Visser, Harrop)


def free_vars(t: Term) -> frozenset[str]:
    """The names free in t.

    One post-order walk over an explicit stack fills the `_fv` slot of
    every node below t that does not have it yet, so asking again costs a
    lookup.  A node whose set equals one child's (with that child's binders
    removed) keeps that child's frozenset; a variable keeps no set.
    """
    if isinstance(t, Var):
        return frozenset((t.name,))
    known = getattr(t, "_fv", None)
    if known is not None:
        return known
    stack = [(t, None)]
    while stack:
        node, cs = stack.pop()
        if cs is None:  # first visit: the children's sets come first
            cs = children(node)
            todo = [c for c in cs if not (isinstance(c, Var) or hasattr(c, "_fv"))]
            if todo:
                stack.append((node, cs))
                stack += [(c, None) for c in todo]
                continue
        fv = _NO_NAMES
        binding = isinstance(node, _BINDING)
        for i, c in enumerate(cs):
            s = frozenset((c.name,)) if isinstance(c, Var) else c._fv
            if binding:
                for b in binders_of_child(node, i):
                    if b in s:
                        s = s - {b}
            if s >= fv:
                fv = s
            elif not s <= fv:
                fv = fv | s
        object.__setattr__(node, "_fv", fv)
    return t._fv


def fresh_name(base: str, avoid: set[str]) -> str:
    """Smallest numeric suffix making base unused; deterministic."""
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


# -------------------------------------------------------------- substitution


def _scoped(bound: tuple[str, ...], bodies: list[Term], x: str, s: Term):
    """Substitute s for x in bodies sharing one binder group, renaming on capture.

    A binder name shared across bodies (case branches, visser app branches)
    is renamed in all of them at once, keeping the single stored name valid.
    """
    if x in bound or all(x not in free_vars(b) for b in bodies):
        return bound, bodies
    fvs = free_vars(s)
    if any(b in fvs for b in bound):
        avoid = {x, *bound, *fvs}
        for b in bodies:
            avoid |= free_vars(b)
        new_bound = []
        for b in bound:
            if b in fvs:
                b2 = fresh_name(b, avoid)
                avoid.add(b2)
                bodies = [substitute(bd, b, Var(b2)) for bd in bodies]
                new_bound.append(b2)
            else:
                new_bound.append(b)
        bound = tuple(new_bound)
    bodies = [substitute(b, x, s) for b in bodies]
    return bound, bodies


def substitute(t: Term, x: str, s: Term) -> Term:
    """t with s put in for free occurrences of x, renaming binders on capture."""
    if isinstance(t, Var):
        return s if t.name == x else t
    if x not in free_vars(t):
        return t
    match t:
        case App(f, a):
            return App(substitute(f, x, s), substitute(a, x, s))
        case Exfalso(f, a):
            return Exfalso(f, substitute(a, x, s))
        case Pair(a, b):
            return Pair(substitute(a, x, s), substitute(b, x, s))
        case Proj(i, a):
            return Proj(i, substitute(a, x, s))
        case Inj(i, o, a):
            return Inj(i, o, substitute(a, x, s))
        case Abs(b, ann, body):
            bound, [body2] = _scoped((b,), [body], x, s)
            return Abs(bound[0], ann, body2)
        case Case(sc, y, b1, b2):
            bound, [c1, c2] = _scoped((y,), [b1, b2], x, s)
            return Case(substitute(sc, x, s), bound[0], c1, c2)
        case Visser(bs, m, y, b1, b2, z, us):
            names = tuple(n for n, _ in bs)
            names2, [m2] = _scoped(names, [m], x, s)
            bs2 = tuple((n2, a) for n2, (_, a) in zip(names2, bs))
            yb, [c1, c2] = _scoped((y,), [b1, b2], x, s)
            zb, us2 = _scoped((z,), list(us), x, s)
            return Visser(bs2, m2, yb[0], c1, c2, zb[0], tuple(us2))
        case Harrop(xb, ann, m, y, b1, b2):
            hb, [m2] = _scoped((xb,), [m], x, s)
            yb, [c1, c2] = _scoped((y,), [b1, b2], x, s)
            return Harrop(hb[0], ann, m2, yb[0], c1, c2)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------- alpha-equivalence


def _index_form(t: Term):
    """The nameless index form of t as a stream, one tuple per node.

    A preorder over an explicit stack.  The scope maps each bound name to
    a stack of the depths it is bound at, innermost last: a child's
    binders are pushed when the walk enters the child and popped at an
    exit marker stacked under it.  A node yields its tag and annotations;
    a variable yields ("b", distance to its binder) or ("f", name).  A tag
    fixes how many fields and children follow, so no term's stream is a
    proper prefix of another's.
    """
    scope: dict[str, list[int]] = {}
    depth = 0
    todo: list = [(t, ())]  # (subterm, binders it enters), or (None, binders it leaves)
    while todo:
        u, bound = todo.pop()
        if u is None:
            for b in bound:
                scope[b].pop()
            depth -= len(bound)
            continue
        for b in bound:
            scope.setdefault(b, []).append(depth)
            depth += 1
        match u:
            case Var(n):
                ds = scope.get(n)
                yield ("b", depth - ds[-1] - 1) if ds else ("f", n)
                continue
            case App():
                yield ("app",)
            case Abs(_, a, _):
                yield ("abs", a)
            case Exfalso(f, _):
                yield ("efq", f)
            case Pair():
                yield ("pair",)
            case Proj(i, _):
                yield ("proj", i)
            case Inj(i, o, _):
                yield ("inj", i, o)
            case Case():
                yield ("case",)
            case Visser(bs):
                yield ("visser", tuple(a for _, a in bs))
            case Harrop(_, a):
                yield ("hop", a)
        cs = children(u)
        binding = isinstance(u, _BINDING)
        for i in reversed(range(len(cs))):
            bound = binders_of_child(u, i) if binding else ()
            if bound:
                todo.append((None, bound))
            todo.append((cs[i], bound))


def nameless(t: Term) -> tuple:
    """Canonical index form: `_index_form`'s stream in one flat tuple, so
    comparing and hashing it do not recurse.  A tag heads each node's
    tuple and fixes its length, so the flat form still tells them apart."""
    return tuple(chain.from_iterable(_index_form(t)))


def alpha_eq(t: Term, s: Term) -> bool:
    """Term equality up to bound-variable names; annotations must agree.

    The two index-form streams are compared node by node up to the first
    difference; since neither can be a proper prefix of the other, equal
    pairs all the way mean equal streams.
    """
    return all(map(eq, _index_form(t), _index_form(s)))


def term_size(t: Term) -> int:
    return sum(1 for _ in _subterms(t))


def term_depth(t: Term) -> int:
    depth, stack = 0, [(t, 1)]
    while stack:
        s, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in children(s))
    return depth
