"""Abstract syntax: formulas, proof terms, contexts.

Terms carry named binders and a formula annotation at every binding site,
so checking is syntax-directed.  One shape table, `_SHAPES`, states each
term class's layout in one row, which every walker here reads: the
children, the rebuild, the binder groups and the index form's tag.
Alpha-equivalence and the nameless index form read one stream, a preorder
that names each bound variable by its distance to its binder.
Substitution is capture-avoiding and renames colliding binders
deterministically (smallest unused numeric suffix), a binder group at a
time, in one walk over an explicit stack of jobs; no walk here recurses.

The free variables of a term are computed once per node and kept in a
hidden `_fv` slot.  A node whose set equals one child's keeps that child's
frozenset, and a variable keeps none.  So `substitute` tells at a lookup
that a subterm it leaves alone does not mention the variable.  Two more
hidden slots, `_ty` and `_scope`, hold the type `infer` last gave a
compound node and the (calculus, context) pair it was typed under (see
`vkp.typecheck`).  A formula has one hidden slot, `_text`, which keeps
its bare printed text once `print_formula` has printed it at top level
(see `vkp.parser`).  No slot is a dataclass field, so equality, hashing,
repr and the index form do not see them.

A node class with fields is a frozen dataclass with slots whose `__init__`
sets each field through its slot's own setter, not the frozen guard's
`object.__setattr__` (252 against 381 ns for an App on Python 3.11), then
runs the class's check.  Presetting the hidden slots to None cost prove
about 4% of its items per second.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from operator import eq


def _node(cls):
    """cls as a frozen dataclass with slots and the `__init__` above, put on
    cls first, so the dataclass makes none (init=False) yet reads its
    signature for the default docstring; the slots' setters come after."""
    names = list(cls.__annotations__)  # the fields, in order
    env = {"__name__": __name__}  # the globals of __init__, which gain the setters
    sets = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    check = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {', '.join(names)}):{sets}{check}", env)
    init = cls.__init__ = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**cls.__annotations__, "return": None}
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env.update((f"_set_{n}", getattr(cls, n).__set__) for n in names)
    return cls


# ---------------------------------------------------------------- formulas


class Formula:
    __slots__ = ("_text",)  # the text print_formula kept, see above


@_node
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Falsum(Formula):
    pass


@_node
class Impl(Formula):
    left: Formula
    right: Formula


@_node
class Conj(Formula):
    left: Formula
    right: Formula


@_node
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
    __slots__ = ("_fv", "_ty", "_scope")  # the caches of free_vars and infer, see above


@_node
class Var(Term):
    name: str


@_node
class App(Term):
    fun: Term
    arg: Term


@_node
class Abs(Term):
    binder: str
    annot: Formula
    body: Term


@_node
class Exfalso(Term):
    """Ex falso quodlibet; target records the type being produced."""

    target: Formula
    arg: Term


@_node
class Pair(Term):
    fst: Term
    snd: Term


@_node
class Proj(Term):
    index: int  # 1 or 2
    arg: Term

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError(f"projection index must be 1 or 2, got {self.index}")


@_node
class Inj(Term):
    """Injection into a disjunction; `other` is the absent disjunct."""

    index: int  # 1 or 2
    other: Formula
    arg: Term

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError(f"injection index must be 1 or 2, got {self.index}")


@_node
class Case(Term):
    """Disjunction elimination; binder is shared by both branches."""

    scrutinee: Term
    binder: str
    branch1: Term
    branch2: Term


@_node
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


@_node
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

# A row: children(t), in child-index order (the order reduction paths count
# in); rebuild(t, children, one name tuple per group); groups(t), the binder
# groups as (names, child indices they scope); tag(t), the index form's tag
# and annotations.  The groups partition the child indices, in order, and a
# group with no names holds the children nothing binds.  A name shared by
# several children (the case branches, the visser app branches) is one
# group, so it is renamed in all of them at once.
_Shape = namedtuple("_Shape", "children rebuild groups tag")

_SHAPES: dict[type, _Shape] = {
    # A variable's index form depends on its scope; _index_form tells it.
    Var: _Shape(lambda t: (), lambda t, cs, ns: t, lambda t: (), None),
    App: _Shape(lambda t: (t.fun, t.arg),
                lambda t, cs, ns: App(cs[0], cs[1]),
                lambda t: (((), (0, 1)),),
                lambda t: ("app",)),
    Abs: _Shape(lambda t: (t.body,),
                lambda t, cs, ns: Abs(ns[0][0], t.annot, cs[0]),
                lambda t: (((t.binder,), (0,)),),
                lambda t: ("abs", t.annot)),
    Exfalso: _Shape(lambda t: (t.arg,),
                    lambda t, cs, ns: Exfalso(t.target, cs[0]),
                    lambda t: (((), (0,)),),
                    lambda t: ("efq", t.target)),
    Pair: _Shape(lambda t: (t.fst, t.snd),
                 lambda t, cs, ns: Pair(cs[0], cs[1]),
                 lambda t: (((), (0, 1)),),
                 lambda t: ("pair",)),
    Proj: _Shape(lambda t: (t.arg,),
                 lambda t, cs, ns: Proj(t.index, cs[0]),
                 lambda t: (((), (0,)),),
                 lambda t: ("proj", t.index)),
    Inj: _Shape(lambda t: (t.arg,),
                lambda t, cs, ns: Inj(t.index, t.other, cs[0]),
                lambda t: (((), (0,)),),
                lambda t: ("inj", t.index, t.other)),
    Case: _Shape(lambda t: (t.scrutinee, t.branch1, t.branch2),
                 lambda t, cs, ns: Case(cs[0], ns[1][0], cs[1], cs[2]),
                 lambda t: (((), (0,)), ((t.binder,), (1, 2))),
                 lambda t: ("case",)),
    Visser: _Shape(lambda t: (t.main, t.branch1, t.branch2) + t.app_branches,
                   lambda t, cs, ns: Visser(
                       tuple(zip(ns[0], (a for _, a in t.binders))), cs[0],
                       ns[1][0], cs[1], cs[2], ns[2][0], tuple(cs[3:])),
                   lambda t: ((tuple(n for n, _ in t.binders), (0,)),
                              ((t.case_binder,), (1, 2)),
                              ((t.app_binder,), range(3, 3 + len(t.app_branches)))),
                   lambda t: ("visser", tuple(a for _, a in t.binders))),
    Harrop: _Shape(lambda t: (t.main, t.branch1, t.branch2),
                   lambda t, cs, ns: Harrop(ns[0][0], t.annot, cs[0],
                                            ns[1][0], cs[1], cs[2]),
                   lambda t: (((t.binder,), (0,)), ((t.case_binder,), (1, 2))),
                   lambda t: ("hop", t.annot)),
}
_CHILDREN = {cls: shape.children for cls, shape in _SHAPES.items()}  # for children's one lookup


def _shape(t: Term) -> _Shape:
    try:
        return _SHAPES[type(t)]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None


def children(t: Term) -> tuple[Term, ...]:
    try:
        return _CHILDREN[type(t)](t)
    except KeyError:  # no row reads a key, so t's class has none
        raise TypeError(f"not a term: {t!r}") from None


def with_children(t: Term, new: tuple[Term, ...]) -> Term:
    """Rebuild t with its children replaced, binders and annotations kept."""
    shape = _shape(t)
    return shape.rebuild(t, new, [names for names, _ in shape.groups(t)])


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


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for parent, i in _frames(t, path):
        t = children(parent)[i]
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
        for names, scoped in _shape(node).groups(node):
            for i in scoped:
                c = cs[i]
                s = frozenset((c.name,)) if isinstance(c, Var) else c._fv
                for b in names:
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


def substitute(t: Term, x: str, s: Term) -> Term:
    """t with s put in for free occurrences of x, renaming binders on capture.

    Each job (x, s, slots, i) on an explicit stack puts s for x in the term
    at slots[i].  A node that mentions x gets a list of its new children,
    filled by their jobs before (None, (children, names), slots, i)
    rebuilds it; an unbound child that does not mention x gets no job.  A
    binder group that would capture a free name of s is renamed in all its
    bodies: each takes one renaming job per captured binder, then s for x.
    """
    top = [t]
    jobs = [(x, s, top, 0)]
    while jobs:
        x, s, slots, i = jobs.pop()
        u = slots[i]
        if x is None:  # s holds u's new children and binder names
            cs, names = s
            slots[i] = _shape(u).rebuild(u, cs, names)
        elif isinstance(u, Var):
            if u.name == x:
                slots[i] = s
        elif x in free_vars(u):  # which fills the `_fv` slot of u's compound children
            shape = _shape(u)
            cs, names = list(shape.children(u)), []
            jobs.append((None, (cs, names), slots, i))
            for bound, scoped in shape.groups(u):
                if not bound:
                    for j in scoped:
                        c = cs[j]
                        if isinstance(c, Var):
                            if c.name == x:
                                cs[j] = s
                        elif x in c._fv:
                            jobs.append((x, s, cs, j))
                elif x not in bound and any(x in free_vars(cs[j]) for j in scoped):
                    chain, fvs = [(x, s)], free_vars(s)
                    if not fvs.isdisjoint(bound):
                        avoid = {x, *bound, *fvs}.union(*(free_vars(cs[j]) for j in scoped))
                        bound = list(bound)
                        for k, b in enumerate(bound):
                            if b in fvs:
                                bound[k] = fresh_name(b, avoid)
                                avoid.add(bound[k])
                                chain.insert(1, (b, Var(bound[k])))  # runs before the later ones
                    jobs += [(y, r, cs, j) for j in scoped for y, r in chain]
                names.append(bound)
    return top[0]


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
        if isinstance(u, Var):
            ds = scope.get(u.name)
            yield ("b", depth - ds[-1] - 1) if ds else ("f", u.name)
            continue
        shape = _shape(u)
        yield shape.tag(u)
        cs = shape.children(u)
        for bound, scoped in reversed(shape.groups(u)):
            for i in reversed(scoped):
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
