"""Single-step reduction: head decomposition, top rules, position enumeration,
the head-spine oracle and traces.

The weak head spine of a term runs through application functions, projection
and case scrutinees; decompose reads the shape a visser or hop main premise
presents at the end of that spine.  An injection counts only when it is the
whole premise.  When a spine variable is applied to several arguments, the
first application is the redex reading and the rest stay in the context.

A head context is a tuple of (node, child index) frames, outermost first:
the zipper frames the normalization walk, the position search and
replace_at keep as well.  One plug, syntax._plug, puts a term back through
them.  The deterministic KP head step is the normalization walk restricted
to the head spine (normalize.step_weak_head_named); weak_head_redexes runs
the position search over every head-spine position instead, as an oracle
for it.

Rebuilt exfalso nodes in the efq contractions are annotated with the first
disjunct of the main premise's type.  A visser premise sees only its own
binders, so Harrop-efq is the one contraction that reads the ambient typing
context.  step_top_named takes the position of the term it contracts: the
context of the term its frames start from, and those frames.  Only
Harrop-efq works out the binder types down to the hop from them (_context,
by the type checker's child-context rule); nothing else builds a context.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs, App, Case, Exfalso, Harrop, Inj, Pair, Proj, Term,
    TypingContext, Var, Visser, children, replace_at, subterm_at, substitute,
    _frames, _plug,
)
from .typecheck import CalculusViolation, TypeCheckError, _child_context, infer


# ------------------------------------------------------------- decomposition


@dataclass(frozen=True)
class InjectionHead:
    index: int
    payload: Term


@dataclass(frozen=True)
class ExfalsoHead:
    context: tuple  # (node, 0) frames of the weak-head context, outermost first
    payload: Term


@dataclass(frozen=True)
class VarAppHead:
    context: tuple
    var: str
    first_arg: Term


Decomposition = InjectionHead | ExfalsoHead | VarAppHead


def decompose(t: Term) -> Decomposition | None:
    """Read the head shape of a main premise; None when nothing applies."""
    if isinstance(t, Inj):
        return InjectionHead(t.index, t.arg)
    frames = []
    cur = t
    while isinstance(cur, (App, Proj, Case)):
        frames.append((cur, 0))
        cur = children(cur)[0]
    if isinstance(cur, Exfalso):
        return ExfalsoHead(tuple(frames), cur.arg)
    if isinstance(cur, Var) and frames and isinstance(frames[-1][0], App):
        first, _ = frames.pop()
        return VarAppHead(tuple(frames), cur.name, first.arg)
    return None


# ----------------------------------------------------------------- top rules


def _lams(binders, body: Term) -> Term:
    """Iterated abstraction over the visser binders, in order."""
    for name, annot in reversed(binders):
        body = Abs(name, annot, body)
    return body


def step_top_named(t: Term, calculus: str = "IPC", ctx: TypingContext | None = None,
                   frames=()):
    """Apply one top-level contraction; (reduct, rule name) or None.

    t sits below `frames`, the (parent, child index) pairs, outermost
    first, of a term whose context is ctx; with no frames, ctx is t's own.
    Only Harrop-efq reads binder types, so only it works out t's context
    from the two (_context).

    Only an App of an Abs, a Proj of a Pair, a Case on an Inj, a visser or
    a hop passes the class test to the match, so a visser outside V and a
    hop outside KP still raise CalculusViolation.
    """
    cls = type(t)
    if not (cls is App and type(t.fun) is Abs or cls is Proj and type(t.arg) is Pair
            or cls is Case and type(t.scrutinee) is Inj or cls is Visser or cls is Harrop):
        return None
    ctx = ctx if ctx is not None else {}
    match t:
        case App(Abs(x, _, b), a):
            return substitute(b, x, a), "Beta"
        case Proj(i, Pair(a, b)):
            return (a if i == 1 else b), "Projection"
        case Case(Inj(i, _, p), y, b1, b2):
            return substitute(b1 if i == 1 else b2, y, p), "Case"
        case Visser(bs, m, y, b1, b2, z, us):
            if calculus != "V":
                raise CalculusViolation("visser", calculus)
            d = decompose(m)
            match d:
                case InjectionHead(i, p):
                    arg = _lams(bs, p)
                    return substitute(b1 if i == 1 else b2, y, arg), "Visser-inj"
                case ExfalsoHead(_, p):
                    ty = infer(_child_context(t, 0, ctx), m, calculus)
                    arg = _lams(bs, Exfalso(ty.left, p))
                    return substitute(b1, y, arg), "Visser-efq"
                case VarAppHead(_, v, a):
                    names = [n for n, _ in bs]
                    if v not in names:
                        return None
                    return substitute(us[names.index(v)], z, _lams(bs, a)), "Visser-app"
            return None
        case Harrop(x, ann, m, y, b1, b2):
            if calculus != "KP":
                raise CalculusViolation("hop", calculus)
            d = decompose(m)
            match d:
                case InjectionHead(i, p):
                    arg = Abs(x, ann, p)
                    return substitute(b1 if i == 1 else b2, y, arg), "Harrop-inj"
                case ExfalsoHead(_, p):
                    ty = infer(_child_context(t, 0, _context(frames, ctx, calculus)), m, calculus)
                    arg = Abs(x, ann, Exfalso(ty.left, p))
                    return substitute(b1, y, arg), "Harrop-efq"
            return None
    return None


# ------------------------------------------------- contexts under subterms


def _context(frames, ctx: TypingContext, calculus: str):
    """The context of the node below the (parent, child index) frames,
    outermost first, of a term whose context is ctx.

    Each frame's context comes from the checker's own rule, _child_context.
    A frame's parent need only be current off the frame's path: the rule
    reads only its binders and, below a branch, its premise (child 0).
    """
    for parent, i in frames:
        premise = None
        if i in (1, 2) and isinstance(parent, (Case, Harrop, Visser)):
            premise = infer(_child_context(parent, 0, ctx), children(parent)[0], calculus)
        ctx = _child_context(parent, i, ctx, premise)
    return ctx


# ----------------------------------------------------- position enumeration


def _redexes(t: Term, calculus: str, ctx: TypingContext | None, enter=children):
    """(path, reduct of the subterm there, rule) for every firing position
    among the children enter(node) gives, in preorder, lazily.  The search
    climbs (parent, child index) frames as the normalization walk does and
    builds a path only where a contraction fires."""
    frames: list[tuple[Term, int]] = []
    cur = t
    while True:
        r = step_top_named(cur, calculus, ctx, frames)
        if r is not None:
            yield tuple(i for _, i in frames), r[0], r[1]
        # enter the first child, or climb to the next sibling
        parent, i = cur, -1
        while i + 1 == len(enter(parent)):
            if not frames:
                return
            parent, i = frames.pop()
        frames.append((parent, i + 1))
        cur = enter(parent)[i + 1]


def step_anywhere(t: Term, calculus: str = "IPC", ctx: TypingContext | None = None):
    """All one-step reducts: (path, whole reduct) per firing position, preorder."""
    return [(path, replace_at(t, path, r)) for path, r, _ in _redexes(t, calculus, ctx)]


def is_normal(t: Term, calculus: str = "IPC", ctx: TypingContext | None = None) -> bool:
    """No position fires; the walk stops at the first redex."""
    return next(_redexes(t, calculus, ctx), None) is None


# ------------------------------------------------------- head-spine oracle


def _spine(t: Term) -> tuple[Term, ...]:
    """The oracle's own statement of the head spine: child 0 of an
    application, projection, case or hop."""
    return children(t)[:1] if isinstance(t, (App, Proj, Case, Harrop)) else ()


def weak_head_redexes(t: Term, ctx: TypingContext | None = None):
    """Exhaustive search over head-spine positions for firing contractions.

    Returns (path, whole reduct, rule) triples; determinism of the head step
    says there is at most one, and tests hold this against
    normalize.step_weak_head_named.
    """
    return [(path, replace_at(t, path, r), rule)
            for path, r, rule in _redexes(t, "KP", ctx, _spine)]


# ------------------------------------------------------------------- traces


class TraceStep:
    """One contraction of a reduction sequence: `rule` fired at `path`, the
    child indices from the root, and turned the whole term `before` into
    `after`.

    TraceStep(path, rule, before, after) holds the four values.  The
    normalization walk records a step with `_recorded` instead, in constant
    work beyond a copy of its frames: the rule, the (parent, child index)
    frames down to the redex, the reduct, and the step before it (or the
    input term).  `path`, `after` and `before` are worked out on first read
    and kept: `after` is the reduct plugged through the frames, `before` the
    step before's `after`.  Both kinds compare, hash and print by the four
    values, as a frozen dataclass of them does.
    """

    __slots__ = ("_path", "_rule", "_before", "_after", "_frames", "_reduct")
    __match_args__ = ("path", "rule", "before", "after")

    def __init__(self, path: tuple[int, ...], rule: str, before: Term, after: Term):
        self._path, self._rule, self._before, self._after = path, rule, before, after
        self._frames = self._reduct = None

    @classmethod
    def _recorded(cls, rule: str, frames: tuple, reduct: Term, previous) -> TraceStep:
        """A step whose values are built when read; `previous` is the step
        before it, or the term the sequence starts from."""
        step = cls(None, rule, previous, None)
        step._frames, step._reduct = frames, reduct
        return step

    @property
    def path(self) -> tuple[int, ...]:
        if self._path is None:
            self._path = tuple(i for _, i in self._frames)
        return self._path

    @property
    def rule(self) -> str:
        return self._rule

    @property
    def before(self) -> Term:
        if isinstance(self._before, TraceStep):
            self._before = self._before.after
        return self._before

    @property
    def after(self) -> Term:
        if self._after is None:
            self._after = _plug(self._frames, self._reduct)
        return self._after

    def _values(self):
        return self.path, self.rule, self.before, self.after

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "TraceStep(path={!r}, rule={!r}, before={!r}, after={!r})".format(*self._values())


def replay_step(step: TraceStep, calculus: str, ctx: TypingContext | None = None) -> bool:
    """Apply the recorded rule at the recorded path; must land on `after`."""
    from .syntax import alpha_eq

    try:
        frames = list(_frames(step.before, step.path))
        focus = subterm_at(step.before, step.path)
        r = step_top_named(focus, calculus, ctx, frames)
    except (IndexError, TypeCheckError):  # path off the term, or wrong calculus
        return False
    if r is None or r[1] != step.rule:
        return False
    return alpha_eq(_plug(frames, r[0]), step.after)
