"""Normalization strategies and disjunct extraction.

There is one normalization walk, normalize_full; normalize_kp and eval_v
check their precondition and run it.  It is an iterative
leftmost-outermost walk that contracts the first redex in preorder (the
head spine first, then the children left to right, under binders
included).  The walk keeps an explicit stack of (parent, child index)
frames instead of recursing, and neither substitution nor inference
recurses, so the recursion limit bounds neither the depth of a redex nor
that of the body it contracts over (a beta redex or a case on an
injection over a 10,000-deep body normalizes).  These are the frames head
contexts are made of too, and the one plug, syntax._plug, rebuilds the
term from them.  A contraction can only turn ancestors reached through
child-0 links into redexes (a visser or hop fires on the head spine of its
main premise, child 0), so after one the walk backs up over those frames
only, with one plug over the popped frames, and carries on; nothing to its
left is scanned again.  The walk passes the caller's context to every
contraction unchanged, except where Harrop-efq, the one contraction that
reads binder types, can fire: there it works them out down to the hop from
the frames.  A traced walk records each contraction as its rule, a copy of
the frames and the reduct; the TraceStep plugs its whole terms only when
they are read, so tracing adds no plug to the walk.  weak_head_normalize
iterates the KP head step.  Every strategy counts steps against a budget
and refuses to return a truncated term.

eval_v is that walk in V followed by a check that no visser node is left:
a V normal form is a plain intuitionistic term proving the same formula.
"""

from __future__ import annotations

from .syntax import (
    Disj, Inj, Term, TypingContext, Var, Visser, children, free_vars,
    _plug, _subterms,
)
from .typecheck import TypeCheckError, infer
from .reduction import TraceStep, step_top_named, step_weak_head_named, _context

DEFAULT_BUDGET = 10**6


class PreconditionViolation(Exception):
    pass


class BudgetExceeded(Exception):
    """The step budget ran out; carries the last term reached, untruncated."""

    def __init__(self, last: Term, steps: int):
        super().__init__(f"no normal form within {steps} steps")
        self.last = last
        self.steps = steps


class InternalError(Exception):
    """A kernel invariant failed; this is a bug, not a user error."""


def normalize_full(
    t: Term,
    calculus: str = "IPC",
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Reduce to a term with no remaining contractions anywhere.

    `frames` are the walk's (parent, child index) frames, outermost first;
    a parent is current in every child but the one the walk is in, which is
    all a hop's context needs (_context).  Outside KP a hop is refused.
    """
    limit = DEFAULT_BUDGET if budget is None else budget
    used = 0
    frames: list[tuple[Term, int]] = []
    cur = t
    while True:
        # a variable is never a redex
        r = None if isinstance(cur, Var) else step_top_named(
            cur, calculus, _context(cur, frames, ctx, calculus))
        if r is not None:
            if used >= limit:
                raise BudgetExceeded(_plug(frames, cur), used)
            used += 1
            cur, rule = r
            if trace is not None:
                # the first step starts from t, whatever the list held before
                trace.append(TraceStep._recorded(
                    rule, tuple(frames), cur, t if used == 1 else trace[-1]))
            # only ancestors reached through child-0 links can have become redexes
            k = len(frames)
            while k and frames[k - 1][1] == 0:
                k -= 1
            if k < len(frames):
                cur = _plug(frames[k:], cur)
                del frames[k:]
            continue
        # no redex here: enter the first child, or climb to the next sibling
        parent, i = cur, -1
        k = len(frames)
        while i + 1 == len(children(parent)):
            if not k:
                return _plug(frames, cur)
            k -= 1
            parent, i = frames[k]
        if k < len(frames):
            parent = _plug(frames[k:], cur)
            del frames[k:]
        i += 1
        frames.append((parent, i))
        cur = children(parent)[i]


def weak_head_normalize(
    t: Term,
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Iterate the deterministic KP head step until it sticks."""
    limit = DEFAULT_BUDGET if budget is None else budget
    used = 0
    while True:
        r = step_weak_head_named(t, ctx)
        if r is None:
            return t
        if used >= limit:
            raise BudgetExceeded(t, used)
        used += 1
        whole, path, rule = r
        if trace is not None:
            trace.append(TraceStep(path, rule, t, whole))
        t = whole


def _require_typed(t: Term, ctx: TypingContext, calculus: str):
    try:
        return infer(ctx, t, calculus)
    except TypeCheckError as e:
        raise PreconditionViolation(f"term does not check in {calculus}: {e}") from e


def normalize_kp(
    t: Term,
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Full normalization for KP terms: head steps first, then congruence."""
    _require_typed(t, ctx or {}, "KP")
    return normalize_full(t, "KP", ctx, budget, trace)


def eval_v(t: Term, ctx: TypingContext | None = None, budget: int | None = None) -> Term:
    """Normalize a V term to an IPC normal form of the same type."""
    _require_typed(t, ctx or {}, "V")
    nf = normalize_full(t, "V", ctx, budget)
    if any(isinstance(s, Visser) for s in _subterms(nf)):
        raise InternalError(
            "a visser node survives normalization; "
            "this contradicts the classification of normal forms"
        )
    return nf


def extract_disjunct(t: Term, calculus: str = "KP", budget: int | None = None):
    """Side and witness from a closed disjunction proof.

    Returns ("Left", w) or ("Right", w) with w proving the matching disjunct.
    """
    fv = free_vars(t)
    if fv:
        raise PreconditionViolation(f"term is not closed: {', '.join(sorted(fv))}")
    ty = _require_typed(t, {}, calculus)
    if not isinstance(ty, Disj):
        raise PreconditionViolation("term does not prove a disjunction")
    if calculus == "V":
        nf = eval_v(t, {}, budget)
    else:
        nf = normalize_full(t, calculus, {}, budget)
    if not isinstance(nf, Inj):
        raise InternalError(
            "closed normal disjunction proof is not an injection; "
            "this contradicts the classification of normal forms"
        )
    return ("Left" if nf.index == 1 else "Right"), nf.arg
