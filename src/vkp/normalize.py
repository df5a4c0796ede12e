"""Normalization strategies and disjunct extraction.

There is one normalization walk, _walk; normalize_full runs it over every
child, weak_head_normalize over child 0 of applications, projections,
cases and hops only (the KP head spine), step_weak_head_named is its first
contraction there, and normalize_kp and eval_v check their precondition
and run normalize_full.  The walk is iterative and leftmost-outermost: it
contracts the first redex in preorder among the children it may enter
(the head spine first, then the children left to right, under binders
included).  It keeps an explicit stack of (parent, child index) frames
instead of recursing, and neither substitution nor inference recurses, so
the recursion limit bounds neither the depth of a redex nor that of the
body it contracts over (a beta redex or a case on an injection over a
10,000-deep body normalizes).  These are the frames head contexts are made
of too, and the one plug, syntax._plug, rebuilds the term from them.

Everything the walk passed before a contraction stays as it was, and of
the ancestors only two can have become redexes: the parent, through child
0, and the nearest visser or hop whose main premise reaches the reduct
through application, projection and case child-0 links, which reads that
spine (decompose) and fires on it only if the reduct's own spine ends in
an exfalso or a variable.  So the walk backs up to that visser or hop when
the reduct's head is one of those and it exists, else to the parent when
the reduct is its child 0, with one plug over the popped frames, and
carries on; nothing to its left is scanned again.  The walk hands every
contraction the caller's context and its live frames; only Harrop-efq,
the one contraction that reads binder types, works them out from the two,
down to the hop.  A traced run records
each contraction as its rule, a copy of the frames and the reduct; the
TraceStep plugs its whole terms only when they are read, so tracing adds
no plug to the walk.  Every strategy counts steps against a budget and
refuses to return a truncated term.

eval_v is that walk in V followed by a check that no visser node is left:
a V normal form is a plain intuitionistic term proving the same formula.
"""

from __future__ import annotations

from .syntax import (
    App, Case, Disj, Exfalso, Harrop, Inj, Proj, Term, TypingContext, Var,
    Visser, children, free_vars, _plug, _subterms,
)
from .typecheck import TypeCheckError, infer
from .reduction import TraceStep, step_top_named

DEFAULT_BUDGET = 10**6

_SPINE = (App, Proj, Case)  # the links a main premise's head spine runs through


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


def _head_child(t: Term) -> tuple[Term, ...]:
    """The children the KP head strategy enters: child 0 of an
    application, projection, case or hop."""
    return children(t)[:1] if isinstance(t, (App, Proj, Case, Harrop)) else ()


def _walk(t: Term, calculus: str, ctx: TypingContext | None, enter):
    """Contract leftmost-outermost among the children enter(node) gives.

    Yields (frames, redex, reduct, rule) for each contraction, with the
    live frames down to the redex, carries on from the reduct, and returns
    the final term.  `frames` are (parent, child index) pairs, outermost
    first, and step_top_named gets them with ctx, the context of t; a
    parent is current in every child but the one the walk is in, which is
    all a hop's context needs (reduction._context).  Outside KP a hop is
    refused.
    """
    frames: list[tuple[Term, int]] = []
    cur = t
    while True:
        # a variable is never a redex
        r = None if isinstance(cur, Var) else step_top_named(cur, calculus, ctx, frames)
        if r is not None:
            reduct, rule = r
            yield frames, cur, reduct, rule
            cur = head = reduct
            k = len(frames) - 1
            if k >= 0 and frames[k][1] == 0:
                # the parent can have become a redex, and so can the visser
                # or hop over its run of spine links if the reduct's own
                # spine ends in an exfalso or a variable
                while isinstance(head, _SPINE):
                    head = children(head)[0]
                j = k
                if isinstance(head, (Exfalso, Var)):
                    while j and frames[j - 1][1] == 0 and isinstance(frames[j][0], _SPINE):
                        j -= 1
                if isinstance(frames[j][0], (Visser, Harrop)):
                    k = j
                cur = _plug(frames[k:], cur)
                del frames[k:]
            continue
        # no redex here: enter the first child, or climb to the next sibling
        parent, i = cur, -1
        k = len(frames)
        while i + 1 == len(enter(parent)):
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


def _run(walk, t: Term, budget: int | None, trace: list[TraceStep] | None) -> Term:
    """The final term of a walk from t, its contractions counted against
    the budget and, when tracing, recorded."""
    limit = DEFAULT_BUDGET if budget is None else budget
    used = 0
    while True:
        try:
            frames, redex, reduct, rule = next(walk)
        except StopIteration as done:
            return done.value
        if used >= limit:
            raise BudgetExceeded(_plug(frames, redex), used)
        used += 1
        if trace is not None:
            # the first step starts from t, whatever the list held before
            trace.append(TraceStep._recorded(
                rule, tuple(frames), reduct, t if used == 1 else trace[-1]))


def normalize_full(
    t: Term,
    calculus: str = "IPC",
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Reduce to a term with no remaining contractions anywhere."""
    return _run(_walk(t, calculus, ctx, children), t, budget, trace)


def weak_head_normalize(
    t: Term,
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Repeat the deterministic KP head step until it sticks."""
    return _run(_walk(t, "KP", ctx, _head_child), t, budget, trace)


def step_weak_head_named(t: Term, ctx: TypingContext | None = None):
    """One deterministic head step in KP; (whole reduct, path, rule) or None.

    The first contraction of the head walk: it goes down the unique head
    spine (application functions, scrutinees, hop main premises) and
    contracts the outermost firing position.
    """
    step = next(_walk(t, "KP", ctx, _head_child), None)
    return step and (_plug(step[0], step[2]), (0,) * len(step[0]), step[3])


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
