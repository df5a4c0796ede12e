"""Normalization strategies and disjunct extraction.

Full normalization (normalize_full, eval_ipc, normalize_kp, and eval_v
at each rebuilt node that is a redex) goes through one loop, _run: an
iterative leftmost-outermost walk that contracts the first redex in
preorder (the head spine first, then the children left to right, under
binders included).  The walk keeps an explicit stack of (parent, child
index) frames instead of recursing, so the depth of a redex is not limited
by the interpreter's recursion limit; substitution and inference still
recurse over the subterms they touch.  These are the frames head contexts
are made of too, and the one plug, syntax._plug, rebuilds the term from
them.  A contraction can only turn ancestors reached through child-0 links
into redexes, so after one the walk backs up over those frames only, with
one plug over the popped frames, and carries on; nothing to its left is
scanned again.
weak_head_normalize iterates the KP head step.  Every strategy counts
steps against a budget and refuses to return a truncated term.

eval_v is the structural evaluator taking a well-typed V term to a normal
term with no visser nodes: it evaluates subterms, reads the shape of each
evaluated main premise, and pushes the abstracted payload into the chosen
branch.  The result proves the same formula in plain IPC.
"""

from __future__ import annotations

from .syntax import (
    Abs, App, Case, Disj, Exfalso, Harrop, Inj, Pair, Proj, Term,
    TypingContext, Var, Visser, children, free_vars, substitute, _plug,
    _subterms,
)
from .typecheck import TypeCheckError, infer
from .reduction import (
    ExfalsoHead, InjectionHead, TraceStep, VarAppHead, child_context,
    contains_hop, decompose, step_top_named, step_weak_head_named, _lams,
)

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


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0


def _run(
    t: Term,
    meter: _Budget,
    calculus: str = "IPC",
    ctx: TypingContext | None = None,
    trace: list[TraceStep] | None = None,
    thread: bool = False,
) -> Term:
    """Contract the first redex in preorder until none is left.

    `frames` are the walk's (parent, child index) frames, outermost first,
    and ctxs[j] is the context of frames[j]'s parent; a parent is current
    in every child but the one the walk is in.  `thread`, which must be
    set only in KP and only while the term holds a hop, passes binder types
    down to every child (only hop contractions read them); visser and hop
    main premises get theirs regardless.
    """
    frames: list[tuple[Term, int]] = []
    ctxs: list[TypingContext] = []
    cur, cctx, whole = t, ctx or {}, t
    while True:
        r = step_top_named(cur, calculus, cctx)
        if r is not None:
            if meter.used >= meter.limit:
                raise BudgetExceeded(_plug(frames, cur), meter.used)
            meter.used += 1
            cur, rule = r
            if trace is not None:
                after = _plug(frames, cur)
                trace.append(TraceStep(tuple(i for _, i in frames), rule, whole, after))
                whole = after
            if thread:  # a contraction adds no hop but may drop the last one
                thread = contains_hop(whole if trace is not None else _plug(frames, cur))
            # only ancestors reached through child-0 links can have become redexes
            k = len(frames)
            while k and frames[k - 1][1] == 0:
                k -= 1
            if k < len(frames):
                cur, cctx = _plug(frames[k:], cur), ctxs[k]
                del frames[k:], ctxs[k:]
            continue
        # no redex here: enter the first child, or climb to the next sibling
        parent, i, pctx = cur, -1, cctx
        k = len(frames)
        while i + 1 == len(children(parent)):
            if not k:
                return _plug(frames, cur)
            k -= 1
            (parent, i), pctx = frames[k], ctxs[k]
        if k < len(frames):
            parent = _plug(frames[k:], cur)
            del frames[k:], ctxs[k:]
        i += 1
        frames.append((parent, i))
        ctxs.append(pctx)
        cur = children(parent)[i]
        if thread or i == 0 and isinstance(parent, (Visser, Harrop)):
            cctx = child_context(parent, i, pctx, calculus)
        else:
            cctx = pctx


def normalize_full(
    t: Term,
    calculus: str = "IPC",
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Reduce to a term with no remaining contractions anywhere."""
    root_ctx = dict(ctx) if ctx else {}
    meter = _Budget(DEFAULT_BUDGET if budget is None else budget)
    thread = calculus == "KP" and contains_hop(t)  # elsewhere a hop is refused
    return _run(t, meter, calculus, root_ctx, trace, thread)


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


def eval_ipc(
    t: Term,
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Leftmost-outermost normalization for plain IPC terms."""
    root_ctx = dict(ctx) if ctx else {}
    if ctx is not None or not free_vars(t):
        _require_typed(t, root_ctx, "IPC")
    elif any(isinstance(s, (Visser, Harrop)) for s in _subterms(t)):
        raise PreconditionViolation("term is not in the IPC fragment")
    return normalize_full(t, "IPC", root_ctx, budget, trace)


def normalize_kp(
    t: Term,
    ctx: TypingContext | None = None,
    budget: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Term:
    """Full normalization for KP terms: head steps first, then congruence."""
    root_ctx = dict(ctx) if ctx else {}
    _require_typed(t, root_ctx, "KP")
    return normalize_full(t, "KP", root_ctx, budget, trace)


def eval_v(t: Term, ctx: TypingContext | None = None, budget: int | None = None) -> Term:
    """Evaluate a V term to an IPC normal form of the same type."""
    root_ctx = dict(ctx) if ctx else {}
    _require_typed(t, root_ctx, "V")
    meter = _Budget(DEFAULT_BUDGET if budget is None else budget)
    return _ev(t, meter)


def _renormalize(t: Term, meter: _Budget) -> Term:
    """Normalize a node rebuilt from normal children: only a redex at its
    root needs the walk."""
    return t if step_top_named(t) is None else _run(t, meter)


def _ev(t: Term, meter: _Budget) -> Term:
    match t:
        case Var():
            return t
        case Abs(x, a, b):
            return Abs(x, a, _ev(b, meter))
        case Exfalso(f, a):
            return Exfalso(f, _ev(a, meter))
        case Pair(a, b):
            return Pair(_ev(a, meter), _ev(b, meter))
        case App(f, a):
            return _renormalize(App(_ev(f, meter), _ev(a, meter)), meter)
        case Proj(i, a):
            return _renormalize(Proj(i, _ev(a, meter)), meter)
        case Inj(i, o, a):
            return Inj(i, o, _ev(a, meter))
        case Case(sc, y, b1, b2):
            rebuilt = Case(_ev(sc, meter), y, _ev(b1, meter), _ev(b2, meter))
            return _renormalize(rebuilt, meter)
        case Visser(bs, m, y, b1, b2, z, us):
            em = _ev(m, meter)
            d = decompose(em)
            match d:
                case InjectionHead(i, p):
                    branch = _ev(b1 if i == 1 else b2, meter)
                    return _run(substitute(branch, y, _lams(bs, p)), meter)
                case ExfalsoHead(_, p):
                    ty = infer(dict(bs), em, "IPC")
                    arg = _lams(bs, Exfalso(ty.left, p))
                    return _run(substitute(_ev(b1, meter), y, arg), meter)
                case VarAppHead(_, v, a):
                    names = [n for n, _ in bs]
                    if v not in names:
                        raise InternalError(f"evaluated main premise headed by {v}")
                    u = _ev(us[names.index(v)], meter)
                    return _run(substitute(u, z, _lams(bs, a)), meter)
            raise InternalError(
                "evaluated visser main premise fits no head shape; "
                "this contradicts the classification of normal forms"
            )
        case Harrop():
            raise PreconditionViolation("hop does not belong to V")
    raise TypeError(f"not a term: {t!r}")


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
