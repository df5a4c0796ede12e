"""Independent oracles: normal-form classification and IPC provability.

classify names the shape of a normal term, given a context of the right
discipline: all implications (for V) or all negations (for KP).  The shape
lemmas promise one of a fixed set of reports; anything else is a kernel bug
and raises ClassificationFailure.

ipc_provable decides intuitionistic provability with a terminating sequent
search in the contraction-free style, where a left implication is split
four ways by the shape of its antecedent:

    atom:        p, p -> B  gives  B        (only when p is present)
    conjunction: (C /\\ D) -> B   becomes   C -> (D -> B)
    disjunction: (C \\/ D) -> B   becomes   C -> B  and  D -> B
    implication: (C -> D) -> B   needs  D -> B |- C -> D, then B |- goal

Every premise is smaller in the multiset order of formula weights, so the
search needs no fuel.

Each hypothesis is paired with a term that proves it, its realizer
(Dyckhoff, "Contraction-free sequent calculi for intuitionistic logic",
1992).  A left rule puts the realizers of its new hypotheses straight into
the premise: Proj(1, r) and Proj(2, r) for a conjunction, r r' for p -> B,
fun c => fun d => r (c, d) for (C /\\ D) -> B, and so on.  So the proof
term is built as the search goes, and no substitution is ever made; only
real binders (a right implication, a case, the realizers' own lambdas)
take a fresh name.  Positive answers are checked in IPC before being
returned.

A failed search is itself the countermodel (Pinto and Dyckhoff, "Loop-free
construction of counter-models for intuitionistic propositional logic",
1995).  Every failed call returns a finite rooted model whose root forces
its hypotheses and refutes its goal.  The invertible rules pass a failed
premise's model up unchanged, and so does a failed right premise
B |- goal of a nested implication.  A sequent where every choice fails
gets a new root forcing exactly its atoms, below the models of both goal
disjuncts and of each nested implication's left premise.  That root
refutes each disjunct, and it refutes each C -> D, since the left
premise's root forces C and refutes D; so it forces every (C -> D) -> B.
The model is checked against the formula before being returned.  It is
not the smallest one: for A \\/ ~A it has 3 worlds, for the width-n
disjunction about n * n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, Falsum, Formula, Impl, Inj,
    Pair, Proj, Term, TypingContext, Var, is_neg,
)
from .typecheck import TypeCheckError, check, infer
from .reduction import ExfalsoHead, InjectionHead, VarAppHead, decompose, is_normal
from .normalize import InternalError, PreconditionViolation
from .kripke import KripkeModel, atoms_of, forces, glue, is_valid_model


class ClassificationFailure(Exception):
    """A normal form fit none of the promised shapes; kernel bug."""


# ------------------------------------------------------------ classification


@dataclass(frozen=True)
class ClassReport:
    kind: str  # Abstraction | VariableInCtx | Injection | Pair
    #            | ArrowNeutral | NegNeutral | VarAppFalsum
    context: tuple | None = None  # neutral kinds: the head context, (node, 0) frames
    head: Term | None = None


def _ctx_shape_ok(ctx: TypingContext, calculus: str) -> bool:
    if calculus == "V":
        return all(isinstance(a, Impl) for a in ctx.values())
    return all(is_neg(a) for a in ctx.values())


def classify(ctx: TypingContext, t: Term, calculus: str) -> ClassReport:
    """Shape of a normal term under an implication-only or negation-only context."""
    if calculus not in ("V", "KP"):
        raise PreconditionViolation(f"classification is for V or KP, not {calculus}")
    if not _ctx_shape_ok(ctx, calculus):
        want = "implications" if calculus == "V" else "negations"
        raise PreconditionViolation(f"context entries must all be {want}")
    try:
        ty = infer(ctx, t, calculus)
    except TypeCheckError as e:
        raise PreconditionViolation(f"term does not check: {e}") from e
    if not is_normal(t, calculus, ctx):
        raise PreconditionViolation("term is not normal")

    d = decompose(t)
    if isinstance(d, InjectionHead):
        return ClassReport("Injection")
    if calculus == "V":
        match d:
            case VarAppHead(w, v, a):
                if v not in ctx:
                    raise ClassificationFailure(f"head variable {v} is not in scope")
                return ClassReport("ArrowNeutral", w, App(Var(v), a))
            case ExfalsoHead(w, _):
                return ClassReport("ArrowNeutral", w)
    else:
        match d:
            case ExfalsoHead(w, _):
                return ClassReport("NegNeutral", w)
            case VarAppHead(w, v, a):
                if not w and v in ctx and ty == Falsum():
                    return ClassReport("VarAppFalsum", head=App(Var(v), a))
                raise ClassificationFailure(
                    f"variable head {v} outside the falsity shape at type {ty}"
                )
    match ty:
        case Impl():
            if isinstance(t, Abs):
                return ClassReport("Abstraction")
            if isinstance(t, Var) and t.name in ctx:
                return ClassReport("VariableInCtx")
        case Conj():
            if isinstance(t, Pair):
                return ClassReport("Pair")
    raise ClassificationFailure(
        f"normal term of type {ty} fits no classified shape: {t!r}"
    )


# ------------------------------------------------------------ the prover


@dataclass(frozen=True)
class Provable:
    witness: Term


@dataclass(frozen=True)
class NotProvable:
    countermodel: KripkeModel


class _Fresh:
    def __init__(self):
        self.k = 0

    def __call__(self) -> str:
        self.k += 1
        return f"h{self.k}"


def _without(hyps: list, i: int) -> list:
    """A new list of the hypotheses but the i-th; built only for a rule
    that fires."""
    return hyps[:i] + hyps[i + 1:]


def _prove(
    hyps: list[tuple[Term, Formula]], goal: Formula, fresh: _Fresh
) -> Term | KripkeModel:
    """Backtracking search over hypotheses paired with their realizers: a
    proof term built from those realizers, or a model whose root forces
    every hypothesis and refutes the goal."""
    for r, a in hyps:
        if a == goal and isinstance(a, (Atom, Falsum)):
            return r
    for r, a in hyps:
        if isinstance(a, Falsum):
            return Exfalso(goal, r)

    # invertible left rules: each fires at most once and commits
    for i, (r, a) in enumerate(hyps):
        match a:
            case Conj(c, d):
                return _prove(_without(hyps, i) + [(Proj(1, r), c), (Proj(2, r), d)],
                              goal, fresh)
            case Disj(c, d):
                rest, n = _without(hyps, i), fresh()
                sub1 = _prove(rest + [(Var(n), c)], goal, fresh)
                if isinstance(sub1, KripkeModel):
                    return sub1
                sub2 = _prove(rest + [(Var(n), d)], goal, fresh)
                if isinstance(sub2, KripkeModel):
                    return sub2
                return Case(r, n, sub1, sub2)
            case Impl(Falsum(), _):
                return _prove(_without(hyps, i), goal, fresh)
            case Impl(Conj(c, d), b):
                xc, xd = fresh(), fresh()
                curried = Abs(xc, c, Abs(xd, d, App(r, Pair(Var(xc), Var(xd)))))
                return _prove(_without(hyps, i) + [(curried, Impl(c, Impl(d, b)))],
                              goal, fresh)
            case Impl(Disj(c, d), b):
                xc, xd = fresh(), fresh()
                left = Abs(xc, c, App(r, Inj(1, d, Var(xc))))
                right = Abs(xd, d, App(r, Inj(2, c, Var(xd))))
                return _prove(_without(hyps, i) + [(left, Impl(c, b)), (right, Impl(d, b))],
                              goal, fresh)
            case Impl(Atom() as p, b):
                for r2, a2 in hyps:  # hyps[i] is no atom, so this is rest's first p
                    if a2 == p:
                        return _prove(_without(hyps, i) + [(App(r, r2), b)], goal, fresh)

    # invertible right rules
    match goal:
        case Conj(c, d):
            t1 = _prove(hyps, c, fresh)
            if isinstance(t1, KripkeModel):
                return t1
            t2 = _prove(hyps, d, fresh)
            if isinstance(t2, KripkeModel):
                return t2
            return Pair(t1, t2)
        case Impl(c, d):
            n = fresh()
            sub = _prove(hyps + [(Var(n), c)], d, fresh)
            if isinstance(sub, KripkeModel):
                return sub
            return Abs(n, c, sub)

    # the genuine choice points: a goal disjunct, or a nested left implication
    above: list[KripkeModel] = []  # the models of the failed choices
    if isinstance(goal, Disj):
        t1 = _prove(hyps, goal.left, fresh)
        if not isinstance(t1, KripkeModel):
            return Inj(1, goal.right, t1)
        t2 = _prove(hyps, goal.right, fresh)
        if not isinstance(t2, KripkeModel):
            return Inj(2, goal.left, t2)
        above += [t1, t2]
    refuted = None  # a failed right premise refutes this whole sequent
    for i, (r, a) in enumerate(hyps):
        match a:
            case Impl(Impl(c, d), b):
                rest = _without(hyps, i)
                xd, xc = fresh(), fresh()
                back = Abs(xd, d, App(r, Abs(xc, c, Var(xd))))
                arm = _prove(rest + [(back, Impl(d, b))], Impl(c, d), fresh)
                if isinstance(arm, KripkeModel):
                    above.append(arm)
                    continue
                sub = _prove(rest + [(App(r, arm), b)], goal, fresh)
                if isinstance(sub, KripkeModel):
                    if refuted is None:
                        refuted = sub
                    continue
                return sub
    if refuted is not None:
        return refuted
    return glue([a.name for _, a in hyps if isinstance(a, Atom)], above)


def ipc_provable(a: Formula) -> Provable | NotProvable:
    """Decide plain intuitionistic provability; both answers are self-checked."""
    r = _prove([], a, _Fresh())
    if isinstance(r, KripkeModel):
        # list every atom of the formula, so the model names them all
        val = {p: r.valuation.get(p, frozenset()) for p in sorted(atoms_of(a))}
        model = KripkeModel(r.size, r.order, val)
        if not is_valid_model(model) or forces(model, 0, a):
            raise InternalError("the failed search built a bad countermodel")
        return NotProvable(model)
    try:
        check({}, r, a, "IPC")
    except TypeCheckError as e:
        raise InternalError(f"search produced an ill-typed witness: {e}") from e
    return Provable(r)
