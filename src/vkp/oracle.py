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
real binders take a fresh name.  One sequent, indexed by shape, serves the
whole search: each premise adds to it and undoes that on return, keeping
the hypotheses, and so the search and its names, in a list's order.
Positive answers are checked in IPC before being returned.

A failed search is itself the countermodel (Pinto and Dyckhoff, "Loop-free
construction of counter-models for intuitionistic propositional logic",
1995).  A failed call returns a tree of worlds whose root forces the
call's hypotheses and refutes its goal.  The invertible rules pass a
failed premise's tree up unchanged, and so does a failed right premise
B |- goal of a nested implication.  A sequent where every choice fails
gets a new root forcing exactly its atoms, below the trees of both goal
disjuncts and of each nested implication's left premise; it refutes each
C -> D, since the left premise's root forces C and refutes D.  The final
tree becomes a model (vkp.kripke.tree_model), checked against the formula
before being returned.  It is not the smallest: 3 worlds for A \\/ ~A,
about n * n for the width-n disjunction.
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
from .kripke import KripkeModel, atoms_of, forces, is_valid_model, tree_model


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


# The shapes of hypotheses other than atoms and False; the first five are
# invertible, and so is p -> B once p is present.
_CONJ, _DISJ, _IMP_FALSE, _IMP_CONJ, _IMP_DISJ, _IMP_ATOM, _IMP_IMP = range(7)
_IMP_TAG = {Falsum: _IMP_FALSE, Conj: _IMP_CONJ, Disj: _IMP_DISJ,
            Atom: _IMP_ATOM, Impl: _IMP_IMP}


class _Sequent:
    """The hypotheses of one search.  Atoms and False are never consumed:
    `atoms` maps a name, or None for False, to its first realizer.  `rest`
    keeps the others in order as (realizer, formula, tag)."""

    __slots__ = ("atoms", "rest", "k")

    def __init__(self):
        self.atoms: dict[str | None, Term] = {}
        self.rest: list[tuple[Term, Formula, int]] = []
        self.k = 0

    def fresh(self) -> str:
        self.k += 1
        return f"h{self.k}"


def _prove(
    s: _Sequent, goal: Formula, out: int | None = None, new: list | tuple = ()
) -> Term | tuple:
    """Backtracking search over hypotheses paired with their realizers: a
    proof term built from those realizers, or a tree (atoms, trees above)
    whose root forces every hypothesis and refutes the goal.  This call
    alone takes s.rest[out] out and puts `new` (realizer, formula) at the end."""
    atoms, rest = s.atoms, s.rest
    entry = None if out is None else rest.pop(out)
    size, added = len(rest), []
    for r, a in new:
        t = type(a)
        if t is Impl:
            rest.append((r, a, _IMP_TAG[type(a.left)]))
        elif t is Atom or t is Falsum:
            key = a.name if t is Atom else None
            if key not in atoms:
                atoms[key] = r
                added.append(key)
        else:
            rest.append((r, a, _CONJ if t is Conj else _DISJ))
    try:
        if type(goal) is Atom and goal.name in atoms:
            return atoms[goal.name]
        if None in atoms:
            return atoms[None] if type(goal) is Falsum else Exfalso(goal, atoms[None])

        # invertible left rules: the first one that applies fires and commits
        for i, (r, a, tag) in enumerate(rest):
            if tag >= _IMP_ATOM and (tag == _IMP_IMP or a.left.name not in atoms):
                continue
            if tag == _CONJ:
                return _prove(s, goal, i, [(Proj(1, r), a.left), (Proj(2, r), a.right)])
            if tag == _DISJ:
                n = s.fresh()
                sub1 = _prove(s, goal, i, [(Var(n), a.left)])
                if isinstance(sub1, tuple):
                    return sub1
                sub2 = _prove(s, goal, i, [(Var(n), a.right)])
                return sub2 if isinstance(sub2, tuple) else Case(r, n, sub1, sub2)
            if tag == _IMP_FALSE:
                return _prove(s, goal, i)
            if tag == _IMP_ATOM:
                return _prove(s, goal, i, [(App(r, atoms[a.left.name]), a.right)])
            (c, d), b = (a.left.left, a.left.right), a.right
            xc, xd = s.fresh(), s.fresh()
            if tag == _IMP_CONJ:
                curried = Abs(xc, c, Abs(xd, d, App(r, Pair(Var(xc), Var(xd)))))
                return _prove(s, goal, i, [(curried, Impl(c, Impl(d, b)))])
            left = Abs(xc, c, App(r, Inj(1, d, Var(xc))))
            right = Abs(xd, d, App(r, Inj(2, c, Var(xd))))
            return _prove(s, goal, i, [(left, Impl(c, b)), (right, Impl(d, b))])

        # invertible right rules
        if isinstance(goal, Conj):
            t1 = _prove(s, goal.left)
            if isinstance(t1, tuple):
                return t1
            t2 = _prove(s, goal.right)
            return t2 if isinstance(t2, tuple) else Pair(t1, t2)
        if isinstance(goal, Impl):
            n = s.fresh()
            sub = _prove(s, goal.right, None, [(Var(n), goal.left)])
            return sub if isinstance(sub, tuple) else Abs(n, goal.left, sub)

        # the genuine choice points: a goal disjunct, or a nested left implication
        above: list[tuple] = []  # the trees of the failed choices
        if isinstance(goal, Disj):
            t1 = _prove(s, goal.left)
            if not isinstance(t1, tuple):
                return Inj(1, goal.right, t1)
            t2 = _prove(s, goal.right)
            if not isinstance(t2, tuple):
                return Inj(2, goal.left, t2)
            above += [t1, t2]
        refuted = None  # a failed right premise refutes this whole sequent
        for i, (r, a, tag) in enumerate(rest):
            if tag != _IMP_IMP:
                continue
            (c, d), b = (a.left.left, a.left.right), a.right
            xd, xc = s.fresh(), s.fresh()
            back = Abs(xd, d, App(r, Abs(xc, c, Var(xd))))
            arm = _prove(s, a.left, i, [(back, Impl(d, b))])
            if isinstance(arm, tuple):
                above.append(arm)
                continue
            sub = _prove(s, goal, i, [(App(r, arm), b)])
            if not isinstance(sub, tuple):
                return sub
            if refuted is None:
                refuted = sub
        if refuted is not None:
            return refuted
        return tuple(atoms), above  # no False here: ex falso would have proved it
    finally:
        del rest[size:]
        for key in added:
            del atoms[key]
        if out is not None:
            rest.insert(out, entry)


def ipc_provable(a: Formula) -> Provable | NotProvable:
    """Decide plain intuitionistic provability; both answers are self-checked."""
    r = _prove(_Sequent(), a)
    if isinstance(r, tuple):
        # list every atom of the formula, so the model names them all
        model = tree_model(r, sorted(atoms_of(a)))
        if not is_valid_model(model) or forces(model, 0, a):
            raise InternalError("the failed search built a bad countermodel")
        return NotProvable(model)
    try:
        check({}, r, a, "IPC")
    except TypeCheckError as e:
        raise InternalError(f"search produced an ill-typed witness: {e}") from e
    return Provable(r)
