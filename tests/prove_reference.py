"""The prover as it stood before its sequent became one indexed state with
undo, the reference the new prover's tests are held against.

_prove, _without, _Fresh and glue are the old bodies unchanged: every
rule copies the hypothesis list, and every failed sequent glues a new
model from copies of the models above it.  old_ipc_provable runs them as
ipc_provable did, with its model listing every atom of the formula, but
without the self-checks.  forces and atoms_of are the recursive versions
that vkp.kripke's walks are held against.
"""

from __future__ import annotations

from vkp.kripke import KripkeModel
from vkp.syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, Falsum, Formula, Impl, Inj,
    Pair, Proj, Term, Var,
)


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


def glue(atoms: list[str], models: list[KripkeModel]) -> KripkeModel:
    """A new root w0 forcing exactly `atoms`, below a copy of each model.

    The models' worlds are renumbered after the root, one model after the
    other, and the root is put below every world.  The result is a model
    when the root's atoms hold at the root of every model.
    """
    order = {(0, 0)}
    valuation = {p: {0} for p in atoms}
    n = 1
    for m in models:
        order |= {(u + n, v + n) for u, v in m.order}
        for p, ws in m.valuation.items():
            valuation.setdefault(p, set()).update(w + n for w in ws)
        n += m.size
    order |= {(0, w) for w in range(n)}
    return KripkeModel(
        n, frozenset(order), {p: frozenset(ws) for p, ws in valuation.items()}
    )


def forces(model: KripkeModel, w: int, a: Formula) -> bool:
    match a:
        case Atom(n):
            return w in model.valuation.get(n, frozenset())
        case Falsum():
            return False
        case Conj(l, r):
            return forces(model, w, l) and forces(model, w, r)
        case Disj(l, r):
            return forces(model, w, l) or forces(model, w, r)
        case Impl(l, r):
            return all(
                not forces(model, v, l) or forces(model, v, r)
                for v in model.above(w)
            )
    raise TypeError(f"not a formula: {a!r}")


def atoms_of(a: Formula) -> set[str]:
    match a:
        case Atom(n):
            return {n}
        case Falsum():
            return set()
        case Impl(l, r) | Conj(l, r) | Disj(l, r):
            return atoms_of(l) | atoms_of(r)
    raise TypeError(f"not a formula: {a!r}")


def old_ipc_provable(a: Formula) -> Term | KripkeModel:
    """The old search's answer: a witness, or the countermodel ipc_provable
    returned."""
    r = _prove([], a, _Fresh())
    if isinstance(r, KripkeModel):
        val = {p: r.valuation.get(p, frozenset()) for p in sorted(atoms_of(a))}
        return KripkeModel(r.size, r.order, val)
    return r
