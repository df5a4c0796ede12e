"""The recursive type checker as it stood before `infer` became one
explicit-stack walk, the reference the walk's tests are held against.

infer is the old body unchanged: a `match` that recurses into every
subterm, so it walks a shared node once per occurrence and is bounded by
the interpreter's recursion limit.  It raises vkp's own exception classes,
so the two checkers' answers compare class for class.
"""

from vkp.syntax import (
    Abs, App, Case, Conj, Disj, Exfalso, Falsum, Formula, Harrop, Impl, Inj,
    Pair, Proj, Term, TypingContext, Var, Visser, CALCULI, free_vars,
)
from vkp.typecheck import (
    BranchTypeMismatch, CalculusViolation, NotAConjunction, NotADisjunction,
    NotAnImplication, TypeMismatch, UnknownVariable, VisserOpenAssumption,
    _curried,
)


def infer(ctx: TypingContext, t: Term, calculus: str = "IPC") -> Formula:
    """Unique type of t under ctx, or a TypeCheckError."""
    if calculus not in CALCULI:
        raise ValueError(f"unknown calculus {calculus!r}")
    match t:
        case Var(n):
            if n not in ctx:
                raise UnknownVariable(n)
            return ctx[n]
        case Abs(x, a, b):
            return Impl(a, infer({**ctx, x: a}, b, calculus))
        case App(f, a):
            tf = infer(ctx, f, calculus)
            if not isinstance(tf, Impl):
                raise NotAnImplication(tf)
            ta = infer(ctx, a, calculus)
            if ta != tf.left:
                raise TypeMismatch(tf.left, ta)
            return tf.right
        case Exfalso(target, a):
            ta = infer(ctx, a, calculus)
            if not isinstance(ta, Falsum):
                raise TypeMismatch(Falsum(), ta)
            return target
        case Pair(a, b):
            return Conj(infer(ctx, a, calculus), infer(ctx, b, calculus))
        case Proj(i, a):
            ta = infer(ctx, a, calculus)
            if not isinstance(ta, Conj):
                raise NotAConjunction(ta)
            return ta.left if i == 1 else ta.right
        case Inj(i, other, a):
            ta = infer(ctx, a, calculus)
            return Disj(ta, other) if i == 1 else Disj(other, ta)
        case Case(sc, y, b1, b2):
            ts = infer(ctx, sc, calculus)
            if not isinstance(ts, Disj):
                raise NotADisjunction(ts)
            d1 = infer({**ctx, y: ts.left}, b1, calculus)
            d2 = infer({**ctx, y: ts.right}, b2, calculus)
            if d1 != d2:
                raise BranchTypeMismatch(d1, d2)
            return d1
        case Visser(bs, m, y, b1, b2, z, us):
            if calculus != "V":
                raise CalculusViolation("visser", calculus)
            names = {n for n, _ in bs}
            extra = free_vars(m) - names
            if extra:
                raise VisserOpenAssumption(extra)
            # the main premise sees exactly the visser binders, nothing else
            tm = infer(dict(bs), m, calculus)
            if not isinstance(tm, Disj):
                raise NotADisjunction(tm)
            d1 = infer({**ctx, y: _curried(bs, tm.left)}, b1, calculus)
            d2 = infer({**ctx, y: _curried(bs, tm.right)}, b2, calculus)
            if d1 != d2:
                raise BranchTypeMismatch(d1, d2)
            for (_, annot), u in zip(bs, us):
                du = infer({**ctx, z: _curried(bs, annot.left)}, u, calculus)
                if du != d1:
                    raise BranchTypeMismatch(d1, du)
            return d1
        case Harrop(x, annot, m, y, b1, b2):
            if calculus != "KP":
                raise CalculusViolation("hop", calculus)
            tm = infer({**ctx, x: annot}, m, calculus)
            if not isinstance(tm, Disj):
                raise NotADisjunction(tm)
            d1 = infer({**ctx, y: Impl(annot, tm.left)}, b1, calculus)
            d2 = infer({**ctx, y: Impl(annot, tm.right)}, b2, calculus)
            if d1 != d2:
                raise BranchTypeMismatch(d1, d2)
            return d1
    raise TypeError(f"not a term: {t!r}")

