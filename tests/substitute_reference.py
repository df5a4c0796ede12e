"""Capture-avoiding substitution as it stood before `substitute` read the
term shape table, the reference the table-driven one is held against.

substitute and _scoped are the old bodies unchanged: a `match` with one
case per term class, and a hand-written sequence of `_scoped` calls for
each binder group of Visser and Harrop.  Both pick renamed binder names
the same way, so their results compare by repr, names included.
"""

from vkp.syntax import (
    Abs, App, Case, Exfalso, Harrop, Inj, Pair, Proj, Term, Var, Visser,
    free_vars, fresh_name,
)


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
