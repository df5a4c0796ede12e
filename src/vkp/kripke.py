"""Finite rooted Kripke models: forcing, the model check and gluing.

Models live on worlds 0..n-1 with world 0 the root and the order stored as
a set of pairs.  glue puts a new root below copies of several models; the
prover (vkp.oracle) builds its countermodels that way from a failed
search.  A bounded brute-force search, which the tests hold the prover
against, lives with the tests (tests/kripke_reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Atom, Conj, Disj, Falsum, Formula, Impl


@dataclass(frozen=True)
class KripkeModel:
    size: int
    order: frozenset[tuple[int, int]]  # reflexive-transitive, (u, v) means u <= v
    valuation: dict[str, frozenset[int]]

    def above(self, w: int) -> list[int]:
        return [v for v in range(self.size) if (w, v) in self.order]

    def describe(self) -> str:
        lines = [f"{self.size} worlds, root w0"]
        for w in range(self.size):
            ups = [f"w{v}" for v in self.above(w) if v != w]
            lines.append(f"  w{w} <= {' '.join(ups) if ups else '(none)'}")
        for atom in sorted(self.valuation):
            ws = ", ".join(f"w{w}" for w in sorted(self.valuation[atom]))
            lines.append(f"  {atom}: {{{ws}}}" if ws else f"  {atom}: {{}}")
        return "\n".join(lines)


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


def is_valid_model(model: KripkeModel) -> bool:
    """Rooted partial order with up-closed valuations.

    Each world's up-set is indexed once, so every check costs at most
    worlds x pairs set operations.
    """
    n = model.size
    if n < 1:  # no world 0, so no root
        return False
    up: dict[int, set[int]] = {w: set() for w in range(n)}
    for u, v in model.order:
        if not (0 <= u < n and 0 <= v < n):
            return False
        up[u].add(v)
    if any(w not in up[w] for w in range(n)):
        return False
    for u, v in model.order:
        if u != v and u in up[v]:
            return False
        if not up[v] <= up[u]:
            return False
    if len(up.get(0, ())) < n:
        return False
    for ws in model.valuation.values():
        if any(w not in up or not up[w] <= ws for w in ws):
            return False
    return True


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


def atoms_of(a: Formula) -> set[str]:
    match a:
        case Atom(n):
            return {n}
        case Falsum():
            return set()
        case Impl(l, r) | Conj(l, r) | Disj(l, r):
            return atoms_of(l) | atoms_of(r)
    raise TypeError(f"not a formula: {a!r}")
