"""Finite rooted Kripke models: forcing, the model check, trees to models.

Models live on worlds 0..n-1 with world 0 the root and the order stored as
a set of pairs.  Each check reads the order once into one int bit mask per
world, bit v standing for world v, and then works on masks: the model check
tests each pair of the order and each world of a valuation with one mask
operation, and forcing evaluates each node of the formula to the mask of
the worlds that force it.  tree_model numbers the tree of worlds the prover
(vkp.oracle) reads off a failed search.  Formulas are walked without
recursion.  The set-based model check and numbering these are held
against, and a bounded brute-force search, which the tests hold the prover
against, live with the tests (tests/kripke_reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .syntax import Atom, Conj, Disj, Falsum, Formula, Impl


@dataclass(frozen=True)
class KripkeModel:
    size: int
    order: frozenset[tuple[int, int]]  # reflexive-transitive, (u, v) means u <= v
    valuation: dict[str, frozenset[int]]

    def above(self, w: int) -> list[int]:
        return [v for v in range(self.size) if (w, v) in self.order]

    def describe(self) -> str:
        lines = [f"{self.size} world{'' if self.size == 1 else 's'}, root w0"]
        for w in range(self.size):
            ups = [f"w{v}" for v in self.above(w) if v != w]
            lines.append(f"  w{w} <= {' '.join(ups) if ups else '(none)'}")
        for atom in sorted(self.valuation):
            ws = ", ".join(f"w{w}" for w in sorted(self.valuation[atom]))
            lines.append(f"  {atom}: {{{ws}}}" if ws else f"  {atom}: {{}}")
        return "\n".join(lines)


# what waits on forces' stack under a connective's two sides
_AND, _OR, _IMP = object(), object(), object()
_COMBINE = {Conj: _AND, Disj: _OR, Impl: _IMP}


def forces(model: KripkeModel, w: int, a: Formula) -> bool:
    """Whether world w forces a.

    The order is read once into the down-set mask of each world: bit u for
    world u, and bit n for w when it is none of the n worlds.  a is then
    evaluated in post-order over an explicit stack, each node to the mask
    of the worlds forcing it.  An implication holds everywhere except below
    the worlds that force its left side but not its right.
    """
    n = model.size
    bit = {v: 1 << v for v in range(n)}
    bit.setdefault(w, 1 << n)
    down = [0] * (n + 1)  # by bit: the worlds below
    for u, v in model.order:
        if 0 <= v < n:
            down[v] |= bit.get(u, 0)
    everywhere = (1 << n + 1) - 1
    atoms: dict[str, int] = {}
    vals: list[int] = []
    todo: list = [a]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is Atom:
            m = atoms.get(f.name)
            if m is None:
                m = 0
                for v in model.valuation.get(f.name, ()):
                    m |= bit.get(v, 0)
                atoms[f.name] = m
            vals.append(m)
        elif cls is Falsum:
            vals.append(0)
        elif (combine := _COMBINE.get(cls)) is not None:
            todo += (combine, f.right, f.left)
        elif f is _AND:
            m = vals.pop()
            vals[-1] &= m
        elif f is _OR:
            m = vals.pop()
            vals[-1] |= m
        elif f is _IMP:
            m = vals.pop()
            bad, below = vals[-1] & ~m, 0
            while bad:
                low = bad & -bad
                below |= down[low.bit_length() - 1]
                bad ^= low
            vals[-1] = everywhere & ~below
        else:
            raise TypeError(f"not a formula: {f!r}")
    return bool(vals[0] & bit[w])


def is_valid_model(model: KripkeModel) -> bool:
    """Rooted partial order with up-closed valuations.

    The order is read once into the up-set mask of each world, so each
    check is one mask operation per pair of the order or per world of a
    valuation.
    """
    n = model.size
    if n < 1:  # no world 0, so no root
        return False
    up = [0] * n  # by world: the worlds above
    for u, v in model.order:
        if not (0 <= u < n and 0 <= v < n):
            return False
        up[u] |= 1 << v
    for w in range(n):
        if not up[w] >> w & 1:
            return False
    for u, v in model.order:
        if u != v and up[v] >> u & 1:
            return False
        if up[v] & ~up[u]:
            return False
    if up[0] != (1 << n) - 1:
        return False
    worlds = range(n)
    for ws in model.valuation.values():
        m = 0
        for w in ws:
            if w not in worlds:
                return False
            m |= 1 << w
        for w in ws:
            if up[w] & ~m:
                return False
    return True


def tree_model(tree: tuple, atoms: list[str]) -> KripkeModel:
    """The model of a tree whose nodes are (atoms forced, trees above),
    numbered in preorder, each below its descendants; the valuation names
    `atoms`, in order.  A node that occurs twice becomes two worlds."""
    order: list[tuple[int, int]] = []
    valuation: dict[str, list[int]] = {p: [] for p in atoms}
    stack, n = [(tree, ())], 0
    while stack:
        (forced, above), below = stack.pop()
        below += (n,)
        order += zip(below, repeat(n))
        for p in forced:
            valuation[p].append(n)
        stack += zip(reversed(above), repeat(below))
        n += 1
    return KripkeModel(
        n, frozenset(order), {p: frozenset(ws) for p, ws in valuation.items()}
    )


def atoms_of(a: Formula) -> set[str]:
    out, todo = set(), [a]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is Atom:
            out.add(f.name)
        elif cls in _COMBINE:
            todo += (f.left, f.right)
        elif cls is not Falsum:
            raise TypeError(f"not a formula: {f!r}")
    return out
