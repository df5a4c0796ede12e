"""Finite rooted Kripke models: forcing, the model check, trees to models.

Models live on worlds 0..n-1 with world 0 the root and the order stored as
a set of pairs.  tree_model numbers the tree of worlds the prover
(vkp.oracle) reads off a failed search.  Formulas are walked without
recursion.  A bounded brute-force search, which the tests hold the prover
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
    """Whether world w forces a.  Each node of a, subformulas first, gets
    the bit mask of the worlds forcing it: bit v for world v, and bit n for
    w when it is none of the n worlds."""
    n = model.size
    pos = {v: v for v in range(n)}
    pos.setdefault(w, n)
    up = [0] * (n + 1)  # by bit: the worlds above
    for u, v in model.order:
        if 0 <= v < n and u in pos:
            up[pos[u]] |= 1 << v
    mask: dict[int, int] = {}  # id of a node -> its worlds
    for f in _subformulas_first(a):
        if isinstance(f, Atom):
            ws = model.valuation.get(f.name, ())
            mask[id(f)] = sum(1 << pos[v] for v in ws if v in pos)
        elif isinstance(f, Falsum):
            mask[id(f)] = 0
        elif isinstance(f, Conj):
            mask[id(f)] = mask[id(f.left)] & mask[id(f.right)]
        elif isinstance(f, Disj):
            mask[id(f)] = mask[id(f.left)] | mask[id(f.right)]
        else:  # no world above forces the left side but not the right
            bad = mask[id(f.left)] & ~mask[id(f.right)]
            mask[id(f)] = sum(1 << i for i, m in enumerate(up) if not m & bad)
    return bool(mask[id(a)] >> pos[w] & 1)


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


def tree_model(tree: tuple, atoms: list[str]) -> KripkeModel:
    """The model of a tree whose nodes are (atoms forced, trees above),
    numbered in preorder, each below its descendants; the valuation names
    `atoms`, in order.  A node that occurs twice becomes two worlds."""
    order: set[tuple[int, int]] = set()
    valuation: dict[str, list[int]] = {p: [] for p in atoms}
    stack, n = [(tree, ())], 0
    while stack:
        (forced, above), below = stack.pop()
        below += (n,)
        order.update((u, n) for u in below)
        for p in forced:
            valuation[p].append(n)
        stack.extend((t, below) for t in reversed(above))
        n += 1
    return KripkeModel(
        n, frozenset(order), {p: frozenset(ws) for p, ws in valuation.items()}
    )


def _subformulas_first(a: Formula) -> list[Formula]:
    """The nodes of a, each after its subformulas; a shared node recurs."""
    out, stack = [], [a]
    while stack:
        f = stack.pop()
        out.append(f)
        if isinstance(f, (Impl, Conj, Disj)):
            stack += (f.left, f.right)
        elif not isinstance(f, (Atom, Falsum)):
            raise TypeError(f"not a formula: {f!r}")
    return out[::-1]


def atoms_of(a: Formula) -> set[str]:
    return {f.name for f in _subformulas_first(a) if isinstance(f, Atom)}
