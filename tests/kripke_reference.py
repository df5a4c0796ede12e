"""A bounded brute-force countermodel search, the reference the prover's
tests are held against.

find_countermodel enumerates rooted partial orders by size, so a numbered
world only ever sits above lower-numbered ones; every rooted poset shows up
that way after relabeling along a linear extension.  Valuations range over
up-closed sets per atom, which keeps forcing monotone by construction.  It
gives up past max_worlds, so it serves only to cross-check small cases.
"""

from itertools import combinations, product

from vkp.kripke import KripkeModel, atoms_of, forces
from vkp.syntax import Formula


def _rooted_orders(n: int):
    """All rooted partial orders on 0..n-1, distinct as relations.

    Built by giving each new world a nonempty set of strict predecessors
    among the earlier ones and closing transitively.
    """
    if n == 1:
        yield frozenset({(0, 0)})
        return
    seen = set()
    pred_choices = []
    for k in range(1, n):
        opts = []
        for r in range(1, k + 1):
            opts.extend(combinations(range(k), r))
        pred_choices.append(opts)
    for combo in product(*pred_choices):
        le = {(w, w) for w in range(n)}
        for k, preds in enumerate(combo, start=1):
            for p in preds:
                le.add((p, k))
        # transitive closure; edges only point upward in numbering
        for k in range(1, n):
            below = {u for (u, v) in le if v == k}
            for u in list(below):
                below |= {u2 for (u2, v2) in le if v2 == u}
            le |= {(u, k) for u in below}
        fs = frozenset(le)
        if fs not in seen:
            seen.add(fs)
            yield fs


def _upsets(n: int, order: frozenset[tuple[int, int]]):
    out = []
    for bits in range(1 << n):
        s = frozenset(w for w in range(n) if bits >> w & 1)
        if all(v in s for w in s for v in range(n) if (w, v) in order):
            out.append(s)
    return out


def find_countermodel(a: Formula, max_worlds: int = 6) -> KripkeModel | None:
    """Smallest-first search for a rooted model whose root refuses a."""
    names = sorted(atoms_of(a))
    for n in range(1, max_worlds + 1):
        for order in _rooted_orders(n):
            model_upsets = _upsets(n, order)
            for val in product(model_upsets, repeat=len(names)):
                model = KripkeModel(n, order, dict(zip(names, val)))
                if not forces(model, 0, a):
                    return model
    return None
