"""The references vkp.kripke is held against: the set-based model check
and tree numbering, and a bounded brute-force countermodel search for the
prover.

is_valid_model and tree_model are vkp.kripke's versions from before it
worked on bit masks, kept verbatim: the model check on a dict of up-sets,
the numbering with a generator per node.

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
