"""prove: the decision procedure, `ipc_provable`, one formula per item.

Four kinds of formulas:
- the 17 tautology schemas of acceptance criterion 7 under its 3
  substitution maps, known provable;
- named non-theorems, known unprovable: the classical principles (excluded
  middle, double negation, Peirce, Dummett, weak excluded middle, the De
  Morgan dual), the hop principle of proofs/harrop.vkp and its Kreisel-
  Putnam and Medvedev variants, Scott's principle, independence of premise;
- two families, known unprovable: width n, the disjunction over i of
  p_i -> (disjunction over j != i of p_j), n = 2..6, whose countermodel
  needs n + 1 worlds; and depth n, p_n \\/ (p_n -> depth n-1) with depth 1
  = p_1 \\/ ~p_1, n = 1..4, whose countermodel is a chain of n + 1 worlds;
- random formulas over 4 atoms, depth at most 5, with exactly
  RANDOM_CONNECTIVES connectives, kept when the benchmark's own truth table
  says they are classical tautologies; their answer is checked by its
  certificate.  Most are drawn from a fixed stream and the rest from the
  workload seed.  Their size is fixed so that the seed changes which
  formulas are drawn but not how hard they are on the whole.

Most random tautologies are provable in a fraction of a millisecond, so
the median follows proof search.  The slowest items are the refuted named
formulas and the families, so the tail and the failures follow the
countermodel search.  About one random formula in 6000 takes 100-300 ms;
the named formulas around the tail's rank (the eighth slowest that
completes) take 80-200 ms each, so a seed that draws one moves the tail by
one rank and little time.
"""

from __future__ import annotations

import random

from harness import Item
from terms import (
    AND, FALSE, IMP, OR, atom, big, classical_tautology, imp, model_parts,
    neg, refutes, to_vkp,
)

DEADLINE_S = 1.5
# Random formulas: FIXED_RANDOM drawn from a fixed stream, the rest from the
# workload seed.  The fixed part keeps the median from moving with the seed:
# with all 400 seeded, the median moved by 12% from seed to seed.
RANDOM_FORMULAS = 400
FIXED_RANDOM = 300
RANDOM_CONNECTIVES = 7
WIDTHS = (2, 3, 4, 5, 6)
DEPTHS = (1, 2, 3, 4)


def _and(a, b):
    return (AND, a, b)


def _or(a, b):
    return (OR, a, b)


SCHEMAS = [  # the 17 schemas, as functions of A, B, C
    lambda A, B, C: imp(A, A),
    lambda A, B, C: imp(A, imp(B, A)),
    lambda A, B, C: imp(imp(A, imp(B, C)), imp(imp(A, B), imp(A, C))),
    lambda A, B, C: imp(A, neg(neg(A))),
    lambda A, B, C: imp(neg(neg(neg(A))), neg(A)),
    lambda A, B, C: imp(FALSE, A),
    lambda A, B, C: imp(_and(A, B), _and(B, A)),
    lambda A, B, C: imp(_or(A, B), _or(B, A)),
    lambda A, B, C: imp(_and(imp(A, C), imp(B, C)), imp(_or(A, B), C)),
    lambda A, B, C: imp(_and(A, _or(B, C)), _or(_and(A, B), _and(A, C))),
    lambda A, B, C: imp(_or(_and(A, B), _and(A, C)), _and(A, _or(B, C))),
    lambda A, B, C: imp(imp(_or(A, B), C), _and(imp(A, C), imp(B, C))),
    lambda A, B, C: imp(neg(_or(A, B)), _and(neg(A), neg(B))),
    lambda A, B, C: imp(_and(neg(A), neg(B)), neg(_or(A, B))),
    lambda A, B, C: imp(imp(A, B), imp(neg(B), neg(A))),
    lambda A, B, C: neg(neg(_or(A, neg(A)))),
    lambda A, B, C: imp(imp(imp(A, B), A), neg(neg(A))),
]

p, q, s = atom("p"), atom("q"), atom("s")
MAPS = [
    (atom("A"), atom("B"), atom("C")),
    (_and(p, q), _or(p, s), neg(s)),
    (imp(p, q), neg(neg(q)), _and(s, imp(s, p))),
]

B, A1, A2, A3, A4 = (atom(n) for n in ("B", "A1", "A2", "A3", "A4"))
r, t = atom("r"), atom("t")


def _hop(premise, parts):
    """(premise -> \\/ parts) -> \\/ (premise -> part): the hop principle
    when premise is a negation."""
    return imp(imp(premise, big(OR, parts)), big(OR, [imp(premise, x) for x in parts]))


NON_THEOREMS = {
    "excluded middle": _or(p, neg(p)),
    "double negation": imp(neg(neg(p)), p),
    "Peirce": imp(imp(imp(p, q), p), p),
    "Dummett": _or(imp(p, q), imp(q, p)),
    "weak excluded middle": _or(neg(p), neg(neg(p))),
    "De Morgan dual": imp(neg(_and(p, q)), _or(neg(p), neg(q))),
    "hop principle": _hop(neg(B), [A1, A2]),
    "hop principle, 3 disjuncts": _hop(neg(B), [A1, A2, A3]),
    "hop principle, 4 disjuncts": _hop(neg(B), [A1, A2, A3, A4]),
    "hop principle, negated conjunction": _hop(neg(_and(p, q)), [r, s]),
    "hop principle, negated disjunction": _hop(neg(_or(p, q)), [r, s]),
    "Medvedev": _hop(neg(p), [neg(q), neg(r)]),
    "Medvedev, 3 disjuncts": _hop(neg(p), [neg(q), neg(r), neg(s)]),
    "Medvedev, negated conjunction": _hop(neg(_and(p, q)), [neg(r), neg(s)]),
    "Scott": imp(imp(imp(neg(neg(p)), p), _or(p, neg(p))), _or(neg(p), neg(neg(p)))),
    "independence of premise": _hop(p, [q, r, s]),
    "independence of premise, 4 disjuncts": _hop(p, [q, r, s, t]),
}


def width(n: int) -> tuple:
    ps = [atom(f"p{i}") for i in range(1, n + 1)]
    return big(OR, [imp(ps[i], big(OR, ps[:i] + ps[i + 1:])) for i in range(n)])


def depth(n: int) -> tuple:
    f = _or(atom("p1"), neg(atom("p1")))
    for i in range(2, n + 1):
        f = _or(atom(f"p{i}"), imp(atom(f"p{i}"), f))
    return f


def _random_formula(rng, connectives: int, max_depth: int) -> tuple:
    """Exactly `connectives` connectives, nested at most max_depth deep."""
    if connectives == 0:
        return FALSE if rng.random() < 0.08 else atom(rng.choice("pqrs"))
    room = 2 ** (max_depth - 1) - 1  # connectives one subtree can hold
    left = rng.randint(max(0, connectives - 1 - room), min(connectives - 1, room))
    roll = rng.random()
    op = IMP if roll < 0.5 else AND if roll < 0.75 else OR
    return (op, _random_formula(rng, left, max_depth - 1),
            _random_formula(rng, connectives - 1 - left, max_depth - 1))


def build(K, seed: int, dig) -> list[Item]:
    items = []
    for i, schema in enumerate(SCHEMAS, 1):
        for j, m in enumerate(MAPS):
            items.append(_item(K, f"schema {i} map {j}", schema(*m), True))
    for name, f in NON_THEOREMS.items():
        items.append(_item(K, name, f, False))
    for n in WIDTHS:
        items.append(_item(K, f"width {n}", width(n), False, ("oracle.growth.width", n)))
    for n in DEPTHS:
        items.append(_item(K, f"depth {n}", depth(n), False))
    fixed, seeded = random.Random("prove/fixed"), random.Random(f"prove/{seed}")
    kept = 0
    while kept < RANDOM_FORMULAS:
        f = _random_formula(fixed if kept < FIXED_RANDOM else seeded, RANDOM_CONNECTIVES, 5)
        if classical_tautology(f):
            items.append(_item(K, f"random {kept}", f, None))
            kept += 1
    return items


def _item(K, name: str, f: tuple, provable: bool | None, ladder=None) -> Item:
    formula = to_vkp(f, K)

    def run():
        return K.ipc_provable(formula)

    def verify(answer) -> str | None:
        if type(answer).__name__ == "Provable":
            if provable is False:
                return "proved a known non-theorem"
            return None if K.checks({}, answer.witness, formula, "IPC") else "witness does not check"
        if provable is True:
            return "refuted a known theorem"
        return refutes(*model_parts(answer.countermodel), f)

    return Item(name, run, verify, DEADLINE_S, ladder)
