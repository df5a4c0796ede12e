"""The generator's seeded output, its context index, and the shrinker."""

import hashlib
import random

from vkp.gen import (
    _NO_MOVES, ATOM_NAMES, CTX_SHAPES, _Ctx, _ctx_entry, _formula,
    generate_typed, shrink_typed,
)
from vkp.syntax import FALSUM, Conj, Disj, Falsum, Impl

# sha256 of repr(generate_typed(...)) + "\n" over the 180 triples below.  A
# change that moves it changes every seeded test and benchmark corpus.
GOLDEN = "2cbff1f05c3dfea9faa5200a2adf087ace4edad811a43eae4e1173815da54330"
# sha256 of repr(shrink_typed(...)) + "\n" over the 24 terms below
SHRUNK = "2f491d047652adc08739efcc97cc144e6b47c2378a91725c0b9fa29f0e16fc97"


def test_generate_typed_golden_digest():
    h = hashlib.sha256()
    for calc in ("IPC", "KP", "V"):
        for shape in CTX_SHAPES:
            for s in range(20):
                triple = generate_typed(calc, max_depth=5, atom_count=3, seed=s,
                                        ctx_shape=shape)
                h.update((repr(triple) + "\n").encode())
    assert h.hexdigest() == GOLDEN


def test_shrink_typed_golden_digest():
    h = hashlib.sha256()
    n = 0
    for calc in ("IPC", "KP", "V"):
        for s in range(8):
            ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3, seed=s)
            out = shrink_typed(ctx, t, a, calc)
            n += len(out)
            h.update((repr(out) + "\n").encode())
    assert n == 91
    assert h.hexdigest() == SHRUNK


def _scanned(ctx, goal):
    """What _inhabit looks up, by scanning sorted(ctx.items()) per goal."""
    items = sorted(ctx.items())
    direct = [n for n, a in items if a == goal]
    heads = [(n, a) for n, a in items if isinstance(a, Impl) and a.right == goal]
    heads2 = [(n, a) for n, a in items
              if isinstance(a, Impl) and isinstance(a.right, Impl)
              and a.right.right == goal]
    disjs = [(n, a) for n, a in items if isinstance(a, Disj)]
    conjs = [(n, a) for n, a in items if isinstance(a, Conj)]
    sides = [(n, a, i) for n, a in conjs
             for i in (1, 2) if (a.left, a.right)[i - 1] == goal]
    bots = [n for n, a in items if isinstance(a, Falsum)]
    negs = [(n, a) for n, a in items if isinstance(a, Impl) and a.right == FALSUM]
    return direct, heads, heads2, sides, disjs, bots, negs


def _indexed(cx, goal):
    direct, heads, heads2, sides = cx.goals.get(goal, _NO_MOVES)
    return [list(x) for x in (direct, heads, heads2, sides, cx.disjs, cx.bots, cx.negs)]


def _subformulas(a):
    todo = [a]
    while todo:
        a = todo.pop()
        yield a
        if isinstance(a, (Impl, Conj, Disj)):
            todo += [a.left, a.right]


def test_ctx_index_matches_scan():
    rng = random.Random(8)
    atoms = ATOM_NAMES[:3]
    for _ in range(300):
        # v2 before v10 numerically, after it as strings; g names sort first
        names = [f"g{i}" for i in range(1, rng.randint(1, 4))]
        names += [f"v{i}" for i in rng.sample(range(1, 13), rng.randint(0, 8))]
        rng.shuffle(names)
        ctx, cx = {}, _Ctx()
        for n in names:
            roll = rng.random()
            if roll < 0.1:
                a = FALSUM
            elif roll < 0.2:
                a = Conj(*[_formula(rng, 1, atoms)] * 2)
            else:
                a = _ctx_entry(rng, rng.choice(CTX_SHAPES), atoms)
            ctx[n] = a
            cx = cx.add(n, a)
            goals = {g for b in ctx.values() for g in _subformulas(b)}
            goals.add(_formula(rng, 2, atoms))
            for goal in goals:
                assert _indexed(cx, goal) == list(_scanned(ctx, goal))


def test_ctx_add_leaves_parent_unchanged():
    a = Impl(FALSUM, FALSUM)
    parent = _Ctx().add("v2", a)
    before = _indexed(parent, FALSUM)
    child = parent.add("v10", a)
    assert _indexed(parent, FALSUM) == before
    assert [n for n, _ in child.negs] == ["v10", "v2"]
