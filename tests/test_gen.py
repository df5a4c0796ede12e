"""The generator's seeded output, its context index, its classical check,
and the shrinker."""

import dataclasses
import hashlib
import itertools
import random
from functools import reduce

import pytest

import vkp.gen
from vkp.gen import (
    _NO_MOVES, ATOM_NAMES, CTX_SHAPES, _classically_false, _Ctx, _ctx_entry,
    _formula, GenerationFailed, generate_typed,
)
from vkp.kripke import KripkeModel, atoms_of, forces
from vkp.oracle import Provable, ipc_provable
from vkp.syntax import FALSUM, Atom, Conj, Disj, Falsum, Formula, Impl, Term
from vkp.typecheck import check

from shrink import shrink_typed

# sha256 of repr(generate_typed(...)) + "\n" over the 180 triples below.  A
# change that moves it changes every seeded test and benchmark corpus.
GOLDEN = "143c3cd96172516e7eda59967dd1cce4d7be0999d518f2c31fdc266d02ba3a79"
# sha256 of repr(shrink_typed(...)) + "\n" over the 24 terms below
SHRUNK = "968145755033cdbfb6f9838e0e90047d897a42847dc6f32422bbdfefe57b8382"


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
    assert n == 139
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


def _sample(rng):
    """A goal and a context over the generator's atoms and one atom past them."""
    atoms = ATOM_NAMES[:rng.randint(1, 4)] + ("A",)
    goal = _formula(rng, rng.randint(0, 3), atoms)
    shape = rng.choice(CTX_SHAPES)
    ctx = {f"g{i}": _ctx_entry(rng, shape, atoms) for i in range(rng.randint(0, 3))}
    return ctx, goal


def _one_world_models(atoms):
    """A one-world model per valuation of atoms: forcing there is classical truth."""
    for k in range(len(atoms) + 1):
        for true in itertools.combinations(atoms, k):
            yield KripkeModel(1, frozenset({(0, 0)}), {p: frozenset({0}) for p in true})


def test_classical_check_matches_one_world_forcing():
    rng = random.Random(11)
    skipped = 0
    for _ in range(400):
        ctx, goal = _sample(rng)
        atoms = sorted(set().union(atoms_of(goal), *map(atoms_of, ctx.values())))
        refuted = any(all(forces(w, 0, a) for a in ctx.values()) and not forces(w, 0, goal)
                      for w in _one_world_models(atoms))
        assert _classically_false(ctx, goal) == refuted, (ctx, goal)
        skipped += refuted
    assert 100 < skipped < 300


def test_classical_check_never_skips_an_ipc_theorem():
    rng = random.Random(12)
    theorems = 0
    for _ in range(300):
        ctx, goal = _sample(rng)
        sequent = reduce(lambda b, a: Impl(a, b), reversed(list(ctx.values())), goal)
        if isinstance(ipc_provable(sequent), Provable):
            theorems += 1
            assert not _classically_false(ctx, goal), (ctx, goal)
    assert theorems > 50


def test_goal_atoms_outside_atom_names():
    goal = Disj(Impl(Atom("A"), Atom("A")), Atom("B"))
    for seed in range(5):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=1, seed=seed, goal=goal)
        assert a == goal
        check(ctx, t, goal, "KP")


def _counting_inhabit(monkeypatch):
    calls = [0]
    inhabit = vkp.gen._inhabit

    def counted(*args):
        calls[0] += 1
        return inhabit(*args)

    monkeypatch.setattr(vkp.gen, "_inhabit", counted)
    return calls


def test_classically_false_goal_is_never_searched(monkeypatch):
    calls = _counting_inhabit(monkeypatch)
    with pytest.raises(GenerationFailed):
        generate_typed("KP", max_depth=6, seed=0, goal=Atom("p"), closed=True)
    assert calls[0] == 0


def test_goal_past_the_table_is_searched(monkeypatch):
    wide = [Atom(f"x{i}") for i in range(9)]  # one atom past the table
    conj = reduce(Conj, wide)
    assert not _classically_false({}, conj)  # classically false, but not checked
    calls = _counting_inhabit(monkeypatch)
    with pytest.raises(GenerationFailed):
        generate_typed("IPC", max_depth=4, seed=0, goal=conj, closed=True)
    assert calls[0] > 0
    goal = Disj(Impl(wide[0], wide[0]), conj)
    ctx, t, a = generate_typed("IPC", max_depth=4, seed=0, goal=goal, closed=True)
    check(ctx, t, goal, "IPC")


def _atom_leaves(*roots):
    """Every Atom object in the formulas and terms below roots, once per
    occurrence, read from the dataclass fields."""
    out, todo = [], list(roots)
    while todo:
        u = todo.pop()
        if isinstance(u, Atom):
            out.append(u)
        elif isinstance(u, (Formula, Term)):
            todo += [getattr(u, f.name) for f in dataclasses.fields(u)]
        elif isinstance(u, (tuple, dict)):
            todo += u.values() if isinstance(u, dict) else u
    return out


def test_equal_atom_leaves_are_one_object():
    shared = 0
    for calc in ("IPC", "KP", "V"):
        for s in range(10):
            ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3, seed=s)
            leaves = _atom_leaves(ctx, t, a)
            assert len({id(x) for x in leaves}) == len({x.name for x in leaves})
            shared += len(leaves) - len({x.name for x in leaves})
    assert shared > 100, shared
    # a name outside ATOM_NAMES gets a fresh Atom
    assert _formula(random.Random(0), 0, ("z",)) is not _formula(random.Random(0), 0, ("z",))
