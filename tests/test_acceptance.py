"""Acceptance gate: the eight headline properties at full scale.

Each test prints one PASS/FAIL line with the scale it ran at.  These are
slower than the unit files; the whole module is a few minutes of CPU.
"""

import random
import time

from vkp.gen import GenerationFailed, generate_typed
from vkp.kripke import forces, is_valid_model
from vkp.normalize import (
    eval_v, extract_disjunct, normalize_full, normalize_kp, step_weak_head_named,
)
from vkp.oracle import (
    ClassificationFailure, NotProvable, Provable, classify, ipc_provable,
)
from vkp.parser import (
    parse_formula, parse_script, parse_term, print_formula, print_term,
)
from vkp.reduction import (
    replay_step, step_anywhere, weak_head_redexes,
)
from vkp.syntax import (
    Atom, Conj, Disj, Falsum, Impl, Visser, alpha_eq, children, nameless, neg,
)
from vkp.typecheck import check, checks


def _report(n: int, label: str, ok: bool, details: str):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} - {details}")


def _contains_visser(t) -> bool:
    return isinstance(t, Visser) or any(_contains_visser(c) for c in children(t))


def test_criterion_1_subject_reduction():
    bad = 0
    reducts = 0
    for calc in ("KP", "V"):
        for seed in range(1000):
            ctx, t, a = generate_typed(calc, max_depth=7, atom_count=4, seed=seed)
            for _, r in step_anywhere(t, calc, ctx):
                reducts += 1
                if not checks(ctx, r, a, calc):
                    bad += 1
    _report(1, "subject reduction", bad == 0,
            f"2000 terms, {reducts} one-step reducts re-checked, {bad} failures")
    assert bad == 0


def _reachable(t, target, ctx, cap=50_000) -> bool:
    """Bounded breadth-first search through the V reduction graph."""
    goal = nameless(target)
    seen = {nameless(t)}
    frontier = [t]
    while frontier and len(seen) < cap:
        nxt = []
        for cur in frontier:
            if nameless(cur) == goal:
                return True
            for _, r in step_anywhere(cur, "V", ctx):
                k = nameless(r)
                if k not in seen:
                    seen.add(k)
                    nxt.append(r)
        frontier = nxt
    return any(nameless(c) == goal for c in frontier)


def test_criterion_2_v_normalization():
    bad = 0
    for seed in range(500):
        ctx, t, a = generate_typed("V", max_depth=6, atom_count=3, seed=seed)
        ev = eval_v(t, ctx)
        if not (checks(ctx, ev, a, "IPC")
                and not step_anywhere(ev, "IPC", ctx)
                and not _contains_visser(ev)):
            bad += 1
    unconfirmed = 0
    for seed in range(120):
        ctx, t, a = generate_typed("V", max_depth=4, atom_count=3,
                                   seed=10_000 + seed)
        if not _reachable(t, eval_v(t, ctx), ctx):
            unconfirmed += 1
    _report(2, "V evaluation", bad == 0 and unconfirmed == 0,
            f"500 terms IPC-typed normal Visser-free ({bad} failures); "
            f"reachability confirmed on 120 depth-4 terms ({unconfirmed} missed)")
    assert bad == 0 and unconfirmed == 0


def test_criterion_3_strong_normalization():
    budget = 10 ** 6
    overruns = 0
    longest = 0
    for seed in range(500):
        ctx, t, a = generate_typed("KP", max_depth=6, atom_count=3, seed=seed)
        for k in range(10):
            rng = random.Random(seed * 17 + k)
            cur, steps = t, 0
            while steps <= budget:
                opts = step_anywhere(cur, "KP", ctx)
                if not opts:
                    break
                if k == 0:
                    pick = 0  # leftmost-outermost
                elif k == 1:
                    pick = len(opts) - 1  # rightmost
                else:
                    pick = rng.randrange(len(opts))
                cur = opts[pick][1]
                steps += 1
            else:
                overruns += 1
            longest = max(longest, steps)
    _report(3, "KP strong normalization", overruns == 0,
            f"500 terms x 10 strategies, longest run {longest} steps, "
            f"{overruns} budget overruns")
    assert overruns == 0


def test_criterion_4_classification():
    failures = 0
    kinds = set()
    for seed in range(5000):
        ctx, t, a = generate_typed("V", max_depth=5, atom_count=3, seed=seed,
                                   ctx_shape="implicative")
        nf = eval_v(t, ctx)
        try:
            kinds.add(classify(ctx, nf, "V").kind)
        except ClassificationFailure:
            failures += 1
    for seed in range(5000):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=3, seed=seed,
                                   ctx_shape="negated")
        nf = normalize_kp(t, ctx)
        try:
            kinds.add(classify(ctx, nf, "KP").kind)
        except ClassificationFailure:
            failures += 1
    _report(4, "classification", failures == 0,
            f"10000 normal forms, {failures} failures, "
            f"kinds seen: {', '.join(sorted(kinds))}")
    assert failures == 0


def _random_disjunction(rng: random.Random) -> Disj:
    atoms = [Atom(n) for n in ("p", "q", "r")]

    def side(d):
        a, b = rng.choice(atoms), rng.choice(atoms)
        roll = rng.random()
        if d == 0 or roll < 0.25:
            return rng.choice([Impl(a, a), Impl(a, Impl(b, a)), neg(Falsum())])
        if roll < 0.5:
            return Impl(side(d - 1), side(d - 1))
        if roll < 0.7:
            return Conj(side(d - 1), side(d - 1))
        if roll < 0.85:
            return Impl(a, side(d - 1))
        return rng.choice([a, neg(a), Impl(Impl(a, b), b)])

    return Disj(side(2), side(2))


def test_criterion_5_disjunction_property():
    rng = random.Random(5)
    successes = 0
    attempts = 0
    bad = 0
    while successes < 200 and attempts < 2000:
        attempts += 1
        goal = _random_disjunction(rng)
        if not isinstance(ipc_provable(goal), Provable):
            continue  # closed proofs need an inhabitable goal
        try:
            _, t, _ = generate_typed("KP", max_depth=6, atom_count=3,
                                     seed=attempts, goal=goal, closed=True)
        except GenerationFailed:
            continue
        side, w = extract_disjunct(t, "KP")
        want = goal.left if side == "Left" else goal.right
        try:
            check({}, w, want, "KP")
        except Exception:
            bad += 1
        successes += 1
    ok = successes >= 200 and bad == 0
    _report(5, "disjunction property", ok,
            f"{successes} closed disjunction proofs extracted "
            f"({attempts} attempts), {bad} bad witnesses")
    assert ok


def test_criterion_6_head_step_determinism():
    disagreements = 0
    checked = 0
    for seed in range(1000):
        ctx, t, a = generate_typed("KP", max_depth=6, atom_count=3, seed=seed)
        cur = t
        for _ in range(5):  # also cover successors along the head sequence
            named = step_weak_head_named(cur, ctx)
            ex = weak_head_redexes(cur, ctx)
            checked += 1
            if len(ex) > 1:
                disagreements += 1
            elif named is None:
                if ex:
                    disagreements += 1
            else:
                whole, path, rule = named
                if len(ex) != 1 or ex[0] != (path, whole, rule):
                    disagreements += 1
            if named is None:
                break
            cur = named[0]
    _report(6, "head-step determinism", disagreements == 0,
            f"{checked} terms checked against exhaustive spine search, "
            f"{disagreements} disagreements")
    assert disagreements == 0


TAUTOLOGY_SCHEMAS = [
    "A -> A",
    "A -> B -> A",
    "(A -> B -> C) -> (A -> B) -> A -> C",
    "A -> ~~A",
    "~~~A -> ~A",
    "False -> A",
    "(A /\\ B) -> (B /\\ A)",
    "(A \\/ B) -> (B \\/ A)",
    "(A -> C) /\\ (B -> C) -> (A \\/ B) -> C",
    "A /\\ (B \\/ C) -> (A /\\ B) \\/ (A /\\ C)",
    "(A /\\ B) \\/ (A /\\ C) -> A /\\ (B \\/ C)",
    "((A \\/ B) -> C) -> (A -> C) /\\ (B -> C)",
    "~(A \\/ B) -> ~A /\\ ~B",
    "~A /\\ ~B -> ~(A \\/ B)",
    "(A -> B) -> ~B -> ~A",
    "~~(A \\/ ~A)",
    "((A -> B) -> A) -> ~~A",
]


def _subst_atoms(a, m):
    match a:
        case Atom(n):
            return m.get(n, a)
        case Impl(l, r):
            return Impl(_subst_atoms(l, m), _subst_atoms(r, m))
        case Conj(l, r):
            return Conj(_subst_atoms(l, m), _subst_atoms(r, m))
        case Disj(l, r):
            return Disj(_subst_atoms(l, m), _subst_atoms(r, m))
        case _:
            return a


def test_criterion_7_admissible_not_derivable():
    t0 = time.monotonic()
    with open("proofs/harrop.vkp", encoding="utf-8") as fh:
        script = parse_script(fh.read())
    d = next(x for x in script if x.name == "harrop_principle")
    check({}, d.body, d.formula, "KP")

    r = ipc_provable(d.formula)
    assert isinstance(r, NotProvable)
    m = r.countermodel
    assert is_valid_model(m)
    assert not forces(m, 0, d.formula)

    p, q, s = Atom("p"), Atom("q"), Atom("s")
    maps = [{}, {"A": Conj(p, q), "B": Disj(p, s), "C": neg(s)},
            {"A": Impl(p, q), "B": neg(neg(q)), "C": Conj(s, Impl(s, p))}]
    accepted = 0
    for schema in TAUTOLOGY_SCHEMAS:
        base = parse_formula(schema)
        for mp in maps:
            a = _subst_atoms(base, mp)
            res = ipc_provable(a)
            assert isinstance(res, Provable), print_formula(a)
            check({}, res.witness, a, "IPC")
            accepted += 1
    elapsed = time.monotonic() - t0
    ok = accepted >= 50 and elapsed < 30
    _report(7, "admissible-but-not-derivable gap", ok,
            f"KP accepts the principle, IPC refutes it on a verified "
            f"{m.size}-world model; {accepted} tautologies witnessed "
            f"in {elapsed:.1f}s")
    assert ok


def test_criterion_8_round_trips_and_traces():
    bad = 0
    for seed in range(1000):
        calc = ("IPC", "V", "KP")[seed % 3]
        ctx, t, a = generate_typed(calc, max_depth=6, atom_count=3, seed=seed)
        if parse_formula(print_formula(a)) != a:
            bad += 1
        if not alpha_eq(parse_term(print_term(t)), t):
            bad += 1
    replayed = 0
    for calc, n in (("KP", 150), ("V", 100), ("IPC", 100)):
        for seed in range(n):
            ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3, seed=seed)
            trace = []
            normalize_full(t, calc, ctx, trace=trace)
            for s in trace:
                if not replay_step(s, calc, ctx):
                    bad += 1
                replayed += 1
    _report(8, "round-trips and trace replay", bad == 0,
            f"1000 term and formula round-trips, {replayed} trace steps "
            f"replayed, {bad} failures")
    assert bad == 0
