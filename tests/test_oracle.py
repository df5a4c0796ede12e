"""Normal-form classification, the provability decision, Kripke models,
and the generator."""

import functools
import random
import time

import pytest

import vkp.oracle

from vkp.gen import GenerationFailed, generate_typed
from vkp.kripke import KripkeModel, atoms_of, forces, is_valid_model, tree_model
from vkp.normalize import (
    InternalError, PreconditionViolation, eval_v, normalize_kp,
)
from vkp.oracle import NotProvable, Provable, classify, ipc_provable
from vkp.parser import parse_formula, parse_term
from vkp.syntax import (
    Abs, App, Atom, Conj, Disj, Exfalso, FALSUM, Impl, Inj, Pair, Var,
    alpha_eq, neg,
)
from vkp.typecheck import check, checks, infer

from kripke_reference import (
    find_countermodel, is_valid_model as reference_is_valid_model,
    tree_model as reference_tree_model,
)
from prove_reference import (
    atoms_of as reference_atoms_of, forces as reference_forces, old_ipc_provable,
)
from shrink import shrink_typed

A = Atom("A")
B = Atom("B")


def test_classify_abstraction():
    r = classify({}, Abs("x", A, Var("x")), "V")
    assert r.kind == "Abstraction"


def test_classify_variable_in_ctx():
    r = classify({"g": Impl(A, B)}, Var("g"), "V")
    assert r.kind == "VariableInCtx"


def test_classify_injection():
    r = classify({}, Inj(1, B, Abs("x", A, Var("x"))), "V")
    assert r.kind == "Injection"


def test_classify_pair():
    t = Pair(Abs("x", A, Var("x")), Abs("y", B, Var("y")))
    assert classify({}, t, "V").kind == "Pair"


def test_classify_arrow_neutral():
    # head variable applied under an implicative context
    ctx = {"g": Impl(Impl(A, A), B)}
    t = App(Var("g"), Abs("x", A, Var("x")))
    assert classify(ctx, t, "V").kind == "ArrowNeutral"


def test_classify_exfalso_neutral_v():
    ctx = {"g": Impl(Impl(B, B), FALSUM), "a": Impl(B, B)}
    t = Exfalso(B, App(Var("g"), Var("a")))
    assert classify(ctx, t, "V").kind == "ArrowNeutral"


def test_classify_neg_neutral_kp():
    ctx = {"g": neg(neg(B)), "x": neg(B), "a": neg(A)}
    t = Exfalso(B, App(Var("g"), Var("x")))
    assert classify(ctx, t, "KP").kind == "NegNeutral"


def test_classify_var_app_falsum_kp():
    ctx = {"g": neg(neg(B)), "y": neg(B)}
    t = App(Var("g"), Var("y"))
    assert classify(ctx, t, "KP").kind == "VarAppFalsum"


def test_classify_rejects_wrong_ctx_shape():
    with pytest.raises(PreconditionViolation):
        classify({"g": A}, Var("g"), "V")  # atom is not an implication
    with pytest.raises(PreconditionViolation):
        classify({"g": Impl(A, B)}, Var("g"), "KP")  # not a negation


def test_classify_rejects_non_normal():
    t = App(Abs("x", A, Var("x")), Abs("y", A, Var("y")))
    with pytest.raises(PreconditionViolation):
        classify({}, App(Abs("x", Impl(A, A), Var("x")), t), "V")
    redex = App(Abs("x", Impl(A, A), Var("x")), Abs("y", A, Var("y")))  # typed, not normal
    with pytest.raises(PreconditionViolation, match="^term is not normal$"):
        classify({}, redex, "V")


def test_classify_rejects_ill_typed():
    with pytest.raises(PreconditionViolation):
        classify({}, Var("nowhere"), "V")


def test_classify_rejects_ipc():
    with pytest.raises(PreconditionViolation):
        classify({}, Abs("x", A, Var("x")), "IPC")


def test_classify_total_on_generated_sample():
    kinds = set()
    for seed in range(120):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=3,
                                   seed=seed, ctx_shape="negated")
        nf = normalize_kp(t, ctx)
        kinds.add(classify(ctx, nf, "KP").kind)
    for seed in range(120):
        ctx, t, a = generate_typed("V", max_depth=5, atom_count=3,
                                   seed=seed, ctx_shape="implicative")
        nf = eval_v(t, ctx)
        kinds.add(classify(ctx, nf, "V").kind)
    assert "Abstraction" in kinds and "Injection" in kinds


TAUTOLOGIES = [
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

NON_THEOREMS = [
    "A \\/ ~A",
    "((A -> B) -> A) -> A",
    "~~A -> A",
    "(~B -> A1 \\/ A2) -> (~B -> A1) \\/ (~B -> A2)",
    "(A -> B) \\/ (B -> A)",
    "~(A /\\ B) -> ~A \\/ ~B",
]


def test_prover_accepts_tautologies_with_witnesses():
    for s in TAUTOLOGIES:
        a = parse_formula(s)
        r = ipc_provable(a)
        assert isinstance(r, Provable), s
        check({}, r.witness, a, "IPC")


# A recorded witness for each of TAUTOLOGIES.  The prover must keep giving
# these up to the names of bound variables, which depend only on how many
# fresh names the search draws.
TAUTOLOGY_WITNESSES = [
    "fun (h1 : A) => h1",
    "fun (h1 : A) => fun (h2 : B) => h1",
    "fun (h1 : A -> B -> C) => fun (h2 : A -> B) => fun (h3 : A) => h1 h3 (h2 h3)",
    "fun (h1 : A) => fun (h2 : ~A) => h2 h1",
    "fun (h1 : ~~~A) => fun (h2 : A) => h1 (fun (h4 : ~A) => h4 h2)",
    "fun (h1 : False) => exfalso[A] h1",
    "fun (h1 : A /\\ B) => (proj2 h1, proj1 h1)",
    "fun (h1 : A \\/ B) => case h1 of { h2 => inj2[B] h2 | h2 => inj1[A] h2 }",
    "fun (h1 : (A -> C) /\\ (B -> C)) => fun (h4 : A \\/ B) =>"
    " case h4 of { h5 => proj1 h1 h5 | h5 => proj2 h1 h5 }",
    "fun (h1 : A /\\ (B \\/ C)) => case proj2 h1 of"
    " { h4 => inj1[A /\\ C] (proj1 h1, h4) | h4 => inj2[A /\\ B] (proj1 h1, h4) }",
    "fun (h1 : A /\\ B \\/ A /\\ C) => case h1 of"
    " { h2 => (proj1 h2, inj1[C] proj2 h2) | h2 => (proj1 h2, inj2[B] proj2 h2) }",
    "fun (h1 : A \\/ B -> C) => (fun (h4 : A) => (fun (h8 : A) => h1 inj1[B] h8) h4,"
    " fun (h6 : B) => (fun (h9 : B) => h1 inj2[A] h9) h6)",
    "fun (h1 : ~(A \\/ B)) => (fun (h4 : A) => (fun (h8 : A) => h1 inj1[B] h8) h4,"
    " fun (h6 : B) => (fun (h9 : B) => h1 inj2[A] h9) h6)",
    "fun (h1 : ~A /\\ ~B) => fun (h4 : A \\/ B) =>"
    " case h4 of { h5 => proj1 h1 h5 | h5 => proj2 h1 h5 }",
    "fun (h1 : A -> B) => fun (h2 : ~B) => fun (h3 : A) => h2 (h1 h3)",
    "fun (h1 : ~(A \\/ ~A)) => (fun (h11 : ~A) => h1 inj2[A] h11)"
    " (fun (h5 : A) => (fun (h10 : A) => h1 inj1[~A] h10) h5)",
    "fun (h1 : (A -> B) -> A) => fun (h2 : ~A) =>"
    " h2 (h1 (fun (h4 : A) => exfalso[B] (h2 h4)))",
]


def test_prover_witnesses_are_pinned():
    assert len(TAUTOLOGY_WITNESSES) == len(TAUTOLOGIES)
    for s, w in zip(TAUTOLOGIES, TAUTOLOGY_WITNESSES):
        r = ipc_provable(parse_formula(s))
        assert isinstance(r, Provable), s
        assert alpha_eq(r.witness, parse_term(w)), s


def _iff(a, b):
    return Conj(Impl(a, b), Impl(b, a))


def _big_and(parts):
    out = parts[-1]
    for x in reversed(parts[:-1]):
        out = Conj(x, out)
    return out


def _de_bruijn(n):
    """de Bruijn's formula (ILTP SYJ201): 2n + 1 atoms in a cycle, where
    each equivalence of neighbours implies all the atoms; then all hold."""
    ps = [Atom(f"p{i}") for i in range(1, 2 * n + 2)]
    every = _big_and(ps)
    cycle = [Impl(_iff(p, q), every) for p, q in zip(ps, ps[1:] + ps[:1])]
    return Impl(_big_and(cycle), every)


def test_de_bruijn_formulas_proved():
    for n in (1, 2, 3, 4):
        a = _de_bruijn(n)
        r = ipc_provable(a)
        assert isinstance(r, Provable), n
        check({}, r.witness, a, "IPC")


def _chain(n):
    """p1 -> ... -> pn -> p1."""
    a = Atom("p1")
    for i in range(n, 0, -1):
        a = Impl(Atom(f"p{i}"), a)
    return a


def test_implication_chain_proved_at_the_default_limit(default_recursion_limit):
    # the search takes one frame per hypothesis it introduces, no more
    a = _chain(800)
    r = ipc_provable(a)
    assert isinstance(r, Provable)
    check({}, r.witness, a, "IPC")


def test_prover_rejects_with_countermodels():
    for s in NON_THEOREMS:
        a = parse_formula(s)
        r = ipc_provable(a)
        assert isinstance(r, NotProvable), s
        m = r.countermodel
        assert is_valid_model(m)
        assert not forces(m, 0, a)


def test_peirce_countermodel_is_two_worlds():
    r = ipc_provable(parse_formula("((A -> B) -> A) -> A"))
    assert isinstance(r, NotProvable)
    assert r.countermodel.size == 2


def test_harrop_shape_needs_four_worlds():
    a = parse_formula("(~B -> A1 \\/ A2) -> (~B -> A1) \\/ (~B -> A2)")
    assert find_countermodel(a, max_worlds=3) is None
    m = find_countermodel(a, max_worlds=4)
    assert m is not None and m.size == 4
    r = ipc_provable(a)
    assert isinstance(r, NotProvable)


def _big_or(parts):
    out = parts[-1]
    for x in reversed(parts[:-1]):
        out = Disj(x, out)
    return out


def _width(n):
    """The disjunction over i of p_i -> (disjunction over j != i of p_j)."""
    ps = [Atom(f"p{i}") for i in range(1, n + 1)]
    return _big_or([Impl(ps[i], _big_or(ps[:i] + ps[i + 1:])) for i in range(n)])


def _depth(n):
    """p_n \\/ (p_n -> depth n-1), with depth 1 = p_1 \\/ ~p_1."""
    f = Disj(Atom("p1"), neg(Atom("p1")))
    for i in range(2, n + 1):
        f = Disj(Atom(f"p{i}"), Impl(Atom(f"p{i}"), f))
    return f


def _refuted_in_time(a):
    t0 = time.perf_counter()
    r = ipc_provable(a)
    assert time.perf_counter() - t0 < 1.0
    assert isinstance(r, NotProvable)
    m = r.countermodel
    assert is_valid_model(m) and not forces(m, 0, a)
    assert set(m.valuation) == atoms_of(a)
    return m


def test_width_family_refuted():
    # width 6 and up need more than the 6 worlds find_countermodel allows
    for n in range(2, 9):
        assert _refuted_in_time(_width(n)).size > n


def test_depth_family_refuted():
    for n in range(1, 7):
        assert _refuted_in_time(_depth(n)).size > n


def _random_formula(rng, connectives, atoms="pqr"):
    if connectives == 0:
        return FALSUM if rng.random() < 0.1 else Atom(rng.choice(atoms))
    left = rng.randint(0, connectives - 1)
    op = rng.choice((Impl, Impl, Conj, Disj))
    return op(_random_formula(rng, left, atoms),
              _random_formula(rng, connectives - 1 - left, atoms))


def test_prover_agrees_with_bounded_search():
    rng = random.Random(2024)
    answers = set()
    for _ in range(300):
        a = _random_formula(rng, rng.randint(1, 6))
        r = ipc_provable(a)
        m = find_countermodel(a, 3)
        if isinstance(r, Provable):
            assert m is None, a
        else:
            assert not forces(r.countermodel, 0, a), a
        if m is not None:
            assert isinstance(r, NotProvable), a
        answers.add(type(r))
    assert answers == {Provable, NotProvable}


@functools.cache
def _differential_corpus():
    corpus = [parse_formula(s) for s in TAUTOLOGIES + NON_THEOREMS]
    corpus += [_width(n) for n in range(2, 9)] + [_depth(n) for n in range(1, 7)]
    corpus += [_de_bruijn(n) for n in (1, 2, 3)] + [_chain(50)]
    rng = random.Random(1995)
    corpus += [_random_formula(rng, rng.randint(1, 10), "pqrs") for _ in range(5000)]
    return corpus


def test_prover_answers_as_the_list_prover():
    # tests/prove_reference.py holds the search that copied its hypothesis
    # list per rule and glued a model per failed sequent; the indexed one
    # must give the same witnesses, name for name, and the same models
    answers = set()
    for a in _differential_corpus():
        old, new = old_ipc_provable(a), ipc_provable(a)
        if isinstance(new, Provable):
            assert repr(new.witness) == repr(old), a
        else:
            assert new.countermodel == old, a
        answers.add(type(new))
    assert answers == {Provable, NotProvable}


def test_forces_and_atoms_of_answer_as_the_recursive_ones():
    models = 0
    for a in _differential_corpus():
        assert atoms_of(a) == reference_atoms_of(a), a
        r = ipc_provable(a)
        if isinstance(r, NotProvable):
            m, models = r.countermodel, models + 1
            for w in range(m.size):
                assert forces(m, w, a) == reference_forces(m, w, a), (a, w)
    assert models > 1000


def test_forces_answers_as_the_recursive_one_on_any_model():
    # orders and valuations that reach outside the worlds, and worlds
    # outside the model, as is_valid_model rejects them
    rng = random.Random(8)
    worlds = range(-2, 6)
    for _ in range(3000):
        order = frozenset((rng.choice(worlds), rng.choice(worlds))
                          for _ in range(rng.randint(0, 10)))
        val = {p: frozenset(rng.sample(worlds, rng.randint(0, 4))) for p in "pq"}
        m = KripkeModel(rng.randint(0, 4), order, val)
        a, w = _random_formula(rng, rng.randint(0, 6), "pq"), rng.choice(worlds)
        assert forces(m, w, a) == reference_forces(m, w, a), (m, w, a)


def _altered(rng, m):
    """m with one pair of its order dropped or added, or one world moved
    into or out of one atom's valuation."""
    order, val = set(m.order), dict(m.valuation)
    worlds = range(-1, m.size + 1)
    kind = rng.randrange(3)
    if kind == 0 and order:
        order.remove(rng.choice(sorted(order)))
    elif kind == 1 or not val:
        order.add((rng.choice(worlds), rng.choice(worlds)))
    else:
        p = rng.choice(sorted(val))
        val[p] = val[p] ^ {rng.choice(worlds)}
    return KripkeModel(m.size, frozenset(order), val)


def test_model_check_and_numbering_answer_as_the_set_based_ones():
    # tests/kripke_reference.py holds the model check on a dict of up-sets
    # and the numbering with a generator per node; the mask versions must
    # give the same verdicts and the same models
    rng = random.Random(1995)
    worlds = range(-2, 6)
    for _ in range(3000):  # mostly invalid: pairs and worlds outside the model
        order = frozenset((rng.choice(worlds), rng.choice(worlds))
                          for _ in range(rng.randint(0, 10)))
        val = {p: frozenset(rng.sample(worlds, rng.randint(0, 4))) for p in "pq"}
        m = KripkeModel(rng.randint(0, 4), order, val)
        assert is_valid_model(m) == reference_is_valid_model(m), m
    verdicts, models = set(), 0
    for a in _differential_corpus():
        tree = vkp.oracle._prove(vkp.oracle._Sequent(), a)
        if not isinstance(tree, tuple):
            continue
        atoms = sorted(atoms_of(a))
        m, models = tree_model(tree, atoms), models + 1
        assert m == reference_tree_model(tree, atoms), a
        assert is_valid_model(m) and reference_is_valid_model(m), a
        for _ in range(3):  # faults that get past the range checks
            bad = _altered(rng, m)
            verdicts.add(is_valid_model(bad))
            assert is_valid_model(bad) == reference_is_valid_model(bad), (a, bad)
    assert models > 1000 and verdicts == {True, False}


def test_forces_and_atoms_of_run_without_recursion(default_recursion_limit):
    p = Atom("p")
    valid, refuted = p, FALSUM
    for _ in range(10_000):
        valid, refuted = Impl(p, valid), Disj(refuted, Conj(p, p))
    m = _model(2, set(), {"p": frozenset({1})})
    assert atoms_of(valid) == atoms_of(refuted) == {"p"}
    assert forces(m, 0, valid) and forces(m, 1, valid)
    assert not forces(m, 0, refuted) and forces(m, 1, refuted)


def test_prover_rejects_a_bad_countermodel(monkeypatch):
    monkeypatch.setattr(vkp.oracle, "is_valid_model", lambda m: False)
    with pytest.raises(InternalError):
        ipc_provable(parse_formula("A \\/ ~A"))


def _model(size, extra_pairs, valuation=None):
    order = {(w, w) for w in range(size)} | {(0, w) for w in range(size)}
    return KripkeModel(size, frozenset(order | set(extra_pairs)),
                       valuation or {})


def test_model_check_accepts_a_model():
    m = _model(3, {(1, 2)}, {"A": frozenset({1, 2}), "B": frozenset()})
    assert is_valid_model(m)


def test_model_check_rejects_order_outside_worlds():
    assert not is_valid_model(_model(2, {(1, 2)}))
    assert not is_valid_model(_model(2, {(-1, 0)}))


def test_model_check_rejects_valuation_outside_worlds():
    assert not is_valid_model(KripkeModel(1, frozenset({(0, 0)}), {"p": frozenset({5})}))
    assert not is_valid_model(_model(2, set(), {"p": frozenset({-1, 0, 1})}))


def test_model_check_rejects_irreflexive_order():
    m = KripkeModel(2, frozenset({(0, 0), (0, 1)}), {})
    assert not is_valid_model(m)


def test_model_check_rejects_cycle():
    assert not is_valid_model(_model(3, {(1, 2), (2, 1)}))


def test_model_check_rejects_intransitive_order():
    assert not is_valid_model(_model(4, {(1, 2), (2, 3)}))


def test_model_check_rejects_unrooted_order():
    m = KripkeModel(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)}), {})
    assert not is_valid_model(m)


def test_model_check_rejects_a_model_without_worlds():
    # no world 0, so no root: ~p would hold at it vacuously
    m = KripkeModel(0, frozenset(), {})
    assert forces(m, 0, parse_formula("~p"))
    assert not is_valid_model(m)


def test_model_check_rejects_valuation_not_up_closed():
    m = _model(3, {(1, 2)}, {"A": frozenset({1})})
    assert not is_valid_model(m)


def test_prover_witnesses_are_normalish():
    # spot check: witnesses are at least closed and re-checkable
    for s in TAUTOLOGIES[:6]:
        a = parse_formula(s)
        r = ipc_provable(a)
        assert checks({}, r.witness, a, "IPC")


def test_generator_is_deterministic():
    x = generate_typed("KP", max_depth=6, atom_count=3, seed=17)
    y = generate_typed("KP", max_depth=6, atom_count=3, seed=17)
    assert x == y
    z = generate_typed("KP", max_depth=6, atom_count=3, seed=18)
    assert x != z


def test_generator_self_checks():
    for calc in ("IPC", "V", "KP"):
        for seed in range(40):
            ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3, seed=seed)
            assert infer(ctx, t, calc) == a


def test_generator_ctx_shapes():
    for seed in range(30):
        ctx, _, _ = generate_typed("V", max_depth=4, seed=seed, ctx_shape="implicative")
        assert all(isinstance(a, Impl) for a in ctx.values())
        ctx, _, _ = generate_typed("KP", max_depth=4, seed=seed, ctx_shape="negated")
        assert all(isinstance(a, Impl) and a.right == FALSUM for a in ctx.values())


def test_generator_closed_and_goal():
    goal = parse_formula("(A -> A) \\/ B")
    ctx, t, a = generate_typed("KP", max_depth=5, seed=3, goal=goal, closed=True)
    assert ctx == {}
    assert a == goal
    check({}, t, goal, "KP")


def test_generator_unsatisfiable_goal_fails():
    with pytest.raises(GenerationFailed):
        generate_typed("IPC", max_depth=4, seed=0, goal=FALSUM, closed=True)


def test_shrink_preserves_type():
    ctx, t, a = generate_typed("KP", max_depth=7, atom_count=3, seed=5)
    shrunk = shrink_typed(ctx, t, a, "KP")
    for s in shrunk:
        assert checks(ctx, s, a, "KP")
    from vkp.syntax import term_size
    sizes = [term_size(s) for s in shrunk]
    assert sizes == sorted(sizes)
