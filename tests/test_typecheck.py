"""Typing rules, calculus gating, and the Visser closedness side condition."""

import random

import pytest

from typecheck_reference import infer as reference_infer
from vkp.cli import main
from vkp.gen import CTX_SHAPES, GenerationFailed, generate_typed
from vkp.parser import parse_formula, parse_term, print_formula, print_term
from vkp.reduction import step_anywhere
from vkp.syntax import (
    Abs, App, Atom, CALCULI, Case, Conj, Disj, Exfalso, FALSUM, Harrop, Impl,
    Inj, Pair, Proj, Var, Visser, children, free_vars, neg, replace_at,
    subterm_at, substitute,
)
from vkp.typecheck import (
    BranchTypeMismatch, CalculusViolation, NotAConjunction, NotADisjunction,
    NotAnImplication, TypeCheckError, TypeMismatch, UnknownVariable,
    VisserOpenAssumption, check, checks, infer,
)

A = Atom("A")
B = Atom("B")
C = Atom("C")
D = Atom("D")


def test_identity():
    t = parse_term("fun (x : A) => x")
    assert infer({}, t, "IPC") == Impl(A, A)


def test_standard_rules():
    assert infer({"x": A}, Var("x")) == A
    assert infer({"x": A, "f": Impl(A, B)}, App(Var("f"), Var("x"))) == B
    assert infer({"x": A, "y": B}, Pair(Var("x"), Var("y"))) == Conj(A, B)
    assert infer({"p": Conj(A, B)}, Proj(1, Var("p"))) == A
    assert infer({"p": Conj(A, B)}, Proj(2, Var("p"))) == B
    assert infer({"x": A}, Inj(1, B, Var("x"))) == Disj(A, B)
    assert infer({"x": A}, Inj(2, B, Var("x"))) == Disj(B, A)
    assert infer({"b": FALSUM}, Exfalso(C, Var("b"))) == C
    t = Case(Var("d"), "y", Inj(2, B, Var("y")), Inj(1, A, Var("y")))
    assert infer({"d": Disj(A, B)}, t) == Disj(B, A)


def test_error_shapes():
    with pytest.raises(UnknownVariable):
        infer({}, Var("nope"))
    with pytest.raises(NotAnImplication):
        infer({"x": A, "y": B}, App(Var("x"), Var("y")))
    with pytest.raises(NotAConjunction):
        infer({"x": A}, Proj(1, Var("x")))
    with pytest.raises(NotADisjunction):
        infer({"x": A}, Case(Var("x"), "y", Var("y"), Var("y")))
    with pytest.raises(BranchTypeMismatch):
        infer({"d": Disj(A, B)}, Case(Var("d"), "y", Var("y"), Var("y")))
    with pytest.raises(TypeMismatch):
        check({}, parse_term("fun (x : A) => x"), Impl(A, B))
    # exfalso argument must be falsity
    with pytest.raises(TypeMismatch):
        infer({"x": A}, Exfalso(B, Var("x")))


def test_harrop_principle_types_in_kp():
    t = parse_term(
        "fun (w : ~B -> A1 \\/ A2) => hop (x : ~B). w x of"
        " { y => inj1[~B -> A2] y | y => inj2[~B -> A1] y }"
    )
    want = parse_formula("(~B -> A1 \\/ A2) -> (~B -> A1) \\/ (~B -> A2)")
    assert infer({}, t, "KP") == want


def _hop_example():
    # branches ignore y, so they agree at A -> A
    return Harrop("x", neg(B), Inj(1, A, Var("x")), "y",
                  Abs("q", A, Var("q")), Abs("q", A, Var("q")))


def test_calculus_gating():
    hop = _hop_example()
    assert infer({}, hop, "KP") == Impl(A, A)
    for cal in ("IPC", "V"):
        with pytest.raises(CalculusViolation):
            infer({}, hop, cal)

    # inj payload is the binder itself, so both y-branch types are (B->C)->(B->C)
    vis = Visser((("x1", Impl(B, C)),), Inj(1, Impl(B, C), Var("x1")),
                 "y", Var("y"), Var("y"),
                 "z", (Abs("w", Impl(B, C), Var("w")),))
    infer({}, vis, "V")
    for cal in ("IPC", "KP"):
        with pytest.raises(CalculusViolation):
            infer({}, vis, cal)
    with pytest.raises(ValueError, match="unknown calculus 'LJ'"):
        infer({}, vis, "LJ")


def test_gating_sees_nested_nodes():
    t = Abs("u", A, Pair(Var("u"), _hop_example()))
    infer({}, t, "KP")
    with pytest.raises(CalculusViolation):
        infer({}, t, "IPC")


def test_visser_typing_single_binder():
    # main inj1[A] x1 : (B->C) \/ A under exactly {x1 : B->C}
    # P[X] = (B->C) -> X
    t = Visser(
        (("x1", Impl(B, C)),),
        Inj(1, A, Var("x1")),
        "y", Var("y"), Var("y"),
        "z", (Var("z"),),
    )
    # y : (B->C)->(B->C) in branch 1, (B->C)->A in branch 2: mismatch
    with pytest.raises(BranchTypeMismatch):
        infer({}, t, "V")
    good = Visser(
        (("x1", Impl(B, C)),),
        Inj(1, A, Var("x1")),
        "y", Abs("q", A, Var("q")), Abs("q", A, Var("q")),
        "z", (Abs("q", A, Var("q")),),
    )
    assert infer({}, good, "V") == Impl(A, A)


def test_visser_typing_two_binders_curried():
    # P[X] = (A->B) -> (B->C) -> X; u-branches get z : P[A], z : P[B]
    bs = (("x1", Impl(A, B)), ("x2", Impl(B, C)))
    t = Visser(
        bs,
        Inj(2, D, Var("x2")),  # D \/ (B->C)
        "y", Abs("q", A, Var("q")), Abs("q", A, Var("q")),
        "z", (Abs("q", A, Var("q")), Abs("q", A, Var("q"))),
    )
    assert infer({}, t, "V") == Impl(A, A)
    # and the curried shapes really are what the branches see
    inner = Visser(
        bs,
        Inj(2, D, Var("x2")),
        "y", Var("y"), Var("y"),
        "z", (Var("z"), Var("z")),
    )
    with pytest.raises(BranchTypeMismatch):
        infer({}, inner, "V")


def test_visser_open_assumption():
    t = Visser(
        (("x1", Impl(B, C)),),
        App(Var("x1"), Var("w")),
        "y", Var("y"), Var("y"),
        "z", (Var("z"),),
    )
    with pytest.raises(VisserOpenAssumption) as e:
        infer({"w": B}, t, "V")
    assert "w" in str(e.value)


def test_weakening_does_not_relax_visser_closedness():
    t = Visser(
        (("x1", Impl(B, C)),),
        App(Var("x1"), Var("w")),
        "y", Var("y"), Var("y"),
        "z", (Var("z"),),
    )
    # however much context we add, the main premise may only use x1
    for extra in ({}, {"w": B}, {"w": B, "v": C}):
        with pytest.raises(VisserOpenAssumption):
            infer(extra, t, "V")


def test_weakening_preserves_typing():
    rng = random.Random(21)
    for seed in range(60):
        cal = rng.choice(("IPC", "KP", "V"))
        ctx, t, a = generate_typed(cal, max_depth=5, atom_count=3, seed=seed)
        fresh = "zz_fresh"
        assert fresh not in ctx
        assert checks({**ctx, fresh: Impl(A, A)}, t, a, cal)


def test_substitution_lemma():
    # from Gamma, x:A |- t : B and Gamma |- s : A conclude t[x:=s] : B
    rng = random.Random(22)
    done = 0
    seed = 0
    while done < 60:
        cal = rng.choice(("IPC", "KP", "V"))
        ctx, t, a = generate_typed(cal, max_depth=5, atom_count=3, seed=seed)
        seed += 1
        if not ctx:
            continue
        x = sorted(ctx)[rng.randrange(len(ctx))]
        ax = ctx[x]
        rest = {n: f for n, f in ctx.items() if n != x}
        try:
            _, s, _ = generate_typed(cal, max_depth=4, atom_count=3,
                                     seed=10_000 + seed, goal=ax, closed=True)
        except Exception:
            continue
        assert checks(rest, substitute(t, x, s), a, cal)
        done += 1


def test_infer_deterministic():
    for seed in range(30):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=3, seed=seed)
        assert infer(ctx, t, "KP") == a == infer(ctx, t, "KP")


def test_inj_in_kp():
    t = parse_term("inj1[B] (fun (x : A) => x)")
    check({}, t, parse_formula("(A -> A) \\/ B"), "KP")


def test_abs_annotation_drives_type():
    t1 = Abs("x", A, Var("x"))
    t2 = Abs("x", B, Var("x"))
    assert infer({}, t1) != infer({}, t2)


# ------------------------------------------- the walk against the old checker


def _outcome(infer_fn, ctx, t, calculus):
    """The type, or the exception class and message."""
    try:
        return infer_fn(ctx, t, calculus)
    except TypeCheckError as e:
        return type(e), str(e)


def _positions(t):
    """Every path into t, preorder."""
    stack = [((), t)]
    while stack:
        path, s = stack.pop()
        yield path
        cs = children(s)
        stack += [(path + (i,), c) for i, c in reversed(list(enumerate(cs)))]


def _differential_cases():
    """Generated terms, their one-step reducts, and seeded mutations of
    both: a subterm swapped for a subterm of the same or the previous term
    (so one node object can sit under different binders), the term applied
    to such a subterm, a context entry dropped, and the wrong calculus."""
    rng = random.Random(1313)
    previous = Var("g1")
    for calc in CALCULI:
        for shape in CTX_SHAPES:
            for seed in range(120):
                try:
                    ctx, t, _ = generate_typed(calc, max_depth=5, atom_count=3,
                                               seed=seed, ctx_shape=shape)
                except GenerationFailed:
                    continue
                for u in [t] + [r for _, r in step_anywhere(t, calc, ctx)]:
                    yield ctx, u, calc
                    paths = list(_positions(u))
                    donor = rng.choice((u, previous))
                    graft = subterm_at(donor, rng.choice(list(_positions(donor))))
                    yield ctx, replace_at(u, rng.choice(paths), graft), calc
                    yield ctx, App(u, graft), calc
                    if ctx:
                        gone = rng.choice(sorted(ctx))
                        yield {n: a for n, a in ctx.items() if n != gone}, u, calc
                    yield ctx, u, rng.choice([c for c in CALCULI if c != calc])
                    previous = u


def _rechecks(rng, ctx, t, calc):
    """The same objects again, once t is checked: under a context that
    gives one of its free variables another formula, and under each other
    calculus, so that a type kept on a node is asked for where it is wrong."""
    named = sorted(free_vars(t) & ctx.keys())
    if named:
        x = rng.choice(named)
        other = [a for a in ctx.values() if a != ctx[x]]
        yield {**ctx, x: rng.choice(other) if other else neg(ctx[x])}, t, calc
    for c in CALCULI:
        if c != calc:
            yield ctx, t, c


def test_walk_answers_as_the_recursive_checker():
    rng = random.Random(1414)
    cases = errors = 0
    kinds = set()
    for case in _differential_cases():
        for ctx, t, calc in (case, *_rechecks(rng, *case)):
            want = _outcome(reference_infer, ctx, t, calc)
            assert _outcome(infer, ctx, t, calc) == want, (ctx, print_term(t), calc)
            cases += 1
            if isinstance(want, tuple):
                errors += 1
                kinds.add(want[0])
    assert cases > 5000 and 1000 < errors < cases - 1000, (cases, errors)
    assert kinds == {UnknownVariable, NotAnImplication, NotAConjunction,
                     NotADisjunction, TypeMismatch, BranchTypeMismatch,
                     CalculusViolation, VisserOpenAssumption}, kinds


# ------------------------------------------------------------------- depth

P, Q = Atom("p"), Atom("q")
CHAIN_CTX = {"f": Impl(P, P), "y": P}
DEEP = 10_000


def _deep_chain(redex):
    """f (R (f (R ... y))), DEEP links deep, of type p under CHAIN_CTX."""
    e = Var("y")
    for _ in range(DEEP):
        e = App(Var("f"), redex(e))
    return e


DEEP_CHAINS = {
    "application": ("IPC", lambda e: e),
    "pair/projection": ("IPC", lambda e: Proj(1, Pair(e, Var("y")))),
    "case": ("IPC", lambda e: Case(Inj(1, P, e), "z", Var("z"), Var("y"))),
    "hop": ("KP", lambda e: Harrop("x", neg(Q), Inj(1, P, Var("y")), "w", e, Var("y"))),
    "visser": ("V", lambda e: Visser((("x1", Impl(P, P)),), Inj(1, P, Var("x1")),
                                     "v", e, Var("y"), "u", (Var("y"),))),
}


@pytest.mark.parametrize("family", DEEP_CHAINS)
def test_deep_chains_type_without_recursion(default_recursion_limit, family):
    calc, redex = DEEP_CHAINS[family]
    t = _deep_chain(redex)
    assert infer(CHAIN_CTX, t, calc) == P
    check(CHAIN_CTX, t, P, calc)
    assert checks(CHAIN_CTX, t, P, calc)
    assert not checks(CHAIN_CTX, t, Q, calc)


def test_deep_abstraction_chain(default_recursion_limit):
    t = Var("x")
    for _ in range(DEEP):
        t = Abs("x", P, t)
    # a type this deep cannot meet `==` at this limit, so it is read printed
    assert print_formula(infer({}, t)) == " -> ".join(["p"] * (DEEP + 1))
    assert checks({}, t)


def _deep_arrow(target):
    """p -> p -> ... -> target, DEEP arrows, built apart from any type infer makes."""
    a = target
    for _ in range(DEEP):
        a = Impl(P, a)
    return a


def test_deep_types_compare_without_recursion(default_recursion_limit):
    t = Var("x")
    for _ in range(DEEP):
        t = Abs("x", P, t)
    deep = _deep_arrow(P)
    check({}, t, deep)
    assert checks({}, t, deep)
    assert not checks({}, t, _deep_arrow(Q))
    # the argument check of an application, and the agreement of two branches
    check({}, App(Abs("f", _deep_arrow(P), Var("f")), t), deep)
    twin = Var("x")
    for _ in range(DEEP):
        twin = Abs("x", P, twin)
    check({"d": Disj(P, Q)}, Case(Var("d"), "y", t, twin), deep)
    with pytest.raises(BranchTypeMismatch):
        infer({"d": Disj(P, Q)}, Case(Var("d"), "y", t, Abs("x", Q, twin)))


# ----------------------------------------------------------------- sharing


def test_doubling_script_checks_each_shared_definition_once(tmp_path, capsys):
    # inlined, d39 is a tree of about 2**40 nodes; as a DAG it is 40 levels
    lines = ["calculus IPC", "def d0 : p -> p := fun (x : p) => x"]
    lines += [f"def d{k} : p -> p := fun (x : p) => d{k - 1} (d{k - 1} x)"
              for k in range(1, 40)]
    f = tmp_path / "doubling40.vkp"
    f.write_text("\n".join(lines) + "\n")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == "".join(f"d{k} : OK (p -> p)\n" for k in range(40))


def test_shared_open_node_is_typed_in_each_context():
    R = Atom("r")
    s = App(Var("f"), Var("x"))  # one object, under two binders of f
    t = Abs("f", Impl(P, Q), Abs("x", P, Pair(s, Abs("f", Impl(P, R), s))))
    assert print_formula(infer({}, t)) == "(p -> q) -> p -> q /\\ ((p -> r) -> r)"
    assert infer({}, t) == reference_infer({}, t)
    xx = Pair(Var("x"), Var("x"))  # one object, under a binder of x at p and one at q
    u = Pair(Abs("x", P, xx), Abs("x", Q, xx))
    assert print_formula(infer({}, u)) == "(p -> p /\\ p) /\\ (q -> q /\\ q)"
    assert infer({}, u) == reference_infer({}, u)


def test_a_context_dict_changed_between_checks_is_followed():
    ctx = {"x": P, "y": Q}
    t = Abs("z", Q, Pair(Var("x"), Pair(Var("y"), Var("z"))))
    check(ctx, t, Impl(Q, Conj(P, Conj(Q, Q))))
    ctx["x"] = Q
    check(ctx, t, Impl(Q, Conj(Q, Conj(Q, Q))))
    assert infer(ctx, t) == reference_infer(ctx, t)
    del ctx["y"]
    want = _outcome(reference_infer, ctx, t, "IPC")
    assert want == (UnknownVariable, "unknown variable y")
    assert _outcome(infer, ctx, t, "IPC") == want
    # the same formulas in the same order, given to other names
    u = Pair(Var("a"), Var("b"))
    assert infer({"a": P, "b": Q}, u) == Conj(P, Q)
    assert infer({"b": P, "a": Q}, u) == Conj(Q, P)


def test_a_kept_type_is_reused_under_an_equal_context():
    ctx = {"x": P, "y": Q}
    t = Abs("z", Q, Pair(Var("x"), Pair(Var("y"), Var("z"))))
    a = Impl(Q, Conj(P, Conj(Q, Q)))
    check(ctx, t, a)
    kept = t._ty
    for again in (dict(ctx), {**ctx, "unused": Q}):
        check(again, t, a)
        assert t._ty is kept  # a retyped fun would build a new Impl
    changed = {**ctx, "x": Q}
    assert _outcome(infer, changed, t, "IPC") == _outcome(reference_infer, changed, t, "IPC")
    assert t._ty is not kept


def test_reducts_of_a_checked_term_answer_as_the_recursive_checker():
    # a reduct shares every node off its rebuilt spine with the checked term
    reducts = 0
    for calc in CALCULI:
        for shape in CTX_SHAPES:
            for seed in range(40):
                try:
                    ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3,
                                               seed=seed, ctx_shape=shape)
                except GenerationFailed:
                    continue
                check(ctx, t, a, calc)
                for _, r in step_anywhere(t, calc, ctx):
                    assert _outcome(infer, ctx, r, calc) \
                        == _outcome(reference_infer, ctx, r, calc), (print_term(r), calc)
                    reducts += 1
    assert reducts > 600, reducts


def test_shared_ill_typed_closed_node_fails_as_the_reference():
    bad = App(Abs("x", P, Var("x")), Abs("y", Q, Var("y")))  # closed, ill-typed
    good = Abs("z", Q, Var("z"))
    for t in (Pair(bad, bad), Pair(good, Pair(good, App(bad, bad))),
              Abs("w", P, Case(Inj(2, P, good), "v", bad, bad))):
        want = _outcome(reference_infer, {}, t, "IPC")
        assert isinstance(want, tuple)
        assert _outcome(infer, {}, t, "IPC") == want
