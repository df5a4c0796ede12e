"""Evaluators, the KP normalizer, budgets, traces, and extraction."""

import random
from collections import Counter

import pytest

import vkp.normalize
import vkp.reduction
import vkp.syntax

from vkp.gen import (
    ATOM_NAMES, GenerationFailed, _Ctx, _GenState, _inhabit, generate_typed,
)
from vkp.normalize import (
    BudgetExceeded, PreconditionViolation, eval_v, extract_disjunct,
    normalize_full, normalize_kp, step_weak_head_named, weak_head_normalize,
)
from vkp.parser import parse_formula, parse_term
from vkp.reduction import (
    TraceStep, is_normal, replay_step, step_anywhere, step_top_named,
    weak_head_redexes,
)
from vkp.syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, FALSUM, Harrop, Impl, Inj,
    Pair, Proj, Var, Visser, alpha_eq, children, neg, replace_at, subterm_at,
    with_children,
)
from vkp.typecheck import CalculusViolation, UnknownVariable, infer

A = Atom("A")
B = Atom("B")
C = Atom("C")

HP_TEXT = ("fun (w : ~B -> A1 \\/ A2) => hop (x : ~B). w x of"
           " { y => inj1[~B -> A2] y | y => inj2[~B -> A1] y }")


def test_eval_ipc_beta():
    t = App(Abs("x", A, Var("x")), Var("z"))
    assert normalize_full(t, "IPC", {"z": A}) == Var("z")


def test_eval_ipc_case_of_injection():
    t = Case(Inj(1, A, Var("a")), "y", Var("y"), Var("y"))
    assert normalize_full(t, "IPC", {"a": A}) == Var("a")


def test_eval_ipc_under_binder():
    t = Abs("x", Conj(A, B), Proj(1, Pair(Proj(1, Var("x")), Proj(2, Var("x")))))
    assert normalize_full(t) == Abs("x", Conj(A, B), Proj(1, Var("x")))


def test_eval_ipc_open_term_without_ctx():
    t = App(Abs("x", A, App(Var("f"), Var("x"))), Var("z"))
    assert normalize_full(t) == App(Var("f"), Var("z"))


def test_eval_v_variable():
    assert eval_v(Var("x"), {"x": Impl(A, B)}) == Var("x")


def test_eval_v_injection_case():
    t = parse_term(
        "visser (x1 : B -> B). inj1[A] x1 of"
        " { y => y | y => fun (w : B -> B) => w | z => fun (w : B -> B) => w }"
    )
    got = eval_v(t)
    assert got == Abs("x1", Impl(B, B), Var("x1"))
    assert infer({}, got, "IPC") == Impl(Impl(B, B), Impl(B, B))


def test_eval_v_efq_case():
    idA = Abs("q", A, Var("q"))
    ann = Impl(Impl(A, A), FALSUM)
    main = Exfalso(Disj(C, Atom("D")), App(Var("x1"), idA))
    t = Visser((("x1", ann),), main,
               "y", Abs("q", A, Var("q")), Abs("q", A, Var("q")),
               "z", (Abs("q", A, Var("q")),))
    assert infer({}, t, "V") == Impl(A, A)
    got = eval_v(t)
    assert got == Abs("q", A, Var("q"))


def test_eval_v_efq_case_branch_uses_hypothesis():
    # branch 1 returns y itself, so the substituted lambda-exfalso shows up
    idA = Abs("q", A, Var("q"))
    ann = Impl(Impl(A, A), FALSUM)
    main = Exfalso(Disj(C, Atom("D")), App(Var("x1"), idA))
    goal = Impl(ann, C)
    fallback = Abs("k", ann, Exfalso(C, App(Var("k"), idA)))
    t = Visser((("x1", ann),), main, "y", Var("y"), fallback, "z", (fallback,))
    assert infer({}, t, "V") == goal
    got = eval_v(t)
    want = Abs("x1", ann, Exfalso(C, App(Var("x1"), idA)))
    assert alpha_eq(got, want)
    assert infer({}, got, "IPC") == goal


def test_eval_v_var_app_case():
    t = parse_term(
        "visser (x1 : (B -> B) -> A1 \\/ A2). x1 (fun (b : B) => b) of"
        " { y => fun (h : (B -> B) -> A1 \\/ A2) => fun (b : B) => b"
        " | y => fun (h : (B -> B) -> A1 \\/ A2) => fun (b : B) => b"
        " | z => z }"
    )
    got = eval_v(t)
    want = parse_term("fun (x1 : (B -> B) -> A1 \\/ A2) => fun (b : B) => b")
    assert alpha_eq(got, want)


def test_eval_v_rejects_hop():
    hop = Harrop("x", neg(B), Inj(1, A, Var("x")), "y",
                 Abs("q", A, Var("q")), Abs("q", A, Var("q")))
    with pytest.raises(PreconditionViolation):
        eval_v(hop)


def test_eval_v_properties_sample():
    for seed in range(60):
        ctx, t, a = generate_typed("V", max_depth=6, atom_count=3, seed=seed)
        ev = eval_v(t, ctx)
        assert infer(ctx, ev, "IPC") == a
        assert is_normal(ev, "IPC", ctx)


def test_normalize_kp_variable():
    assert normalize_kp(Var("z"), {"z": A}) == Var("z")


def test_normalize_kp_nested_beta():
    t = App(Abs("x", A, Var("x")), App(Abs("y", A, Var("y")), Var("a")))
    assert normalize_kp(t, {"a": A}) == Var("a")


def test_normalize_kp_harrop_principle_applied():
    hp = parse_term(HP_TEXT)
    arg = parse_term("fun (q : ~B) => inj1[A2] (p q)")
    ctx = {"p": parse_formula("~B -> A1")}
    t = App(hp, arg)
    assert infer(ctx, t, "KP") == parse_formula("(~B -> A1) \\/ (~B -> A2)")
    nf = normalize_kp(t, ctx)
    want = parse_term("inj1[~B -> A2] (fun (q : ~B) => p q)")
    assert alpha_eq(nf, want)
    assert is_normal(nf, "KP", ctx)


def test_normalize_matches_weak_head_then_congruence():
    # after full normalization nothing remains for the head strategy either
    for seed in range(40):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=3, seed=seed)
        nf = normalize_kp(t, ctx)
        assert step_weak_head_named(nf, ctx) is None
        assert is_normal(nf, "KP", ctx)


def test_budget_exceeded_reports_progress():
    t = Var("a")
    for _ in range(30):
        t = App(Abs("x", A, Var("x")), t)
    with pytest.raises(BudgetExceeded) as e:
        normalize_full(t, "IPC", {"a": A}, budget=5)
    assert e.value.steps == 5
    assert e.value.last is not None
    # the partial result is not the normal form
    assert e.value.last != Var("a")


def test_trace_replays():
    hp = parse_term(HP_TEXT)
    arg = parse_term("fun (q : ~B) => inj1[A2] (p q)")
    ctx = {"p": parse_formula("~B -> A1")}
    trace = []
    normalize_full(App(hp, arg), "KP", ctx, trace=trace)
    assert [s.rule for s in trace] == ["Beta", "Beta", "Harrop-inj"]
    for s in trace:
        assert replay_step(s, "KP", ctx)


def test_weak_head_normalize_stops_at_head_normal():
    t = Abs("x", A, App(Abs("y", A, Var("y")), Var("x")))
    # an abstraction is already head-normal, body untouched
    assert weak_head_normalize(t) == t
    u = Proj(1, App(Abs("x", Conj(A, B), Var("x")), Var("p")))
    assert weak_head_normalize(u, {"p": Conj(A, B)}) == Proj(1, Var("p"))


def test_extract_left():
    t = Inj(1, B, Abs("x", A, Var("x")))
    side, w = extract_disjunct(t)
    assert side == "Left"
    assert w == Abs("x", A, Var("x"))


def test_extract_right_through_harrop():
    hp = parse_term(
        "fun (w : ~B -> A1 \\/ ~B) => hop (x : ~B). w x of"
        " { y => inj1[~B -> ~B] y | y => inj2[~B -> A1] y }"
    )
    arg = parse_term("fun (q : ~B) => inj2[A1] q")
    t = App(hp, arg)
    side, w = extract_disjunct(t, "KP")
    assert side == "Right"
    assert alpha_eq(w, parse_term("fun (x : ~B) => x"))
    from vkp.typecheck import check
    check({}, w, parse_formula("~B -> ~B"), "KP")


def test_extract_v_term_gives_ipc_witness():
    t = parse_term(
        "visser (x1 : B -> B). inj1[A] x1 of"
        " { y => inj2[A] y"
        " | y => inj1[(B -> B) -> B -> B] (y (fun (b : B) => b))"
        " | z => inj2[A] (fun (w : B -> B) => fun (b : B) => z w) }"
    )
    assert infer({}, t, "V") == parse_formula("A \\/ ((B -> B) -> B -> B)")
    side, w = extract_disjunct(t, "V")
    assert side == "Right"
    assert alpha_eq(w, parse_term("fun (x1 : B -> B) => x1"))
    assert infer({}, w, "IPC") == parse_formula("(B -> B) -> B -> B")


def test_extract_guards():
    with pytest.raises(PreconditionViolation):
        extract_disjunct(Inj(1, B, Var("free")))  # open
    with pytest.raises(PreconditionViolation):
        extract_disjunct(Abs("x", A, Var("x")))  # not a disjunction


def test_consistency_no_closed_falsum_proof():
    # the generator cannot build a closed KP proof of falsity
    with pytest.raises(GenerationFailed):
        generate_typed("KP", max_depth=6, atom_count=3, seed=0,
                       goal=FALSUM, closed=True)


def test_search_finds_no_closed_falsum_proof():
    # generate_typed skips a classically false goal before searching, so
    # the test above passes without a search; this one runs the search
    for calc in ("IPC", "V", "KP"):
        for seed in range(40):
            st = _GenState(random.Random(seed), 600, ATOM_NAMES[:3])
            assert _inhabit(st, _Ctx(), FALSUM, 6, calc) is None, (calc, seed)


def test_full_steps_are_leftmost_outermost():
    # each contraction is the first position step_anywhere lists (preorder)
    steps = 0
    for calc in ("IPC", "KP"):
        for seed in range(40):
            ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3, seed=seed)
            trace = []
            normalize_full(t, calc, ctx, trace=trace)
            for s in trace:
                assert step_anywhere(s.before, calc, ctx)[0] == (s.path, s.after), seed
            steps += len(trace)
    assert steps > 100


def test_weak_head_steps_match_spine_search():
    steps = 0
    for seed in range(60):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=3, seed=seed)
        trace = []
        nf = weak_head_normalize(t, ctx, trace=trace)
        for s in trace:
            assert weak_head_redexes(s.before, ctx)[0] == (s.path, s.after, s.rule), seed
        assert weak_head_redexes(nf, ctx) == []
        steps += len(trace)
    assert steps > 20


# ------------------------------------------- depth at the default limit


CHAIN_CTX = {"f": Impl(A, A), "y": A}


def _chain(n, redex):
    """f (R (f (R ... y))): n redexes, each contracting to its argument."""
    e = Var("y")
    for _ in range(n):
        e = App(Var("f"), redex(e))
    return e


def _is_f_iterated(t, n) -> bool:
    # iterative: dataclass == recurses, and these terms are deep
    for _ in range(n):
        if not (isinstance(t, App) and t.fun == Var("f")):
            return False
        t = t.arg
    return t == Var("y")


def test_deep_beta_chain(default_recursion_limit, monkeypatch):
    rules = Counter()
    contract = vkp.normalize.step_top_named

    def counting(*args):
        r = contract(*args)
        if r is not None:
            rules[r[1]] += 1
        return r

    monkeypatch.setattr(vkp.normalize, "step_top_named", counting)
    t = _chain(2000, lambda e: App(Abs("x", A, Var("x")), e))
    assert _is_f_iterated(normalize_full(t, "IPC", CHAIN_CTX), 2000)
    assert rules == {"Beta": 2000}
    with pytest.raises(BudgetExceeded) as e:
        normalize_full(t, "IPC", CHAIN_CTX, budget=1999)
    assert e.value.steps == 1999


def test_deep_hop_chain(default_recursion_limit):
    t = _chain(600, lambda e: Harrop("x", neg(B), Inj(1, A, Var("y")), "w", e, Var("y")))
    trace = []
    nf = normalize_full(t, "KP", CHAIN_CTX, trace=trace)
    assert _is_f_iterated(nf, 600)
    assert len(trace) == 600
    assert {s.rule for s in trace} == {"Harrop-inj"}


def test_hop_chains_fold_a_context_only_for_harrop_efq(default_recursion_limit, monkeypatch):
    # each hop's main premise is decomposed once, and binder types are
    # worked out from the frames only where Harrop-efq fires
    calls = Counter()
    for name in ("_context", "decompose"):
        real = getattr(vkp.reduction, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(vkp.reduction, name, counting)
    n = 400
    t = _chain(n, lambda e: Harrop("x", neg(B), Inj(1, A, Var("y")), "w", e, Var("y")))
    assert _is_f_iterated(normalize_full(t, "KP", CHAIN_CTX), n)
    assert calls == {"decompose": n}
    calls.clear()
    efq = Exfalso(Disj(A, A), App(Var("nb"), Var("b")))
    t = _chain(n, lambda e: Harrop("x", neg(B), efq, "w", e, e))
    trace = []
    nf = normalize_full(t, "KP", {**CHAIN_CTX, "nb": neg(B), "b": B}, trace=trace)
    assert _is_f_iterated(nf, n)
    assert [s.rule for s in trace] == ["Harrop-efq"] * n
    assert calls == {"decompose": n, "_context": n}


def test_no_binder_types_after_last_hop():
    # once the last hop is contracted, nothing infers binder types, so an
    # open term needs no context for its free variables (here g and y)
    branch = Case(Var("g"), "z", App(Abs("k", A, Var("k")), Var("z")), Var("z"))
    t = Harrop("x", neg(B), Inj(1, A, Var("y")), "w", branch, Var("y"))
    trace = []
    nf = normalize_full(t, "KP", trace=trace)
    assert [s.rule for s in trace] == ["Harrop-inj", "Beta"]
    assert nf == Case(Var("g"), "z", Var("z"), Var("z"))
    assert nf == normalize_full(t, "KP", {"g": Disj(A, A), "y": A})


def test_open_kp_term_needs_context_only_for_hop_efq():
    # only Harrop-efq reads binder types, so nothing asks for the type of g
    # (or of y), whether the injection hop sits beside the case or in it
    hop = Harrop("x", neg(B), Inj(1, A, Var("y")), "w", Var("w"), Var("y"))
    t = Pair(Case(Var("g"), "z", Var("z"), Var("z")), hop)
    ctx = {"g": Disj(A, A), "y": A}
    nf = Pair(Case(Var("g"), "z", Var("z"), Var("z")), Abs("x", neg(B), Var("y")))
    assert normalize_full(t, "KP") == nf == normalize_full(t, "KP", ctx)
    assert step_anywhere(t, "KP") == [((1,), nf)] == step_anywhere(t, "KP", ctx)
    assert not is_normal(t, "KP")
    assert is_normal(nf, "KP")
    inside = Case(Var("g"), "z", hop, Var("z"))
    assert normalize_full(inside, "KP") == Case(Var("g"), "z", nf.snd, Var("z"))


def _split_hop(x, main, left, right):
    """hop (x : ~B). main of { w => inj1 w | w => inj2 w }: from a main
    premise of left \\/ right, a proof of (~B -> left) \\/ (~B -> right)."""
    nl, nr = Impl(neg(B), left), Impl(neg(B), right)
    return Harrop(x, neg(B), main, "w", Inj(1, nr, Var("w")), Inj(2, nl, Var("w")))


def test_hop_efq_reads_binders_of_enclosing_abs_and_case():
    # the exfalso payload u z needs u from the abstraction and z from the
    # case branch; the reduct is the one step_top_named gives with both
    hop = _split_hop("x", Exfalso(Disj(A, C), App(Var("u"), Var("z"))), A, C)
    other = Inj(1, Impl(neg(B), C), Abs("x", neg(B), Var("z")))
    t = Abs("u", neg(A), Case(Var("d"), "z", hop, other))
    ctx = {"d": Disj(A, A)}
    infer(ctx, t, "KP")
    with pytest.raises(UnknownVariable):
        step_top_named(hop, "KP", ctx)
    reduct, rule = step_top_named(hop, "KP", {**ctx, "u": neg(A), "z": A})
    assert rule == "Harrop-efq"
    whole = Abs("u", neg(A), Case(Var("d"), "z", reduct, other))
    step = TraceStep((0, 1), "Harrop-efq", t, whole)
    trace = []
    assert normalize_full(t, "KP", ctx, trace=trace) == whole
    assert trace == [step]
    assert step_anywhere(t, "KP", ctx) == [((0, 1), whole)]
    assert not is_normal(t, "KP", ctx)
    assert replay_step(step, "KP", ctx)


def test_hop_efq_inside_a_hop_main_premise():
    # the inner hop's payload x1 b needs the outer hop's binder x1; the
    # outer hop cannot fire on a hop, so the head step is the inner one
    inner = _split_hop("x2", Exfalso(Disj(A, C), App(Var("x1"), Var("b"))), A, C)
    left, right = Impl(neg(B), A), Impl(neg(B), C)
    outer = _split_hop("x1", inner, left, right)
    ctx = {"b": B}
    infer(ctx, outer, "KP")
    reduct, rule = step_top_named(inner, "KP", {**ctx, "x1": neg(B)})
    assert rule == "Harrop-efq"
    whole = _split_hop("x1", reduct, left, right)
    step = TraceStep((0,), "Harrop-efq", outer, whole)
    trace = []
    normalize_full(outer, "KP", ctx, trace=trace)
    assert trace[0] == step
    assert step_anywhere(outer, "KP", ctx) == [((0,), whole)]
    assert step_weak_head_named(outer, ctx) == (whole, (0,), "Harrop-efq")
    assert weak_head_redexes(outer, ctx) == [((0,), whole, "Harrop-efq")]
    assert replay_step(step, "KP", ctx)


def test_hop_outside_kp_is_refused():
    # binder types are threaded only in KP; elsewhere the walk still meets
    # the hop and refuses it
    hop = Harrop("x", neg(B), Inj(1, A, Var("y")), "w", Var("w"), Var("y"))
    with pytest.raises(CalculusViolation):
        normalize_full(App(Abs("k", A, Var("k")), hop), "IPC", CHAIN_CTX)
    t = Case(Var("d"), "z", Pair(Var("z"), hop), Pair(Var("z"), Var("z")))
    with pytest.raises(CalculusViolation):
        normalize_full(t, "V", {**CHAIN_CTX, "d": Disj(A, A)})


def test_eval_v_walks_only_rebuilt_redexes(monkeypatch):
    # f (f (... y)) holds no redex: each rebuilt node is looked at once,
    # instead of walking every normal subterm below it again
    calls = 0
    contract = vkp.normalize.step_top_named

    def counting(*args):
        nonlocal calls
        calls += 1
        return contract(*args)

    monkeypatch.setattr(vkp.normalize, "step_top_named", counting)
    n = 300
    assert _is_f_iterated(eval_v(_chain(n, lambda e: e), CHAIN_CTX), n)
    assert calls <= 2 * n


def _visser_redex(e):
    return Visser((("x1", Impl(A, A)),), Inj(1, A, Var("x1")),
                  "v", e, Var("y"), "u", (Var("y"),))


def test_eval_v_walks_visser_chain_once(monkeypatch):
    # a contracted visser leaves its branch in place, and the walk carries on
    # into it instead of evaluating the branch and scanning it again
    calls = 0
    contract = vkp.normalize.step_top_named

    def counting(*args):
        nonlocal calls
        calls += 1
        return contract(*args)

    monkeypatch.setattr(vkp.normalize, "step_top_named", counting)
    n = 200
    assert _is_f_iterated(eval_v(_chain(n, _visser_redex), CHAIN_CTX), n)
    assert calls <= 2 * n


def test_eval_v_budget_counts_visser_steps():
    t = parse_term("(fun (k : (B -> B) -> B -> B) => k)"
                   " (visser (x1 : B -> B). inj1[A] x1 of"
                   " { y => y | y => fun (w : B -> B) => w"
                   " | z => fun (w : B -> B) => w })")
    assert eval_v(t, budget=2) == Abs("x1", Impl(B, B), Var("x1"))
    with pytest.raises(BudgetExceeded) as e:
        eval_v(t, budget=1)
    assert e.value.steps == 1
    assert infer({}, e.value.last, "V") == infer({}, t, "V")


# ------------------------------------------------------------ lazy traces


def _equal(s, t) -> bool:
    """s == t without recursion (dataclass == recurses): each node pair is
    compared one level deep, with the children swapped for t's own."""
    todo = [(s, t)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cs, ds = children(a), children(b)
        if type(a) is not type(b) or len(cs) != len(ds) or with_children(a, ds) != b:
            return False
        todo.extend(zip(cs, ds))
    return True


def _values(step):
    return step.path, step.rule, step.before, step.after


def _linked(trace, t) -> bool:
    """Each step starts from the very term the step before it ended at."""
    starts = [t] + [s.after for s in trace[:-1]]
    return all(s.before is start for s, start in zip(trace, starts))


def _same_steps(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        x.path == y.path and x.rule == y.rule and _equal(x.after, y.after)
        for x, y in zip(xs, ys))


def _kept(trace, read) -> bool:
    return all(a is b for s, r in zip(trace, read) for a, b in zip(_values(s), r))


CHAIN_REDEXES = {
    "beta": ("IPC", lambda e: App(Abs("x", A, Var("x")), e)),
    "proj": ("IPC", lambda e: Proj(1, Pair(e, Var("y")))),
    "case": ("IPC", lambda e: Case(Inj(1, A, e), "z", Var("z"), Var("y"))),
    "hop": ("KP", lambda e: Harrop("x", neg(B), Inj(1, A, Var("y")), "w", e, Var("y"))),
}


def _lazy_trace_cases():
    for calc in ("IPC", "KP"):
        for seed in range(150):
            ctx, t, _ = generate_typed(calc, max_depth=5, atom_count=3, seed=seed)
            yield calc, ctx, t
    for calc, redex in CHAIN_REDEXES.values():
        yield calc, CHAIN_CTX, _chain(200, redex)


def test_lazy_trace_equals_eager_reading():
    steps = 0
    for calc, ctx, t in _lazy_trace_cases():
        in_order = []
        nf = normalize_full(t, calc, ctx, trace=in_order)
        read = [_values(s) for s in in_order]  # every value, step by step
        assert _linked(in_order, t) and _equal(in_order[-1].after if read else t, nf)
        assert all(replay_step(s, calc, ctx) for s in in_order)
        # reading the steps backwards, or only their after, builds the same terms
        backwards, afters_only = [], []
        normalize_full(t, calc, ctx, trace=backwards)
        normalize_full(t, calc, ctx, trace=afters_only)
        for s in reversed(backwards):
            _values(s)
        for s in afters_only:
            s.after
        assert _linked(backwards, t) and _same_steps(backwards, in_order)
        assert _linked(afters_only, t) and _same_steps(afters_only, in_order)
        assert _kept(in_order, read)
        # a second run into the same list leaves the earlier steps as they
        # were, and its first step starts from its own input term
        normalize_full(t, calc, ctx, trace=in_order)
        assert _kept(in_order, read)
        assert _linked(in_order[len(read):], t) and _same_steps(in_order[len(read):], backwards)
        steps += len(read)
    assert steps > 1000


def test_traced_walk_rebuilds_no_more_than_untraced(default_recursion_limit, monkeypatch):
    # linear by count, not by time: a traced run that reads only path and
    # rule plugs nothing more than an untraced one
    rebuilds = 0
    rebuild = vkp.syntax.with_children

    def counting(*args):
        nonlocal rebuilds
        rebuilds += 1
        return rebuild(*args)

    monkeypatch.setattr(vkp.syntax, "with_children", counting)
    n = 1600
    for family, rule in (("beta", "Beta"), ("hop", "Harrop-inj")):
        calc, redex = CHAIN_REDEXES[family]
        t = _chain(n, redex)
        rebuilds = 0
        assert _is_f_iterated(normalize_full(t, calc, CHAIN_CTX), n)
        untraced, rebuilds = rebuilds, 0
        trace = []
        assert _is_f_iterated(normalize_full(t, calc, CHAIN_CTX, trace=trace), n)
        assert [s.path for s in trace] == [(1,) * (k + 1) for k in range(n)]
        assert {s.rule for s in trace} == {rule}
        assert rebuilds == untraced
        # every after costs a plug as deep as the chain; test_lazy_trace_equals_eager_reading
        # reads them all on shorter chains
        for s in trace[::97] + trace[-1:]:
            focus = subterm_at(s.before, s.path)
            eager = replace_at(s.before, s.path, step_top_named(focus, calc, CHAIN_CTX)[0])
            assert _equal(s.after, eager)


def test_recorded_step_is_a_trace_step():
    t = parse_term("(fun (x : A) => x) ((fun (y : A) => y) z)")
    trace = []
    normalize_full(t, "IPC", {"z": A}, trace=trace)
    for s in trace:
        direct = TraceStep(s.path, s.rule, s.before, s.after)
        assert s == direct and direct == s
        assert hash(s) == hash(direct) and repr(s) == repr(direct)
        assert s == TraceStep(path=s.path, rule=s.rule, before=s.before, after=s.after)
        match s:
            case TraceStep(path, rule, before, after):
                assert (path, rule, before, after) == _values(direct)
    assert repr(trace[0]).startswith("TraceStep(path=(), rule='Beta', before=App(")
    assert trace[0] != TraceStep((), "Beta", t, t) and trace[0] != _values(trace[0])


# A visser or hop fires only once a contraction further down its main
# premise's spine leaves an exfalso or a variable at the head: the walk has
# to back up past the parent to it.  Each term here is typed, and the
# contraction that lets it fire sits two frames below it.

P, Q, R = Atom("P"), Atom("Q"), Atom("R")
LATE_CTX = {"a": A, "n": FALSUM}
LATE_FIRING = {
    # proj1 ((fun u => exfalso n) a): Beta, then Harrop-efq on the exfalso head
    "Harrop-efq": ("KP", parse_term(
        "hop (x : ~C). proj1 ((fun (u : A) => exfalso[(P \\/ Q) /\\ R] n) a) of"
        " { y => inj1[~C -> Q] y | y => inj2[~C -> P] y }")),
    # the same spine in a visser main premise, over its own binder x1
    "Visser-efq": ("V", parse_term(
        "visser (x1 : (C -> C) -> False)."
        " proj1 ((fun (u : C -> C) => exfalso[(P \\/ Q) /\\ R] (x1 u)) (fun (c : C) => c)) of"
        " { y => y | y => fun (w : (C -> C) -> False) => exfalso[P] (w (fun (c : C) => c))"
        " | z => fun (w : (C -> C) -> False) => exfalso[P] (w (z w)) }")),
    # (fun g => g) x1 (fun c => c): Beta, then Visser-app on the variable head x1
    "Visser-app": ("V", parse_term(
        "visser (x1 : (C -> C) -> P \\/ Q)."
        " (fun (g : (C -> C) -> P \\/ Q) => g) x1 (fun (c : C) => c) of"
        " { y => fun (w : (C -> C) -> P \\/ Q) => fun (c : C) => c"
        " | y => fun (w : (C -> C) -> P \\/ Q) => fun (c : C) => c | z => z }")),
}


@pytest.mark.parametrize("rule", list(LATE_FIRING))
def test_visser_or_hop_fires_after_a_contraction_down_its_spine(rule):
    calc, t = LATE_FIRING[rule]
    a = infer(LATE_CTX, t, calc)
    # alone, and under an outer beta, which fires first
    for u in (t, App(Abs("k", a, Var("k")), t)):
        trace = []
        nf = normalize_full(u, calc, LATE_CTX, trace=trace)
        assert rule in [s.rule for s in trace]
        for s in trace:
            assert step_anywhere(s.before, calc, LATE_CTX)[0] == (s.path, s.after)
        assert step_anywhere(nf, calc, LATE_CTX) == []
        assert infer(LATE_CTX, nf, calc) == a
        if calc != "KP":
            continue  # the head strategy is KP's
        trace = []
        whnf = weak_head_normalize(u, LATE_CTX, trace=trace)
        assert rule in [s.rule for s in trace]
        for s in trace:
            assert weak_head_redexes(s.before, LATE_CTX)[0] == (s.path, s.after, s.rule)
        assert weak_head_redexes(whnf, LATE_CTX) == []


def _head_chain(n, a):
    """(fun (x1 : a) ... (xn : a) => x1) v ... v, one beta step per binder."""
    t = Var("x1")
    for i in reversed(range(1, n + 1)):
        t = Abs(f"x{i}", a, t)
    for _ in range(n):
        t = App(t, Var("v"))
    return t


def _hop_over(t):
    """hop (x : ~C). t of { y => y | y => y }: from t proving A \\/ A, a
    proof of ~C -> A."""
    return Harrop("x", neg(C), t, "y", Var("y"), Var("y"))


HEAD_CHAIN_CTX = {"v": Disj(A, A)}


def test_head_chain_is_linear_through_both_strategies(default_recursion_limit, monkeypatch):
    # after each beta only the parent can fire, and the hop only at the
    # end, when the head of its main premise is the variable v
    calls = 0
    contract = vkp.normalize.step_top_named

    def counting(*args):
        nonlocal calls
        calls += 1
        return contract(*args)

    monkeypatch.setattr(vkp.normalize, "step_top_named", counting)
    n = 2000
    chain = _head_chain(n, Disj(A, A))
    for calc, t, nf in (("IPC", chain, Var("v")), ("KP", _hop_over(chain), _hop_over(Var("v")))):
        for run in (lambda: normalize_full(t, calc, HEAD_CHAIN_CTX),
                    lambda: weak_head_normalize(t, HEAD_CHAIN_CTX)):
            calls = 0
            assert run() == nf
            assert calls <= 3 * n


def test_weak_head_budget_stops_after_k_head_steps():
    t = _hop_over(_head_chain(60, Disj(A, A)))
    assert infer(HEAD_CHAIN_CTX, t, "KP") == Impl(neg(C), A)
    k = 25
    want = t
    for _ in range(k):
        want = step_weak_head_named(want, HEAD_CHAIN_CTX)[0]
    with pytest.raises(BudgetExceeded) as e:
        weak_head_normalize(t, HEAD_CHAIN_CTX, budget=k)
    assert e.value.steps == k
    assert e.value.last == want
    assert weak_head_normalize(t, HEAD_CHAIN_CTX, budget=60) == _hop_over(Var("v"))
