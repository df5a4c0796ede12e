"""Decomposition, the single-step rules, positions, and the head strategy."""

import hashlib
import random
from collections import Counter

import pytest

import vkp.reduction
import vkp.syntax
from context_reference import child_context as reference_child_context
from vkp.gen import CTX_SHAPES, GenerationFailed, generate_typed
from vkp.parser import parse_term
from vkp.reduction import (
    ExfalsoHead, InjectionHead, VarAppHead, decompose, is_normal,
    replay_step, step_anywhere, step_top_named, weak_head_redexes,
)
from vkp.normalize import TraceStep, step_weak_head_named
from vkp.syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, FALSUM, Harrop, Impl, Inj,
    Pair, Proj, Var, Visser, CALCULI, alpha_eq, children, neg, subterm_at,
    with_children, _plug,
)
from vkp.typecheck import CalculusViolation, UnknownVariable, _child_context, infer

A = Atom("A")
B = Atom("B")
C = Atom("C")


def test_decompose_injection_only_at_top():
    assert decompose(Inj(1, B, Var("t"))) == InjectionHead(1, Var("t"))
    # an injection under a frame is not an injection head
    d = decompose(Proj(1, Inj(1, B, Var("t"))))
    assert not isinstance(d, InjectionHead)


def test_decompose_exfalso_under_w():
    t = Proj(1, Exfalso(Conj(A, B), Var("s")))
    d = decompose(t)
    assert isinstance(d, ExfalsoHead)
    assert d.context == ((t, 0),)
    assert d.payload == Var("s")
    assert _plug(d.context, Exfalso(Conj(A, B), Var("s"))) == t


def test_decompose_var_app_under_case():
    t = Case(App(Var("x1"), Var("t")), "y", Var("y"), Var("y"))
    d = decompose(t)
    assert isinstance(d, VarAppHead)
    assert d.var == "x1"
    assert d.first_arg == Var("t")
    assert d.context == ((t, 0),)


def test_decompose_first_argument_reading():
    # x t u: the redex reading is x applied to t; the u application stays out
    t = App(App(Var("x"), Var("t")), Var("u"))
    d = decompose(t)
    assert isinstance(d, VarAppHead)
    assert d.first_arg == Var("t")
    assert d.context == ((t, 0),)
    assert _plug(d.context, App(Var("x"), Var("t"))) == t


def test_decompose_nothing():
    assert decompose(Var("x")) is None
    assert decompose(Abs("x", A, Var("x"))) is None
    assert decompose(Pair(Var("a"), Var("b"))) is None
    assert decompose(Proj(1, Var("x"))) is None  # bare var head, no argument


def test_plug_decompose_inverse():
    rng = random.Random(41)
    for seed in range(150):
        cal = ("IPC", "KP", "V")[seed % 3]
        ctx, t, a = generate_typed(cal, max_depth=6, atom_count=3, seed=seed)
        d = decompose(t)
        if isinstance(d, ExfalsoHead):
            core = _plug(d.context, Exfalso(_efq_target(t, d), d.payload))
            assert core == t
        elif isinstance(d, VarAppHead):
            assert _plug(d.context, App(Var(d.var), d.first_arg)) == t
        elif isinstance(d, InjectionHead):
            assert isinstance(t, Inj)


def _efq_target(t, d):
    # recover the annotation of the exfalso the context wraps
    cur = t
    from vkp.syntax import children
    for _ in d.context:
        cur = children(cur)[0]
    return cur.target


def test_step_top_beta():
    t = App(Abs("x", A, Var("x")), Var("z"))
    assert step_top_named(t, "IPC") == (Var("z"), "Beta")


def test_step_top_projection_and_case():
    assert step_top_named(Proj(2, Pair(Var("a"), Var("b"))))[0] == Var("b")
    t = Case(Inj(1, B, Var("p")), "y", App(Var("f"), Var("y")), Var("y"))
    assert step_top_named(t)[0] == App(Var("f"), Var("p"))
    t2 = Case(Inj(2, A, Var("p")), "y", Var("y"), App(Var("g"), Var("y")))
    assert step_top_named(t2)[0] == App(Var("g"), Var("p"))


def test_step_top_needs_value_shapes():
    assert step_top_named(App(Var("f"), Var("x"))) is None
    assert step_top_named(Proj(1, Var("p"))) is None
    assert step_top_named(Case(Var("d"), "y", Var("y"), Var("y"))) is None


def test_harrop_inj_rule():
    # hop (x:~B). inj1[A2] t of {y => s1 | y => s2}  ->  s1[y := fun (x:~B) => t]
    t = Harrop("x", neg(B), Inj(1, Atom("A2"), Var("t")),
               "y", App(Var("f"), Var("y")), Var("y"))
    r = step_top_named(t, "KP")
    assert r is not None
    reduct, rule = r
    assert rule == "Harrop-inj"
    assert reduct == App(Var("f"), Abs("x", neg(B), Var("t")))


def test_harrop_inj_second_branch():
    t = Harrop("x", neg(B), Inj(2, Atom("A1"), Var("t")),
               "y", Var("y"), Pair(Var("y"), Var("y")))
    reduct, rule = step_top_named(t, "KP")
    assert rule == "Harrop-inj"
    lam = Abs("x", neg(B), Var("t"))
    assert reduct == Pair(lam, lam)


def test_harrop_efq_discards_context_and_annotates():
    # main = proj1 (exfalso[(A1 \/ A2) /\ B] (x b)): W = proj1, payload x b
    # the reduct drops W and re-annotates exfalso with A1
    A1, A2 = Atom("A1"), Atom("A2")
    main = Proj(1, Exfalso(Conj(Disj_(A1, A2), B), App(Var("x"), Var("b"))))
    t = Harrop("x", neg(B), main, "y", Var("y"), Var("y"))
    reduct, rule = step_top_named(t, "KP", {"b": B})
    assert rule == "Harrop-efq"
    want = Abs("x", neg(B), Exfalso(A1, App(Var("x"), Var("b"))))
    assert reduct == want


def Disj_(l, r):
    from vkp.syntax import Disj
    return Disj(l, r)


def test_visser_inj_rule():
    bs = (("x1", Impl(B, C)),)
    t = Visser(bs, Inj(1, A, Var("x1")),
               "y", App(Var("f"), Var("y")), Var("y"),
               "z", (Var("z"),))
    reduct, rule = step_top_named(t, "V")
    assert rule == "Visser-inj"
    assert reduct == App(Var("f"), Abs("x1", Impl(B, C), Var("x1")))


def test_visser_inj_iterated_lambda_order():
    bs = (("x1", Impl(A, B)), ("x2", Impl(B, C)))
    t = Visser(bs, Inj(2, C, Var("x2")),
               "y", Var("y"), Var("y"),
               "z", (Var("z"), Var("z")))
    reduct, rule = step_top_named(t, "V")
    assert rule == "Visser-inj"
    assert reduct == Abs("x1", Impl(A, B), Abs("x2", Impl(B, C), Var("x2")))


def test_visser_efq_rule():
    # main premise: exfalso under a projection frame; the frame is dropped
    # and the rebuilt exfalso is annotated with the left disjunct A
    from vkp.syntax import Disj
    main = Proj(2, Exfalso(Conj(B, Disj(A, C)),
                           App(Var("x1"), Abs("q", A, Var("q")))))
    t = Visser((("x1", Impl(Impl(A, A), FALSUM)),), main,
               "y", Var("y"), Var("y"), "z", (Var("z"),))
    reduct, rule = step_top_named(t, "V")
    assert rule == "Visser-efq"
    inner = Exfalso(A, App(Var("x1"), Abs("q", A, Var("q"))))
    assert reduct == Abs("x1", Impl(Impl(A, A), FALSUM), inner)


def test_visser_app_rule():
    # main = case (x1 t) of {...}: head variable x1 with first argument t
    from vkp.syntax import Disj
    idq = Abs("q", B, Var("q"))
    main = Case(App(Var("x1"), idq), "w",
                Inj(1, C, Var("w")), Inj(1, C, Var("w")))
    t = Visser((("x1", Impl(Impl(B, B), Disj(A, C))),), main,
               "y", Var("y"), Var("y"),
               "z", (App(Var("g"), Var("z")),))
    reduct, rule = step_top_named(t, "V")
    assert rule == "Visser-app"
    lam = Abs("x1", Impl(Impl(B, B), Disj(A, C)), idq)
    assert reduct == App(Var("g"), lam)


def test_visser_stuck_main_var_not_a_binder():
    # head variable is the case binder, not one of the visser binders: no rule
    t = parse_term(
        "visser (x1 : B -> C). inj1[A] x1 of { y => y | y => y | z => z }"
    )
    # rebuild with a stuck main: bare x1 (no argument) decomposes to nothing
    stuck = Visser(t.binders, Var("x1"), t.case_binder, t.branch1, t.branch2,
                   t.app_binder, t.app_branches)
    assert step_top_named(stuck, "V") is None
    # unchecked, with main f a: f heads an application but binds nothing here
    stuck = Visser(t.binders, App(Var("f"), Var("a")), t.case_binder, t.branch1,
                   t.branch2, t.app_binder, t.app_branches)
    assert step_top_named(stuck, "V") is None


def test_step_top_calculus_gate():
    hop = Harrop("x", neg(B), Inj(1, A, Var("x")), "y", Var("y"), Var("y"))
    with pytest.raises(CalculusViolation):
        step_top_named(hop, "IPC")
    with pytest.raises(CalculusViolation):
        step_top_named(hop, "V")
    vis = Visser((("x1", Impl(B, C)),), Inj(1, A, Var("x1")),
                 "y", Var("y"), Var("y"), "z", (Var("z"),))
    with pytest.raises(CalculusViolation):
        step_top_named(vis, "KP")


def test_step_anywhere_normal_form():
    assert step_anywhere(Abs("x", A, Var("x")), "IPC") == []
    assert is_normal(Var("x"), "IPC")


def test_step_anywhere_single():
    t = App(Abs("x", A, Var("x")), Var("a"))
    assert step_anywhere(t, "IPC") == [((), Var("a"))]


def test_step_anywhere_enumerates_positions():
    r1 = App(Abs("x", A, Var("x")), Var("a"))
    r2 = App(Abs("y", B, Var("y")), Var("b"))
    t = Pair(r1, r2)
    got = step_anywhere(t, "IPC")
    assert len(got) == 2
    assert ((0,), Pair(Var("a"), r2)) in got
    assert ((1,), Pair(r1, Var("b"))) in got


def test_step_anywhere_under_binders():
    t = Abs("u", A, App(Abs("x", A, Var("x")), Var("u")))
    got = step_anywhere(t, "IPC")
    assert got == [((0,), Abs("u", A, Var("u")))]


def _f_chain(n, end):
    """f (f (... end)), n applications deep."""
    for _ in range(n):
        end = App(Var("f"), end)
    return end


def test_step_anywhere_and_is_normal_deep(default_recursion_limit):
    assert step_anywhere(_f_chain(3000, Var("y")), "IPC") == []
    assert is_normal(_f_chain(3000, Var("y")), "IPC")
    t = _f_chain(3000, App(Abs("x", A, Var("x")), Var("y")))
    [(path, r)] = step_anywhere(t, "IPC")
    assert path == (1,) * 3000
    for _ in range(3000):  # walk it, since dataclass == recurses
        assert isinstance(r, App) and r.fun == Var("f")
        r = r.arg
    assert r == Var("y")
    assert not is_normal(t, "IPC")


def test_is_normal_builds_no_reduct(monkeypatch):
    import vkp.reduction

    def no_plugging(*args):
        raise AssertionError("is_normal built a reduct")

    monkeypatch.setattr(vkp.reduction, "replace_at", no_plugging)
    t = Pair(App(Abs("x", A, Var("x")), Var("a")), App(Abs("y", B, Var("y")), Var("b")))
    assert not is_normal(t, "IPC")
    assert is_normal(Pair(Var("a"), Var("b")), "IPC")


def test_step_weak_head_projection_chain():
    t = Proj(1, App(Abs("x", Conj(A, B), Var("x")), Var("p")))
    r = step_weak_head_named(t, {"p": Conj(A, B)})
    assert r is not None
    whole, path, rule = r
    assert whole == Proj(1, Var("p"))
    assert path == (0,)
    assert rule == "Beta"


def test_step_weak_head_stops_at_abstraction():
    t = Abs("x", A, App(Abs("y", A, Var("y")), Var("x")))
    assert step_weak_head_named(t) is None  # no K frame enters plain binders


def test_step_weak_head_descends_into_hop_main():
    inner = App(Abs("q", Disj_(Atom("A2"), B), Var("q")), Inj(1, B, Var("x")))
    t = Harrop("x", neg(B), inner, "y",
               Abs("w", A, Var("w")), Abs("w", A, Var("w")))
    r = step_weak_head_named(t, {})
    assert r is not None
    whole, path, rule = r
    assert rule == "Beta"
    assert path == (0,)
    assert whole == Harrop("x", neg(B), Inj(1, B, Var("x")), "y",
                           Abs("w", A, Var("w")), Abs("w", A, Var("w")))
    # and the next head step fires the hop itself at the root
    r2 = step_weak_head_named(whole, {})
    whole2, path2, rule2 = r2
    assert (path2, rule2) == ((), "Harrop-inj")
    assert whole2 == Abs("w", A, Var("w"))


def test_step_weak_head_result_among_step_anywhere():
    for seed in range(150):
        ctx, t, a = generate_typed("KP", max_depth=6, atom_count=3, seed=seed)
        r = step_weak_head_named(t, ctx)
        everything = step_anywhere(t, "KP", ctx)
        if r is None:
            continue
        whole, path, rule = r
        assert any(p == path and alpha_eq(w, whole) for p, w in everything), seed


def test_weak_head_oracle_agreement_small():
    for seed in range(150):
        ctx, t, a = generate_typed("KP", max_depth=5, atom_count=3, seed=seed)
        oracle = weak_head_redexes(t, ctx)
        assert len(oracle) in (0, 1)
        r = step_weak_head_named(t, ctx)
        if r is None:
            assert oracle == []
        else:
            whole, path, rule = r
            opath, owhole, orule = oracle[0]
            assert (opath, orule) == (path, rule)
            assert alpha_eq(owhole, whole)


def test_weak_head_oracle_is_one_descent(default_recursion_limit, monkeypatch):
    # the oracle tries each head-spine position once and plugs the whole
    # reduct only where a contraction fires; no path is walked from the
    # root again but that plug's
    calls = Counter()
    for name in ("step_top_named", "replace_at"):
        real = getattr(vkp.reduction, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(vkp.reduction, name, counting)
    real_frames = vkp.syntax._frames

    def frames_counting(t, path):
        for frame in real_frames(t, path):
            calls["frame"] += 1
            yield frame

    for module in (vkp.syntax, vkp.reduction):
        monkeypatch.setattr(module, "_frames", frames_counting)
    n = 4000
    t = Var("x")
    for _ in range(n):
        t = App(t, Var("a"))
    assert weak_head_redexes(t) == []
    assert calls["step_top_named"] <= n + 2
    assert calls["replace_at"] == calls["frame"] == 0
    # a hop over (fun x1 ... xn => x1) a ... a: the one redex is the beta
    # at the foot of the spine
    head = Var("x1")
    for i in reversed(range(1, n + 1)):
        head = Abs(f"x{i}", Disj(A, A), head)
    for _ in range(n):
        head = App(head, Var("a"))
    calls.clear()
    hop = Harrop("x", neg(B), head, "y", Var("y"), Var("y"))
    [(path, whole, rule)] = weak_head_redexes(hop, {"a": Disj(A, A)})
    assert calls["step_top_named"] <= n + 2
    assert calls["replace_at"] == 1 and calls["frame"] == n
    assert (path, rule) == ((0,) * n, "Beta")
    assert subterm_at(whole, path).binder == "x2"


def test_replay_step():
    t = App(Abs("x", A, Var("x")), Var("a"))
    good = TraceStep((), "Beta", t, Var("a"))
    assert replay_step(good, "IPC")
    bad_rule = TraceStep((), "Projection", t, Var("a"))
    assert not replay_step(bad_rule, "IPC")
    bad_after = TraceStep((), "Beta", t, Var("b"))
    assert not replay_step(bad_after, "IPC")


def test_replay_step_rejects_bad_path_and_calculus():
    t = App(Abs("x", A, Var("x")), Var("a"))
    assert not replay_step(TraceStep((1, 0), "Beta", t, Var("a")), "IPC")
    assert not replay_step(TraceStep((2,), "Beta", t, Var("a")), "IPC")
    hop = Harrop("x", neg(B), Inj(1, B, Var("a")), "y", Var("y"), Var("y"))
    step = TraceStep((), "Harrop-inj", hop, Abs("x", neg(B), Var("a")))
    assert replay_step(step, "KP", {"a": A})
    assert not replay_step(step, "IPC", {"a": A})


def test_replay_step_rejects_negative_path_index():
    # f ((fun (x : p) => x) y): the redex is child 1, and -1 names no child
    p = Atom("p")
    t = App(Var("f"), App(Abs("x", p, Var("x")), Var("y")))
    after = App(Var("f"), Var("y"))
    assert replay_step(TraceStep((1,), "Beta", t, after), "IPC")
    assert not replay_step(TraceStep((-1,), "Beta", t, after), "IPC")
    assert not replay_step(TraceStep((-2, 0), "Beta", t, after), "IPC")


def test_child_context_is_the_reducers_old_rule():
    # every child of every node of generated terms and their one-step
    # reducts; a branch's premise is typed as _context types it
    positions = 0
    for calc in CALCULI:
        for shape in CTX_SHAPES:
            for seed in range(60):
                try:
                    ctx, t, _ = generate_typed(calc, max_depth=6, atom_count=3,
                                               seed=seed, ctx_shape=shape)
                except GenerationFailed:
                    continue
                for u in [t] + [r for _, r in step_anywhere(t, calc, ctx)]:
                    todo = [(u, ctx)]
                    while todo:
                        node, cx = todo.pop()
                        for i, c in enumerate(children(node)):
                            premise = None
                            if i in (1, 2) and isinstance(node, (Case, Harrop, Visser)):
                                premise = infer(_child_context(node, 0, cx),
                                                children(node)[0], calc)
                            want = reference_child_context(node, i, cx, calc)
                            got = _child_context(node, i, cx, premise)
                            assert list(got.items()) == list(want.items()), (node, i)
                            todo.append((c, want))
                            positions += 1
    assert positions > 100_000, positions


# ------------------------------------------- contexts from frames


def _positions(t, ctx, calc):
    """(subterm, frames down to it, its context) for every position of t,
    the context folded down the path by the reference rule."""
    todo = [(t, (), ctx)]
    while todo:
        node, frames, cx = todo.pop()
        yield node, frames, cx
        for i, c in enumerate(children(node)):
            todo.append((c, frames + ((node, i),), reference_child_context(node, i, cx, calc)))


def _same_step(got, want) -> bool:
    """The same rule and alpha-equal reducts, or neither fires."""
    if got is None or want is None:
        return got is want
    return got[1] == want[1] and alpha_eq(got[0], want[0])


def test_step_top_named_reads_the_context_from_its_frames():
    # a position named by the root context and the frames down to it steps
    # as it does under the context folded down to it
    fired = Counter()
    for shape in ("any", "negated"):
        for depth in (5, 6):
            for seed in range(200):
                try:
                    ctx, t, _ = generate_typed("KP", max_depth=depth, atom_count=3,
                                               seed=seed, ctx_shape=shape)
                except GenerationFailed:
                    continue
                for sub, frames, cx in _positions(t, ctx, "KP"):
                    want = step_top_named(sub, "KP", cx)
                    assert _same_step(step_top_named(sub, "KP", ctx, frames), want), \
                        (shape, depth, seed, [i for _, i in frames])
                    if want and frames:
                        fired[want[1]] += 1
    assert fired["Harrop-efq"] > 100, fired


def _split_hop(x, main, left, right):
    """hop (x : ~B). main of { w => inj1 w | w => inj2 w }: from a main
    premise of left \\/ right, a proof of (~B -> left) \\/ (~B -> right)."""
    nl, nr = Impl(neg(B), left), Impl(neg(B), right)
    return Harrop(x, neg(B), main, "w", Inj(1, nr, Var("w")), Inj(2, nl, Var("w")))


def _efq_hop(payload):
    """A Harrop-efq redex whose exfalso payload is the given proof of falsum."""
    return _split_hop("x", Exfalso(Disj(A, C), payload), A, C)


def test_harrop_efq_reads_each_binder_kind_from_its_frames():
    # an exfalso hop whose payload needs the binder of an abstraction, a
    # case branch, a hop's main premise or a hop's branch
    ctx = {"a": A, "b": B, "d": Disj(A, A), "na": neg(A), "nb": neg(B), "nc": neg(C)}
    left, right = Impl(neg(B), A), Impl(neg(B), C)
    terms = {
        "abstraction": Abs("u", FALSUM, _efq_hop(Var("u"))),
        "case branch": Case(Var("d"), "z", _efq_hop(App(Var("na"), Var("z"))),
                            _efq_hop(App(Var("na"), Var("z")))),
        "hop main premise": _split_hop("x1", _efq_hop(App(Var("x1"), Var("b"))), left, right),
        "hop branch": Harrop("x1", neg(B), Inj(1, C, Var("a")), "y",
                             _efq_hop(App(Var("na"), App(Var("y"), Var("nb")))),
                             _efq_hop(App(Var("nc"), App(Var("y"), Var("nb"))))),
    }
    for name, t in terms.items():
        infer(ctx, t, "KP")
        efq = 0
        for sub, frames, cx in _positions(t, ctx, "KP"):
            want = step_top_named(sub, "KP", cx)
            assert _same_step(step_top_named(sub, "KP", ctx, frames), want), name
            if want and want[1] == "Harrop-efq":
                efq += 1
                with pytest.raises(UnknownVariable):  # the binder is not in ctx
                    step_top_named(sub, "KP", ctx)
        assert efq == (2 if name in ("case branch", "hop branch") else 1), name


# --------------------------------------------- the classes a rule can fire at

NH = Impl(Impl(A, A), FALSUM)  # h's formula, and the one visser binder's
ID = Abs("x", A, Var("x"))
# One small node per term class, to stand as child 0: each is closed under h.
CHILD0 = [
    Var("h"), App(Var("h"), ID), ID, Exfalso(Disj(A, B), App(Var("h"), ID)),
    Pair(Var("h"), Var("h")), Proj(1, Var("h")), Inj(1, B, Var("h")),
    Case(Var("h"), "y", Var("y"), Var("y")),
    Visser((("h", NH),), Var("h"), "y", Var("y"), Var("y"), "z", (Var("z"),)),
    Harrop("x", neg(B), Var("h"), "y", Var("y"), Var("y")),
]
# One node per class with a child 0, whose child 0 each of CHILD0 replaces.
PARENTS = [
    App(Var("h"), Var("h")), Abs("w", A, Var("h")), Exfalso(A, Var("h")),
    Pair(Var("h"), Var("h")), Proj(2, Var("h")), Inj(2, A, Var("h")),
    Case(Var("h"), "y", Var("y"), Var("y")),
    Visser((("h", NH),), Var("h"), "y", Var("y"), Var("y"), "z", (Var("z"),)),
    Harrop("x", neg(B), Var("h"), "y", Var("y"), Var("y")),
]
# The rule each (node class, child-0 class) pair fires; a visser outside V
# and a hop outside KP raise whatever their child 0, and every other pair
# is no redex.
FIRES = {(App, Abs): "Beta", (Proj, Pair): "Projection", (Case, Inj): "Case",
         (Visser, Inj): "Visser-inj", (Visser, Exfalso): "Visser-efq",
         (Visser, App): "Visser-app", (Harrop, Inj): "Harrop-inj",
         (Harrop, Exfalso): "Harrop-efq"}
GATED = {Visser: "V", Harrop: "KP"}
# sha256 of the repr of every answer below, in order, as the match over all
# five shapes gave it before the class test ruled non-redexes out
ANSWERS = "376fe2f962dbd1dc2cd4a754a18a44f4a9d783a8103f9ddd27bb9ea0f3419cf4"


def test_step_top_named_rules_out_non_redexes_by_class():
    h = hashlib.sha256()
    for calc in CALCULI:
        for parent in PARENTS:
            for c in CHILD0:
                t = with_children(parent, (c,) + children(parent)[1:])
                pair = (type(t), type(c))
                try:
                    got = step_top_named(t, calc, {"h": NH})
                except CalculusViolation:
                    assert GATED.get(type(t), calc) != calc, (pair, calc)
                    h.update(b"gated\n")
                    continue
                assert GATED.get(type(t), calc) == calc, (pair, calc)
                assert (got and got[1]) == FIRES.get(pair), (pair, calc)
                h.update((repr(got) + "\n").encode())
    assert h.hexdigest() == ANSWERS
    # no redex, and still gated
    with pytest.raises(CalculusViolation):
        step_top_named(PARENTS[-2], "IPC")
    with pytest.raises(CalculusViolation):
        step_top_named(PARENTS[-1], "V")
    assert step_top_named(PARENTS[-2], "V") is None
    assert step_top_named(PARENTS[-1], "KP") is None
