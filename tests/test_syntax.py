"""Substitution against an always-rename oracle, free variables, alpha."""

import dataclasses
import functools
import inspect
import itertools
import random

import pytest

import vkp.syntax
from substitute_reference import substitute as reference_substitute
from vkp.gen import CTX_SHAPES, GenerationFailed, generate_typed
from vkp.normalize import normalize_full
from vkp.parser import print_term
from vkp.syntax import (
    Abs, App, Atom, CALCULI, Case, Conj, Disj, Exfalso, FALSUM, Formula, Harrop,
    Impl, Inj, Pair, Proj, Term, Var, Visser, alpha_eq, children,
    free_vars, fresh_name, nameless, neg, replace_at, subterm_at, substitute,
    term_depth, term_size, with_children,
)
from vkp.typecheck import check, checks, infer

A = Atom("A")
B = Atom("B")
C = Atom("C")


def subst_oracle(t, x, s, fresh):
    """Substitution that renames every binder to a globally fresh name first.

    Capture is impossible by construction, so this is the reference
    substitute() is held against.
    """
    def rec(u, x, s):
        return subst_oracle(u, x, s, fresh)

    match t:
        case Var(n):
            return s if n == x else t
        case App(f, a):
            return App(rec(f, x, s), rec(a, x, s))
        case Pair(a, b):
            return Pair(rec(a, x, s), rec(b, x, s))
        case Proj(i, a):
            return Proj(i, rec(a, x, s))
        case Inj(i, o, a):
            return Inj(i, o, rec(a, x, s))
        case Exfalso(tg, a):
            return Exfalso(tg, rec(a, x, s))
        case Abs(y, ann, b):
            y2 = next(fresh)
            b = rec(b, y, Var(y2))
            return Abs(y2, ann, rec(b, x, s))
        case Case(sc, y, b1, b2):
            y2 = next(fresh)
            b1, b2 = rec(b1, y, Var(y2)), rec(b2, y, Var(y2))
            return Case(rec(sc, x, s), y2, rec(b1, x, s), rec(b2, x, s))
        case Harrop(xb, ann, m, y, b1, b2):
            x2, y2 = next(fresh), next(fresh)
            m = rec(m, xb, Var(x2))
            b1, b2 = rec(b1, y, Var(y2)), rec(b2, y, Var(y2))
            return Harrop(x2, ann, rec(m, x, s), y2, rec(b1, x, s), rec(b2, x, s))
        case Visser(bs, m, y, b1, b2, z, us):
            names2 = [next(fresh) for _ in bs]
            for (old, _), new in zip(bs, names2):
                m = rec(m, old, Var(new))
            y2, z2 = next(fresh), next(fresh)
            b1, b2 = rec(b1, y, Var(y2)), rec(b2, y, Var(y2))
            us = tuple(rec(u, z, Var(z2)) for u in us)
            return Visser(
                tuple((n, a) for n, (_, a) in zip(names2, bs)),
                rec(m, x, s), y2, rec(b1, x, s), rec(b2, x, s),
                z2, tuple(rec(u, x, s) for u in us))
    raise AssertionError(t)


def fv_reference(t):
    """Free variables straight from the definition, by recursion."""
    match t:
        case Var(n):
            return {n}
        case App(a, b) | Pair(a, b):
            return fv_reference(a) | fv_reference(b)
        case Abs(x, _, b):
            return fv_reference(b) - {x}
        case Exfalso(_, a) | Proj(_, a) | Inj(_, _, a):
            return fv_reference(a)
        case Case(sc, y, b1, b2):
            return fv_reference(sc) | ((fv_reference(b1) | fv_reference(b2)) - {y})
        case Harrop(x, _, m, y, b1, b2):
            return (fv_reference(m) - {x}) | ((fv_reference(b1) | fv_reference(b2)) - {y})
        case Visser(bs, m, y, b1, b2, z, us):
            out = fv_reference(m) - {n for n, _ in bs}
            out |= (fv_reference(b1) | fv_reference(b2)) - {y}
            for u in us:
                out |= fv_reference(u) - {z}
            return out
    raise AssertionError(t)


def fresh_stream():
    return (f"fr{i}" for i in itertools.count())


def rand_term(rng, depth, pool=("x", "y", "z", "w")):
    """Raw untyped terms; binders reuse the pool so shadowing happens."""
    if depth <= 0 or rng.random() < 0.25:
        return Var(rng.choice(pool))
    k = rng.randrange(9)
    sub = lambda: rand_term(rng, depth - 1, pool)
    if k == 0:
        return App(sub(), sub())
    if k == 1:
        return Abs(rng.choice(pool), A, sub())
    if k == 2:
        return Pair(sub(), sub())
    if k == 3:
        return Proj(rng.choice((1, 2)), sub())
    if k == 4:
        return Inj(rng.choice((1, 2)), B, sub())
    if k == 5:
        return Exfalso(A, sub())
    if k == 6:
        return Case(sub(), rng.choice(pool), sub(), sub())
    if k == 7:
        return Harrop(rng.choice(pool), Impl(B, FALSUM), sub(),
                      rng.choice(pool), sub(), sub())
    n = rng.choice((1, 2))
    names = rng.sample(pool, n)
    return Visser(tuple((nm, Impl(B, C)) for nm in names), sub(),
                  rng.choice(pool), sub(), sub(),
                  rng.choice(pool), tuple(sub() for _ in range(n)))


def test_substitute_base_cases():
    assert substitute(Var("x"), "x", Var("z")) == Var("z")
    assert substitute(Var("y"), "x", Var("z")) == Var("y")


def test_substitute_capture_avoidance_forced():
    # [x := y] under a binder named y must rename the binder
    t = Abs("y", A, App(Var("x"), Var("y")))
    r = substitute(t, "x", Var("y"))
    assert isinstance(r, Abs)
    assert r.binder != "y"
    assert r.body == App(Var("y"), Var(r.binder))
    assert alpha_eq(r, Abs("k", A, App(Var("y"), Var("k"))))


def test_substitute_shadowing_stops():
    # the binder shadows x, so nothing happens inside
    t = Abs("x", A, Var("x"))
    assert substitute(t, "x", Var("z")) == t


def test_substitute_into_harrop_main():
    t = Harrop("x", Impl(B, FALSUM), Var("w"), "y", Var("y"), Var("y"))
    s = Inj(1, C, Var("q"))
    r = substitute(t, "w", s)
    assert r == Harrop("x", Impl(B, FALSUM), s, "y", Var("y"), Var("y"))


def test_substitute_shared_case_binder_stays_shared():
    # both branches use the same stored binder; a rename must hit both
    t = Case(Var("d"), "y", App(Var("x"), Var("y")), Var("y"))
    r = substitute(t, "x", Var("y"))
    assert isinstance(r, Case)
    assert r.branch1 == App(Var("y"), Var(r.binder))
    assert r.branch2 == Var(r.binder)


def test_substitute_matches_oracle():
    rng = random.Random(11)
    for i in range(400):
        t = rand_term(rng, 4)
        x = rng.choice(("x", "y", "z", "w"))
        s = rand_term(rng, 2)
        mine = substitute(t, x, s)
        ref = subst_oracle(t, x, s, fresh_stream())
        assert alpha_eq(mine, ref), (i, t, x, s)


def test_substitute_distinct_names_same_alpha_class():
    # substituting into alpha-equal terms gives alpha-equal results
    rng = random.Random(12)
    for _ in range(200):
        t = rand_term(rng, 4)
        renamed = subst_oracle(t, "__none__", Var("__none__"), fresh_stream())
        assert alpha_eq(t, renamed)
        s = rand_term(rng, 2)
        assert alpha_eq(substitute(t, "x", s), substitute(renamed, "x", s))


def test_free_vars_simple():
    assert free_vars(Abs("x", A, Var("x"))) == set()
    assert free_vars(Abs("x", A, Var("y"))) == {"y"}
    assert free_vars(App(Var("x"), Var("y"))) == {"x", "y"}


def test_free_vars_visser_hand_walk():
    # x1 bound by the node, w is not; y and z bound in their branches
    t = Visser(
        (("x1", Impl(B, C)),),
        App(Var("x1"), Var("w")),
        "y", Var("y"), Var("y"),
        "z", (Var("z"),),
    )
    assert free_vars(t) == {"w"}


def test_free_vars_harrop():
    t = Harrop("x", Impl(B, FALSUM), App(Var("w"), Var("x")),
               "y", Var("y"), App(Var("y"), Var("u")))
    assert free_vars(t) == {"w", "u"}


def test_free_vars_substitute_interaction():
    rng = random.Random(13)
    for _ in range(200):
        t = rand_term(rng, 4)
        s = rand_term(rng, 2)
        r = substitute(t, "x", s)
        fv = free_vars(t)
        if "x" not in fv:
            assert alpha_eq(r, t)
        else:
            expect = (fv - {"x"}) | free_vars(s)
            assert free_vars(r) == expect


def test_free_vars_matches_reference():
    rng = random.Random(14)
    for _ in range(200):
        t = rand_term(rng, 5)
        r = substitute(t, rng.choice("xyzw"), rand_term(rng, 2))
        for u in (t, r, t, r):  # computed, then read back from the nodes
            fv = free_vars(u)
            assert isinstance(fv, frozenset)
            assert fv == fv_reference(u), u


def test_free_vars_of_a_subterm_shared_under_two_binders():
    # removing one parent's binder must not change the shared child's set,
    # whichever parent is asked first
    for first in (0, 1):
        s = Pair(App(Var("x"), Var("y")), Var("z"))
        t = Pair(Abs("x", A, s), Case(Var("d"), "y", s, Var("y")))
        want = ({"y", "z"}, {"d", "x", "z"})
        assert free_vars(children(t)[first]) == want[first]
        assert free_vars(t) == {"d", "x", "y", "z"}
        assert (free_vars(t.fst), free_vars(t.snd)) == want
        assert free_vars(s) == {"x", "y", "z"}


def test_free_vars_shares_a_childs_set():
    body = App(Var("f"), App(Var("g"), Var("y")))
    t = App(Var("f"), Abs("x", A, body))
    fv = free_vars(t)
    assert fv == {"f", "g", "y"}
    assert free_vars(t.arg) is fv and free_vars(body) is fv
    assert free_vars(Abs("y", A, body)) == {"f", "g"}
    assert free_vars(body) is fv


def test_cached_free_vars_leave_the_value_alone():
    # the same for the type infer keeps on a node
    pool = {n: A for n in ("x", "y", "z", "w")}
    for seed in range(50):
        t = rand_term(random.Random(seed), 4)
        twin = rand_term(random.Random(seed), 4)
        before = (hash(t), repr(t))
        free_vars(t)
        for calc in CALCULI:
            checks(pool, t, calculus=calc)
        assert (hash(t), repr(t)) == before
        assert t == twin and hash(t) == hash(twin)
        assert nameless(t) == nameless(twin)
    for calc in CALCULI:
        for seed in range(10):
            ctx, t, a = generate_typed(calc, max_depth=5, atom_count=3, seed=seed)
            _, twin, _ = generate_typed(calc, max_depth=5, atom_count=3, seed=seed)
            before = (hash(t), repr(t), nameless(t))
            check(ctx, t, a, calc)
            assert all(getattr(u, "_ty", None) for u in children(t) if type(u) is not Var)
            assert (hash(t), repr(t), nameless(t)) == before
            assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
    names = {
        Var: ("name",), App: ("fun", "arg"), Abs: ("binder", "annot", "body"),
        Exfalso: ("target", "arg"), Pair: ("fst", "snd"), Proj: ("index", "arg"),
        Inj: ("index", "other", "arg"),
        Case: ("scrutinee", "binder", "branch1", "branch2"),
        Visser: ("binders", "main", "case_binder", "branch1", "branch2",
                 "app_binder", "app_branches"),
        Harrop: ("binder", "annot", "main", "case_binder", "branch1", "branch2"),
    }
    for cls, fields in names.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields
        assert cls.__match_args__ == fields


def test_alpha_eq_basics():
    assert alpha_eq(Abs("x", A, Var("x")), Abs("y", A, Var("y")))
    assert not alpha_eq(Abs("x", A, Var("x")), Abs("x", B, Var("x")))
    assert not alpha_eq(Abs("x", A, Var("x")), Abs("x", A, Var("y")))
    # free variables are compared by name
    assert not alpha_eq(Var("x"), Var("y"))


def test_alpha_eq_visser_binder_order_matters():
    bs1 = (("a", Impl(A, B)), ("b", Impl(B, C)))
    bs2 = (("b", Impl(A, B)), ("a", Impl(B, C)))
    t1 = Visser(bs1, Var("a"), "y", Var("y"), Var("y"), "z", (Var("z"), Var("z")))
    t2 = Visser(bs2, Var("b"), "y", Var("y"), Var("y"), "z", (Var("z"), Var("z")))
    assert alpha_eq(t1, t2)
    t3 = Visser(bs2, Var("a"), "y", Var("y"), Var("y"), "z", (Var("z"), Var("z")))
    assert not alpha_eq(t1, t3)


def test_alpha_eq_matches_the_index_forms():
    rng = random.Random(11)
    fresh = fresh_stream()
    terms = [rand_term(rng, 4, ("x", "y")) for _ in range(200)]
    equal = 0
    for t in terms:
        renamed = subst_oracle(t, "unused", Var("unused"), fresh)
        assert alpha_eq(t, renamed) and alpha_eq(renamed, t)
        for u in rng.sample(terms, 8):
            want = nameless(t) == nameless(u)
            assert alpha_eq(t, u) == want == alpha_eq(renamed, u)
            equal += want
    assert 0 < equal < 200 * 8


def nameless_reference(t, env=()):
    """Textbook nested index form, by recursion: env lists the bound names,
    innermost last, and a bound variable becomes its distance from the end."""
    def rec(u, bound=()):
        return nameless_reference(u, env + bound)

    match t:
        case Var(n):
            return ("b", env[::-1].index(n)) if n in env else ("f", n)
        case App(f, a):
            return ("app", rec(f), rec(a))
        case Abs(x, a, b):
            return ("abs", a, rec(b, (x,)))
        case Exfalso(f, a):
            return ("efq", f, rec(a))
        case Pair(a, b):
            return ("pair", rec(a), rec(b))
        case Proj(i, a):
            return ("proj", i, rec(a))
        case Inj(i, o, a):
            return ("inj", i, o, rec(a))
        case Case(sc, y, b1, b2):
            return ("case", rec(sc), rec(b1, (y,)), rec(b2, (y,)))
        case Visser(bs, m, y, b1, b2, z, us):
            return ("visser", tuple(a for _, a in bs),
                    rec(m, tuple(n for n, _ in bs)), rec(b1, (y,)), rec(b2, (y,)),
                    tuple(rec(u, (z,)) for u in us))
        case Harrop(x, a, m, y, b1, b2):
            return ("hop", a, rec(m, (x,)), rec(b1, (y,)), rec(b2, (y,)))
    raise AssertionError(t)


def test_alpha_eq_and_nameless_match_the_reference():
    rng = random.Random(11)
    fresh = fresh_stream()
    terms = [rand_term(rng, 4, ("x", "y")) for _ in range(200)]
    equal = 0
    for t in terms:
        renamed = subst_oracle(t, "unused", Var("unused"), fresh)
        assert nameless_reference(renamed) == nameless_reference(t)
        for u in rng.sample(terms, 8):
            want = nameless_reference(t) == nameless_reference(u)
            for v in (t, renamed):
                assert alpha_eq(v, u) == want == alpha_eq(u, v), (v, u)
                assert (nameless(v) == nameless(u)) == want, (v, u)
            equal += want
    assert 0 < equal < 200 * 8


def test_nameless_distinguishes_bound_levels():
    t1 = Abs("x", A, Abs("y", A, Var("x")))
    t2 = Abs("x", A, Abs("y", A, Var("y")))
    assert nameless(t1) != nameless(t2)


def test_fresh_name():
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1"}) == "x2"
    assert fresh_name("x", {"x", "x1", "x2", "x4"}) == "x3"


def test_size_and_depth():
    t = App(Abs("x", A, Var("x")), Var("y"))
    assert term_size(t) == 4
    assert term_depth(t) == 3
    assert term_size(Var("x")) == 1
    assert term_depth(Var("x")) == 1


def _f_chain(n, end):
    """f (f (... end)), n applications deep."""
    for _ in range(n):
        end = App(Var("f"), end)
    return end


def test_term_size_deep(default_recursion_limit):
    assert term_size(_f_chain(3000, Var("y"))) == 2 * 3000 + 1


def test_free_vars_depth_and_nameless_deep(default_recursion_limit):
    t = _f_chain(3000, Abs("x", A, App(Var("x"), Var("y"))))
    assert free_vars(t) == {"f", "y"}
    assert term_depth(t) == 3000 + 3
    assert nameless(t) == ("app", "f", "f") * 3000 + ("abs", A, "app", "b", 0, "f", "y")


def test_nameless_deep_forms_compare_and_hash(default_recursion_limit):
    t = _f_chain(3000, Abs("x", A, Var("x")))
    twin = _f_chain(3000, Abs("z", A, Var("z")))
    n, m = nameless(t), nameless(twin)
    assert n == m and hash(n) == hash(m) and {n} == {m}
    assert alpha_eq(t, twin)
    assert not alpha_eq(t, _f_chain(3000, Abs("z", A, Var("f"))))


def test_alpha_eq_deep(default_recursion_limit):
    t = _f_chain(3000, Abs("x", A, App(Var("x"), Var("y"))))
    assert alpha_eq(t, _f_chain(3000, Abs("z", A, App(Var("z"), Var("y")))))
    assert not alpha_eq(t, _f_chain(3000, Abs("z", A, App(Var("z"), Var("w")))))
    assert not alpha_eq(t, _f_chain(3000, Abs("z", B, App(Var("z"), Var("y")))))
    assert not alpha_eq(t, _f_chain(2999, Abs("z", A, App(Var("z"), Var("y")))))


def _binder_chain(n, name):
    """fun (name0 : A) => ... fun (name{n-1} : A) => name0 name{n-1}."""
    t = App(Var(f"{name}0"), Var(f"{name}{n - 1}"))
    for i in reversed(range(n)):
        t = Abs(f"{name}{i}", A, t)
    return t


def test_binder_chain_deep(default_recursion_limit):
    n = 32_000
    t, renamed = _binder_chain(n, "x"), _binder_chain(n, "y")
    form = nameless(t)
    assert form == ("abs", A) * n + ("app", "b", n - 1, "b", 0)
    assert nameless(renamed) == form
    assert alpha_eq(t, renamed)
    assert not alpha_eq(t, _binder_chain(n - 1, "y"))
    shadowed = Var("z")
    for _ in range(n):
        shadowed = Abs("z", A, shadowed)
    assert nameless(shadowed) == ("abs", A) * n + ("b", 0)


def test_replace_at_deep(default_recursion_limit):
    t = _f_chain(3000, Var("y"))
    r = replace_at(t, (1,) * 3000, Var("z"))
    # walk both, since dataclass == recurses
    for _ in range(3000):
        assert isinstance(r, App) and r.fun is t.fun
        r, t = r.arg, t.arg
    assert r == Var("z")


def test_substitute_deep(default_recursion_limit):
    # the binder is renamed at the root, the variable replaced at the bottom
    n = 10_000
    t = Abs("x1", A, _f_chain(n, App(Var("w"), Var("x1"))))
    r = substitute(t, "w", Var("x1"))
    assert print_term(r) == "fun (x11 : A) => " + "f (" * n + "x1 x11" + ")" * n


def test_head_chain_normalizes_deep(default_recursion_limit):
    # (fun x1 ... xn => x1) a ... a, one beta step per binder
    n = 1000
    t = Var("x1")
    for i in reversed(range(1, n + 1)):
        t = Abs(f"x{i}", A, t)
    for _ in range(n):
        t = App(t, Var("a"))
    assert normalize_full(t, "IPC", {"a": A}) == Var("a")


def test_replace_at_shares_what_it_keeps():
    t = Pair(App(Var("f"), Var("x")), Var("y"))
    assert replace_at(t, (0, 1), t.fst.arg) is t
    r = replace_at(t, (0, 1), Var("z"))
    assert r == Pair(App(Var("f"), Var("z")), Var("y"))
    assert r.snd is t.snd and r.fst.fun is t.fst.fun


def test_constructor_validation():
    bad = [
        (lambda: Visser((), Var("x"), "y", Var("y"), Var("y"), "z", ()),
         "visser needs at least one binder"),
        (lambda: Visser((("a", Atom("A")),), Var("a"), "y", Var("y"), Var("y"),
                        "z", (Var("z"),)),
         "visser binder a must be annotated with an implication"),
        (lambda: Visser((("a", Impl(A, B)), ("a", Impl(A, B))), Var("a"),
                        "y", Var("y"), Var("y"), "z", (Var("z"), Var("z"))),
         "visser binder names must be distinct: ['a', 'a']"),
        (lambda: Visser((("a", Impl(A, B)),), Var("a"), "y", Var("y"), Var("y"),
                        "z", (Var("z"), Var("z"))),
         "visser has 1 binders but 2 app branches"),
        (lambda: Harrop("x", Atom("B"), Var("x"), "y", Var("y"), Var("y")),
         "hop binder must be annotated with a negation"),
        (lambda: Proj(3, Var("x")), "projection index must be 1 or 2, got 3"),
        (lambda: Inj(0, A, Var("x")), "injection index must be 1 or 2, got 0"),
    ]
    for build, message in bad:
        with pytest.raises(ValueError) as e:
            build()
        assert str(e.value) == message


# ------------------------------------------------------------ shape table

H1, H2 = Impl(A, B), Impl(B, C)
# One sample per term class, with its children in child-index order and the
# names bound in each child: the convention reduction paths count in.
LAYOUT = [
    (Var("v"), (), []),
    (App(Var("f"), Var("a")), (Var("f"), Var("a")), [(), ()]),
    (Abs("x", A, Var("x")), (Var("x"),), [("x",)]),
    (Exfalso(A, Var("b")), (Var("b"),), [()]),
    (Pair(Var("a"), Var("b")), (Var("a"), Var("b")), [(), ()]),
    (Proj(1, Var("p")), (Var("p"),), [()]),
    (Inj(2, B, Var("a")), (Var("a"),), [()]),
    (Case(Var("d"), "y", Var("y"), Var("c")),
     (Var("d"), Var("y"), Var("c")), [(), ("y",), ("y",)]),
    (Visser((("h1", H1), ("h2", H2)), Var("m"), "y", Var("y"), Var("c"),
            "z", (Var("z"), Var("u"))),
     (Var("m"), Var("y"), Var("c"), Var("z"), Var("u")),
     [("h1", "h2"), ("y",), ("y",), ("z",), ("z",)]),
    (Harrop("x", neg(B), Var("m"), "y", Var("y"), Var("c")),
     (Var("m"), Var("y"), Var("c")), [("x",), ("y",), ("y",)]),
]


def test_every_node_is_built_as_a_frozen_dataclass_of_its_fields():
    formulas = [A, FALSUM, Impl(A, B), Conj(A, B), Disj(A, B)]
    nodes = formulas + [t for t, _, _ in LAYOUT]
    assert {type(n) for n in nodes} == {
        c for c in vars(vkp.syntax).values() if isinstance(c, type)
        and issubclass(c, (Term, Formula)) and c not in (Term, Formula)}
    for n in nodes:
        cls, fs = type(n), dataclasses.fields(n)
        values = [getattr(n, f.name) for f in fs]
        by_position, by_name = cls(*values), cls(**{f.name: v for f, v in zip(fs, values)})
        assert by_position == by_name == n
        assert repr(by_position) == repr(by_name) == repr(n)
        assert hash(by_position) == hash(by_name) == hash(n)
        for f in fs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(n, f.name, values[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(n, f.name)
        params = inspect.signature(cls).parameters
        assert [(p, params[p].annotation) for p in params] == [(f.name, f.type) for f in fs]
        assert cls.__match_args__ == tuple(params)
        # the class's own docstring, or the dataclass text of its fields
        text = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
        assert cls.__doc__ == text or not cls.__doc__.startswith(cls.__name__ + "(")
        if fs:  # every class but Falsum
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) missing"):
                cls()
        if isinstance(n, Term):  # a new node has none of the hidden slots yet
            assert not any(hasattr(by_position, s) for s in ("_ty", "_scope", "_fv")), cls
    t = App(Abs("x", A, Var("x")), Var("a"))
    free_vars(t)
    assert hasattr(t, "_fv") and not hasattr(t, "_ty")
    infer({"a": A}, t)
    assert t._ty == A and t._scope[0] == "IPC"


def test_shape_table_has_a_row_per_term_class():
    classes = {c for c in vars(vkp.syntax).values()
               if isinstance(c, type) and issubclass(c, Term) and c is not Term}
    assert set(vkp.syntax._SHAPES) == classes
    assert {type(t) for t, _, _ in LAYOUT} == classes


def test_shape_table_states_the_child_index_convention():
    for t, kids, bound in LAYOUT:
        assert children(t) == kids
        groups = vkp.syntax._SHAPES[type(t)].groups(t)
        assert [names for i in range(len(kids))
                for names, scoped in groups if i in scoped] == bound
        assert with_children(t, children(t)) == t
        # the binder groups partition the child indices, in order
        assert [i for _, scoped in groups for i in scoped] == list(range(len(kids)))


def test_table_readers_reject_a_non_term():
    for call in (lambda: children(A), lambda: with_children(A, ()),
                 lambda: free_vars(A), lambda: substitute(A, "x", Var("y")),
                 lambda: nameless(A)):
        with pytest.raises(TypeError, match="not a term"):
            call()


def test_subterm_at_rejects_an_index_that_names_no_child():
    t = Pair(Var("a"), Var("b"))
    for path in ((-1,), (2,), (0, 0)):
        with pytest.raises(IndexError, match="no child"):
            subterm_at(t, path)
        with pytest.raises(IndexError, match="no child"):
            replace_at(t, path, Var("c"))
    assert subterm_at(t, (1,)) is t.snd


# ------------------------------------------------ substitution, by the table


def _bound_names(t):
    """Every name some node of t binds, read from the fields."""
    out, stack = set(), [t]
    while stack:
        u = stack.pop()
        stack += children(u)
        match u:
            case Abs(x) | Case(_, x):
                out.add(x)
            case Harrop(x, _, _, y):
                out |= {x, y}
            case Visser(bs, _, y, _, _, z):
                out |= {n for n, _ in bs} | {y, z}
    return out


def _substitution_cases():
    """Generated IPC/V/KP terms over the three context shapes, each name
    free or bound in them, and replacements that capture: a variable named
    after each binder, and one term naming every binder at once."""
    for calc in CALCULI:
        for shape in CTX_SHAPES:
            for seed in range(40):
                try:
                    _, t, _ = generate_typed(calc, max_depth=5, atom_count=3,
                                             seed=seed, ctx_shape=shape)
                except GenerationFailed:
                    continue
                bound = sorted(_bound_names(t))
                every = functools.reduce(App, map(Var, bound), Var("k"))
                for x in sorted(free_vars(t)) + bound:
                    for s in [Var(b) for b in bound] + [every]:
                        yield t, x, s


def test_substitute_names_binders_as_the_match_based_one():
    cases = changed = renamed = 0
    for t, x, s in _substitution_cases():
        got, want = substitute(t, x, s), reference_substitute(t, x, s)
        cases += 1
        if got is want:  # both left t as it is
            continue
        assert repr(got) == repr(want), (print_term(t), x, s)
        changed += 1
        renamed += not _bound_names(want) <= _bound_names(t)
    assert cases > 100_000 and changed > 2000 and renamed > 800, \
        (cases, changed, renamed)
