"""Grammar, precedence, positioned errors, scripts, and round-trips."""

import random

import pytest

import vkp.parser

from vkp.gen import generate_typed
from vkp.parser import (
    ParseError, parse_formula, parse_script, parse_term, print_formula,
    print_term,
)
from vkp.syntax import (
    Abs, App, Atom, Case, Conj, Disj, FALSUM, Impl, Inj, Pair, Proj, Var,
    Visser, alpha_eq,
)


def test_formula_basics():
    assert parse_formula("A -> A") == Impl(Atom("A"), Atom("A"))
    assert parse_formula("A -> B -> C") == Impl(Atom("A"), Impl(Atom("B"), Atom("C")))
    assert parse_formula("False") == FALSUM
    assert parse_formula("~A") == Impl(Atom("A"), FALSUM)


def test_harrop_antecedent_shape():
    got = parse_formula("~B -> A1 \\/ A2")
    want = Impl(Impl(Atom("B"), FALSUM), Disj(Atom("A1"), Atom("A2")))
    assert got == want


def test_precedence():
    # ~ binds tightest, then /\, then \/, then ->
    assert parse_formula("~A /\\ B") == Conj(Impl(Atom("A"), FALSUM), Atom("B"))
    assert parse_formula("A /\\ B \\/ C") == Disj(Conj(Atom("A"), Atom("B")), Atom("C"))
    assert parse_formula("A \\/ B -> C") == Impl(Disj(Atom("A"), Atom("B")), Atom("C"))
    assert parse_formula("A -> B \\/ C") == Impl(Atom("A"), Disj(Atom("B"), Atom("C")))
    assert parse_formula("(A -> B) -> C") == Impl(Impl(Atom("A"), Atom("B")), Atom("C"))


def test_term_basics():
    assert parse_term("fun (x : A) => x") == Abs("x", Atom("A"), Var("x"))
    assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))
    assert parse_term("(x, y)") == Pair(Var("x"), Var("y"))
    assert parse_term("proj1 p") == Proj(1, Var("p"))
    assert parse_term("inj2[B] x") == Inj(2, Atom("B"), Var("x"))
    assert parse_term("(x)") == Var("x")


def test_prefix_operators_chain():
    assert parse_term("proj1 proj2 p") == Proj(1, Proj(2, Var("p")))
    # prefix binds tighter than application: f (proj1 p) needs parens
    assert parse_term("f (proj1 p)") == App(Var("f"), Proj(1, Var("p")))


def test_case_term():
    t = parse_term("case d of { x => inj2[q] x | x => inj1[p] x }")
    assert t == Case(Var("d"), "x", Inj(2, Atom("q"), Var("x")),
                     Inj(1, Atom("p"), Var("x")))


def test_case_branches_must_share_binder_name():
    with pytest.raises(ParseError):
        parse_term("case d of { x => x | y => y }")


def test_visser_term():
    t = parse_term(
        "visser (x1 : B -> C). inj1[A2] t of { y => s1 | y => s2 | z => u1 }"
    )
    assert t == Visser(
        (("x1", Impl(Atom("B"), Atom("C"))),),
        Inj(1, Atom("A2"), Var("t")),
        "y", Var("s1"), Var("s2"),
        "z", (Var("u1"),),
    )


def test_visser_arity_mismatch():
    with pytest.raises(ParseError) as e:
        parse_term("visser (x1 : B -> C, x2 : C -> A). inj1[A2] x1 of"
                   " { y => s1 | y => s2 | z => u1 }")
    assert "branch" in str(e.value) or "arity" in str(e.value)


def test_harrop_principle_term_parses():
    t = parse_term(
        "fun (w : ~B -> A1 \\/ A2) => hop (x : ~B). w x of"
        " { y => inj1[~B -> A2] y | y => inj2[~B -> A1] y }"
    )
    assert isinstance(t, Abs)
    assert t.binder == "w"


def test_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_formula("A -> ")
    assert e.value.line == 1 and e.value.col > 1
    with pytest.raises(ParseError) as e:
        parse_term("fun (x : A) -> x")  # wrong arrow
    assert "=>" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_formula("A /\\\n  -> B")
    assert e.value.line == 2


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_formula("A B")
    with pytest.raises(ParseError):
        parse_term("x )")


def test_print_formula_examples():
    a = Impl(Impl(Atom("B"), FALSUM), Disj(Atom("A1"), Atom("A2")))
    assert print_formula(a) == "~B -> A1 \\/ A2"
    assert print_formula(Impl(Atom("A"), Atom("A"))) == "A -> A"
    assert print_formula(FALSUM) == "False"


def test_print_term_examples():
    assert print_term(Abs("x", Atom("A"), Var("x"))) == "fun (x : A) => x"
    assert print_term(Proj(1, Var("p"))) == "proj1 p"


def test_print_minimal_parens():
    # application of an abstraction needs parens; plain spine does not
    t = App(Abs("x", Atom("A"), Var("x")), Var("y"))
    s = print_term(t)
    assert s == "(fun (x : A) => x) y"
    assert parse_term(s) == t
    f = Impl(Impl(Atom("A"), Atom("B")), Atom("C"))
    assert print_formula(f) == "(A -> B) -> C"
    assert parse_formula(print_formula(f)) == f


def test_comments_and_whitespace():
    src = """
-- a comment line
fun (x : A) -- trailing note
  => x
"""
    assert parse_term(src) == Abs("x", Atom("A"), Var("x"))


def test_token_positions_follow_offsets():
    # the text is built piece by piece, so each token's offset is known
    # without the tokenizer; line and column are worked out from it
    rng = random.Random(5)
    words = ["fun", "x", "A_1", "(", ")", ":", "=>", "->", "/\\", "\\/", ":=",
             "~", "{", "|", "}", ",", ".", "[", "]", "def", "hop", "y2"]
    gaps = [" ", "\t", "\n", "\r\n", "\n\n\t", " -- note => x\r\n",
            "-- c (\n", "\t\r\n  ", "  -- --\n\n"]
    text, want = "", []
    for _ in range(600):
        text += rng.choice(gaps)
        w = rng.choice(words)
        want.append((w, len(text)))
        text += w
    text += "\n -- the end"

    def at(offset, text=text):
        return text[:offset].count("\n") + 1, offset - text.rfind("\n", 0, offset)

    toks = vkp.parser.tokenize(text)
    assert [(t.value, t.line, t.col) for t in toks[:-1]] == [(w, *at(o)) for w, o in want]
    assert (toks[-1].kind, toks[-1].line, toks[-1].col) == ("eof", *at(len(text)))
    for stray in ("@", "\\", "-"):
        bad = text + "\r\n\t" + stray + " x"
        with pytest.raises(ParseError) as e:
            vkp.parser.tokenize(bad)
        assert (e.value.line, e.value.col) == at(len(text) + 3, bad)


def test_script_basics():
    src = """
calculus KP

def idp : p -> p := fun (x : p) => x
def use_idp : p -> p := idp
"""
    decls = parse_script(src)
    assert [d.name for d in decls] == ["idp", "use_idp"]
    assert all(d.calculus == "KP" for d in decls)
    # earlier declarations are inlined into later bodies
    assert decls[1].body == Abs("x", Atom("p"), Var("x"))


def test_script_empty():
    assert parse_script("") == []
    assert parse_script("-- only a comment\n") == []


def test_script_default_calculus_is_ipc():
    decls = parse_script("def idp : p -> p := fun (x : p) => x")
    assert decls[0].calculus == "IPC"


def test_script_duplicate_names_rejected():
    src = "def a : p -> p := fun (x : p) => x\ndef a : p -> p := fun (x : p) => x"
    with pytest.raises(ParseError):
        parse_script(src)


def test_script_inlines_only_earlier_names_the_body_uses(monkeypatch):
    # a definition that names a later one keeps it free: inlining `a` into
    # `c` must not let the later `b` capture it
    src = ("def a : p -> p := b\n"
           "def b : p -> p := fun (x : p) => x\n"
           "def c : p -> p := a")
    assert [d.body for d in parse_script(src)] == [
        Var("b"), Abs("x", Atom("p"), Var("x")), Var("b"),
    ]
    calls = 0
    substitute = vkp.parser.substitute

    def counting(*args):
        nonlocal calls
        calls += 1
        return substitute(*args)

    monkeypatch.setattr(vkp.parser, "substitute", counting)
    flat = "".join(f"def d{i} : p -> p := fun (x : p) => x\n" for i in range(400))
    assert len(parse_script(flat)) == 400
    assert calls == 0


def test_script_looks_up_definitions_as_the_free_variable_rule_does(monkeypatch):
    import parser_reference
    p = Atom("p")
    scripts = {
        # a definition's name used only as a later binder is left alone
        "def a : p -> p := fun (x : p) => x\n"
        "def b : p -> p := fun (a : p) => a":
            [Abs("x", p, Var("x")), Abs("a", p, Var("a"))],
        # the later b that a names stays free in c, past c's binder b
        "def a : p -> p := b\n"
        "def b : p -> p := fun (x : p) => x\n"
        "def c : p -> p := fun (b : p) => a":
            [Var("b"), Abs("x", p, Var("x")), Abs("b1", p, Var("b"))],
        # n names itself, so m's body leaves n free; c binds n and uses m,
        # and the n that m brings in is not inlined again
        "def n : p := f n\n"
        "def m : p := n\n"
        "def c : p -> p := fun (n : p) => m":
            [App(Var("f"), Var("n")), App(Var("f"), Var("n")),
             Abs("n1", p, App(Var("f"), Var("n")))],
    }
    for text, bodies in scripts.items():
        assert [d.body for d in parse_script(text)] == bodies, text
        assert parse_script(text) == parser_reference.parse_script(text), text

    calls = 0
    free_vars = vkp.parser.free_vars

    def counting(t):
        nonlocal calls
        calls += 1
        return free_vars(t)

    monkeypatch.setattr(vkp.parser, "free_vars", counting)
    flat = "".join(f"def d{i} : p -> p := fun (x : p) => x\n" for i in range(100))
    assert len(parse_script(flat)) == 100
    assert calls == 0


def test_script_bad_calculus_rejected():
    with pytest.raises(ParseError):
        parse_script("calculus XX\ndef a : p -> p := fun (x : p) => x")


def test_roundtrip_formulas_generated():
    import random
    from vkp.gen import _formula, ATOM_NAMES
    rng = random.Random(31)
    for _ in range(300):
        a = _formula(rng, rng.randint(0, 4), ATOM_NAMES[:4])
        assert parse_formula(print_formula(a)) == a


def _print_formula_recursive(a, prec=0):
    """print_formula as it was written before it was made iterative."""
    match a:
        case Atom(n):
            return n
        case Impl(l, r) if r == FALSUM:
            return "~" + _print_formula_recursive(l, 3)
        case Impl(l, r):
            out = f"{_print_formula_recursive(l, 1)} -> {_print_formula_recursive(r, 0)}"
            return f"({out})" if prec > 0 else out
        case Disj(l, r):
            out = f"{_print_formula_recursive(l, 1)} \\/ {_print_formula_recursive(r, 2)}"
            return f"({out})" if prec > 1 else out
        case Conj(l, r):
            out = f"{_print_formula_recursive(l, 2)} /\\ {_print_formula_recursive(r, 3)}"
            return f"({out})" if prec > 2 else out
    return "False"


def test_print_formula_matches_recursive_printer():
    import random
    from vkp.gen import _formula, ATOM_NAMES
    from vkp.syntax import neg
    rng = random.Random(77)
    for _ in range(2000):
        a = _formula(rng, rng.randint(0, 5), ATOM_NAMES[:3])
        if rng.random() < 0.3:
            a = neg(Conj(a, neg(a)) if rng.random() < 0.5 else a)
        for prec in range(4):
            assert print_formula(a, prec) == _print_formula_recursive(a, prec)
    with pytest.raises(TypeError):
        print_formula(Var("x"))


def test_print_formula_keeps_a_text_for_any_context():
    # a printed formula keeps its bare text; later prints in any context,
    # in any order, must read as if printed afresh
    from vkp.gen import _formula, ATOM_NAMES
    from vkp.syntax import neg
    rng = random.Random(78)
    corpus = []
    for _ in range(500):
        a = _formula(rng, rng.randint(0, 5), ATOM_NAMES[:3])
        corpus.append(neg(a) if rng.random() < 0.3 else a)
    calls = [(a, prec) for a in corpus for prec in range(4)]
    rng.shuffle(calls)
    for a, prec in calls:
        assert print_formula(a, prec) == _print_formula_recursive(a, prec)

    shared = Conj(Atom("p"), Impl(Atom("q"), Atom("r")))
    t = Abs("x", shared, Inj(1, shared, Pair(Var("x"), Var("x"))))
    assert print_term(t) == "fun (x : p /\\ (q -> r)) => inj1[p /\\ (q -> r)] (x, x)"
    assert print_formula(shared, 3) == "(p /\\ (q -> r))"
    assert print_formula(shared, 2) == "p /\\ (q -> r)"


def test_print_formula_deep_implications(default_recursion_limit):
    p, q = Atom("p"), Atom("q")
    right, left, left_text = p, p, "p"
    for i in range(1000):
        right = Impl(q, right)
        left = Impl(left, q)
        left_text = f"({left_text}) -> q" if i else "p -> q"
    assert print_formula(right) == "q -> " * 1000 + "p"
    assert print_formula(left) == left_text
    deep_neg = p
    for _ in range(1000):
        deep_neg = Impl(deep_neg, FALSUM)
    assert print_formula(deep_neg) == "~" * 1000 + "p"


def test_roundtrip_terms_generated():
    for seed in range(120):
        cal = ("IPC", "KP", "V")[seed % 3]
        ctx, t, a = generate_typed(cal, max_depth=6, atom_count=4, seed=seed)
        assert alpha_eq(parse_term(print_term(t)), t), seed
