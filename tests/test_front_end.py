"""The front end against the parser it replaced, on the command line, and
at depth.

tests/parser_reference.py holds the recursive-descent parser and the
one-token-at-a-time tokenizer as they stood before the scanner and the
explicit-stack parser.  Every input here, valid or mutated, must give the
same trees, declarations and tokens from both, or the same ParseError:
message, line, column and expected tuple.
"""

import functools
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import parser_reference as reference
from vkp.cli import main
from vkp.gen import GenerationFailed, _formula, generate_typed
from vkp.parser import (
    ParseError, parse_formula, parse_script, parse_term, print_formula,
    print_term, tokenize,
)
from vkp.syntax import Abs, Atom, Impl

ROOT = Path(__file__).resolve().parent.parent
ATOMS = ("p", "q", "r")
# a piece of text the mutations move around as one token
PIECE = r"--[^\n]*|:=|->|=>|/\\|\\/|[A-Za-z_][A-Za-z0-9_]*|\S"
STRAYS = "@#$%&*+-=/\\!?'\"0é\x00"
# \s matches all of these, and only \n starts a line
SPACES = (" ", "\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ",
          "\r\n", "\n -- a comment\n")


def _closed(ctx, t, a):
    """ctx |- t : a as a closed term and its type."""
    for name, b in reversed(list(ctx.items())):
        t, a = Abs(name, b, t), Impl(b, a)
    return t, a


def _generated(rng, calculus, depth):
    """A closed generated term of the calculus and its type, or None."""
    try:
        ctx, t, a = generate_typed(calculus, max_depth=depth, atom_count=3,
                                   seed=rng.randrange(10**6))
    except GenerationFailed:
        return None
    return _closed(ctx, t, a)


def _scripts(rng):
    """Valid scripts: generated terms, flat and doubling shapes, and
    hand-written error cases of every kind the parser reports."""
    out = []
    for k in range(30):
        calculus = ("IPC", "KP", "V")[k % 3]
        lines = [f"-- generated, {calculus}", f"calculus {calculus}"]
        for j in range(rng.randint(1, 4)):
            made = _generated(rng, calculus, rng.randint(2, 5))
            if made is not None:
                t, a = made
                lines.append(f"def g{j} : {print_formula(a)} :=\n  {print_term(t)}")
                if rng.random() < 0.5:
                    lines.append(f"def use{j} : {print_formula(a)} := g{j}")
        out.append("\n".join(lines) + "\n")
    for n in (3, 6, 12):
        defs = []
        for i in range(n):
            a = print_formula(_formula(rng, 2, ATOMS))
            defs.append(f"def f{i} : {a} -> {a} := fun (x : {a}) => x")
        out.append("calculus IPC\n" + "\n".join(defs) + "\n")
        src = ["calculus IPC", "def d0 : p -> p := fun (x : p) => x"]
        src += [f"def d{k} : p -> p := fun (x : p) => d{k - 1} (d{k - 1} x)"
                for k in range(1, n)]
        out.append("\n".join(src))
    out += [
        "def a : p := case d of { x => x | y => y }",
        "def a : p := hop (x : p). w x of { y => y | y => y }",
        "calculus V\ndef a : p := visser (x : p). m of { y => y | y => y | z => z }",
        "calculus V\ndef a : p := visser (x : p -> q, x : q -> p). m"
        " of { y => y | y => y | z => z | z => z }",
        "calculus V\ndef a : p := visser (x : p -> q). m of { y => y | y => y }",
        "calculus V\ndef a : p := visser (x : p -> q). m of { y => y | y => y | z => z | w => w }",
        "def a : p := x\ndef a : p := y",
        "calculus XX\ndef a : p := x",
        "def a : ~~(p /\\ q \\/ r) -> (p) := exfalso[p] (proj1 (inj2[q] x, proj2 y) z)",
    ]
    return out


def _terms(rng):
    out = []
    for k in range(45):
        made = _generated(rng, ("IPC", "KP", "V")[k % 3], rng.randint(1, 5))
        if made is not None:
            out.append(print_term(made[0]))
    return out


def _formulas(rng):
    return [print_formula(_formula(rng, rng.randint(0, 4), ATOMS)) for _ in range(40)]


def _mutate(rng, text):
    """text after one to three token-level edits."""
    for _ in range(rng.randint(1, 3)):
        spans = [m.span() for m in re.finditer(PIECE, text)]
        op = rng.randrange(6)
        if op < 3 and len(spans) < 2:
            op = 3
        if op == 0:  # delete a token
            s, e = rng.choice(spans)
            text = text[:s] + text[e:]
        elif op == 1:  # duplicate a token
            s, e = rng.choice(spans)
            text = text[:e] + rng.choice(("", " ")) + text[s:e] + text[e:]
        elif op == 2:  # swap two tokens
            j = rng.randrange(len(spans) - 1)
            (s1, e1), (s2, e2) = spans[j], spans[rng.randint(j + 1, min(j + 3, len(spans) - 1))]
            text = text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:]
        else:  # a stray character, or whitespace, anywhere
            at = rng.randint(0, len(text))
            extra = rng.choice(STRAYS if op == 3 else SPACES)
            text = text[:at] + extra + text[at:]
    return text


@functools.lru_cache(maxsize=None)
def corpus():
    """(entry point name, text) pairs: the valid inputs, and thirty to fifty
    mutations of each."""
    rng = random.Random(2001)
    bases = [("script", p.read_text()) for p in sorted((ROOT / "proofs").glob("*.vkp"))]
    bases += [("script", s) for s in _scripts(rng)]
    bases += [("term", t) for t in _terms(rng)]
    bases += [("formula", f) for f in _formulas(rng)]
    out = list(bases)
    for kind, text in bases:
        out += [(kind, _mutate(rng, text)) for _ in range(rng.randint(30, 50))]
    return tuple(out)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return ("ParseError", str(e), e.line, e.col, e.expected)


PARSERS = {
    "script": (parse_script, reference.parse_script),
    "term": (parse_term, reference.parse_term),
    "formula": (parse_formula, reference.parse_formula),
}


def test_parser_matches_reference_parser():
    cases = corpus()
    assert len(cases) >= 5000
    errors = set()
    for n, (kind, text) in enumerate(cases):
        new, old = PARSERS[kind]
        got, want = _outcome(new, text), _outcome(old, text)
        assert got == want, (kind, text)
        if n % 4 == 0:  # the tokens' positions, on a share of the cases
            assert _outcome(tokenize, text) == _outcome(reference.tokenize, text), text
        if type(got) is tuple:
            errors.add(got[1].partition(": ")[2].split(" ")[0])
    # every kind of error was met: stray, unexpected, visser, branches,
    # duplicate, unknown, and the hop annotation's
    assert {"stray", "unexpected", "visser", "branches", "duplicate", "unknown",
            "hop"} <= errors


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_cli_on_mutated_scripts(tmp_path, default_recursion_limit):
    # every command gives a documented exit code (cli.py: 0, 1 or 2) and
    # no traceback, whatever the script holds
    rng = random.Random(3)
    scripts = [text for kind, text in corpus() if kind == "script"]
    formulas = [text for kind, text in corpus() if kind == "formula"]
    codes = set()
    for n, text in enumerate(rng.sample(scripts, 80)):
        path = tmp_path / f"s{n}.vkp"
        path.write_text(text, encoding="utf-8")
        name = rng.choice(re.findall(r"\bdef\s+(\w+)", text) or ["g0"])
        for argv in (["check", str(path)], ["normalize", str(path), name],
                     ["normalize", str(path), name, "--json"],
                     ["extract", str(path), name],
                     ["prove", rng.choice(formulas)]):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err
            codes.add(code)
    assert codes == {0, 1, 2}


# ------------------------------------------------------------ depth

N = 10_000


def test_formulas_parse_at_any_depth(default_recursion_limit):
    assert parse_formula("(" * N + "p" + ")" * N) == Atom("p")
    for text in (" -> ".join(["p"] * N), "~" * N + "p",
                 "(" * (N - 1) + "p" + " -> p)" * (N - 1) + " -> p",
                 " /\\ ".join(["p"] * N)):
        assert print_formula(parse_formula(text)) == text


def test_terms_parse_and_print_at_any_depth(default_recursion_limit):
    for text in ("f (" * (N - 1) + "f x" + ")" * (N - 1),
                 "fun (x : p) => " * N + "x",
                 "case " * N + "x" + " of { y => y | y => y }" * N,
                 "case x of { y => " * N + "y" + " | y => y }" * N,
                 "proj1 " * N + "x",
                 "(" * N + "x" + ", y)" * N):
        assert print_term(parse_term(text)) == text


def test_check_and_normalize_a_deep_script(tmp_path, default_recursion_limit):
    # a body nesting applications N deep; as it is, through an inlined
    # definition, under a beta redex and under a case on an injection, each
    # script normalizes to that body by the contractions listed
    deep = "f (" * (N - 1) + "f {}" + ")" * (N - 1)
    body = "fun (f : p -> p) => fun (x : p) => " + deep.format("x")
    ty = "(p -> p) -> p -> p"
    scripts = {
        "nest": (body, []),
        "use": (f"fun (f : p -> p) => fun (x : p) => {deep.format('(id x)')}", ["Beta"]),
        "redex": (f"fun (f : p -> p) => fun (x : p) => (fun (z : p) => {deep.format('z')}) x",
                  ["Beta"]),
        "branch": ("fun (f : p -> p) => fun (x : p) => case inj1[q] x of "
                   f"{{ z => {deep.format('z')} | z => x }}", ["Case"]),
    }
    for name, (text, rules) in scripts.items():
        path = tmp_path / f"{name}.vkp"
        path.write_text(f"calculus IPC\ndef id : p -> p := fun (y : p) => y\n"
                        f"def {name} : {ty} := {text}\n")
        assert _run(["check", str(path)]) == (
            0, f"id : OK (p -> p)\n{name} : OK ({ty})\n", ""), name
        assert _run(["normalize", str(path), name]) == (0, body + "\n", ""), name
        code, out, err = _run(["normalize", str(path), name, "--trace", "--json"])
        assert (code, err) == (0, ""), name
        got = json.loads(out)
        assert got["normalForm"] == body, name
        assert [s["rule"] for s in got["steps"]] == rules, name


def test_extract_and_other_strategies_on_a_deep_script(tmp_path, default_recursion_limit):
    # extract, the KP head strategy and evalV each reach a body nesting
    # applications N deep through one contraction or more, and print it
    deep = "f (" * (N - 1) + "f {}" + ")" * (N - 1)
    ty = "(p -> p) -> p -> p"
    body = "fun (f : p -> p) => fun (x : p) => " + deep.format("x")
    scripts = {
        # a beta redex over the deep body, then one for each of its N applications
        "extract": ("KP", "ex : (p -> p) \\/ q",
                    f"inj1[q] (({body}) (fun (z : p) => z))",
                    ["extract"], "Left: fun (x : p) => x"),
        # Harrop-inj at the root; the deep body is its payload
        "weakhead": ("KP", f"h : ~b -> {ty}",
                     f"hop (y : ~b). inj1[{ty}] ({body}) of {{ w => w | w => w }}",
                     ["normalize", "--strategy", "weakhead"], f"fun (y : ~b) => {body}"),
        # Visser-inj, then the two betas of y f at the foot of the deep body
        "evalV": ("V", f"v : {ty}",
                  f"visser (x1 : p -> p). inj1[q] x1 of {{ y => fun (f : p -> p) => "
                  f"fun (x : p) => {deep.format('(y f x)')} | y => fun (f : p -> p) => "
                  f"fun (x : p) => x | z => fun (f : p -> p) => fun (x : p) => z f }}",
                  ["normalize", "--strategy", "evalV"],
                  "fun (f : p -> p) => fun (x : p) => " + deep.format("(f x)")),
    }
    for name, (calc, decl, text, argv, want) in scripts.items():
        path = tmp_path / f"{name}.vkp"
        path.write_text(f"calculus {calc}\ndef {decl} := {text}\n")
        argv = argv[:1] + [str(path), decl.split()[0]] + argv[1:]
        assert _run(argv) == (0, want + "\n", ""), name
