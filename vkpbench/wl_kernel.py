"""kernel: parsing, inlining, type checking and normalization at scale.

Two kinds of items.  In-process `vkp` commands (vkp.cli.main with stdout
and the exit code captured) on proofs/ and on seeded generated scripts:
definition chains whose body doubles per line, flat scripts of unrelated
definitions, and applications nested 100 to 800 deep.  And library
normalization of constructed redex chains at doubling n, from small sizes
to the first size past today's depth limit (beta goes on to 400, the size
the normalizer's target is stated at).  Every answer is known by
construction.  The generator and the prover do no work here, apart from
two `prove` commands.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import expected
from harness import Item
from terms import (
    AND, OR, atom, canon, from_vkp, imp, parse_described_model, refutes, show, to_vkp,
)

DEADLINE_S = 10.0
FLAT_SIZES = (100, 200, 400)
DOUBLING_CHECK = (6, 10, 14)  # lines; the last body has 2**lines nodes
DOUBLING_NORMALIZE = (4, 6)
NESTED_CHECK = (100, 200, 400, 800)
NESTED_NORMALIZE = (100, 200, 400)
# chain family -> (calculus, rule, sizes)
CHAINS = {
    "beta": ("IPC", "Beta", (25, 50, 100, 200, 400)),
    "proj": ("IPC", "Projection", (25, 50, 100, 200)),
    "case": ("IPC", "Case", (25, 50, 100, 200)),
    "hop": ("KP", "Harrop-inj", (25, 50, 100, 200, 400)),
    "visser": ("V", "Visser-inj", (25, 50, 100, 200)),
}
ATOMS = ("p", "q", "r", "s")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build(K, seed: int, dig, workdir: str) -> list[Item]:
    rng = random.Random(f"kernel/{seed}")
    os.makedirs(workdir, exist_ok=True)
    items = _proofs_items(K, dig)
    items += _script_items(K, rng, dig, workdir)
    items += _chain_items(K, rng, dig)
    return items


# ------------------------------------------------------------ commands


def _cli(K, name, argv, verify, ladder=None) -> Item:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = K.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Item(name, run, verify, DEADLINE_S, ladder)


def _exact(code: int, stdout: str):
    def verify(got) -> str | None:
        if got[0] != code:
            return f"exit {got[0]}, expected {code}; stderr {got[2][:200]!r}"
        if got[1] != stdout:
            return f"stdout differs: {got[1][:300]!r}"
        return None

    return verify


def _json_trace(dig, code: int, stdout: str):
    """Like _exact, and feeds the printed trace to the digests."""
    exact = _exact(code, stdout)

    def verify(got) -> str | None:
        msg = exact(got)
        if msg is None:
            steps = json.loads(got[1]).get("steps", [])
            dig.trace((s["path"], s["rule"]) for s in steps)
        return msg

    return verify


def _proofs_items(K, dig) -> list[Item]:
    items = []
    files = list(expected.CHECK)
    group = max(1, nproc())  # the command's thread pool stays within the cores
    for i in range(0, len(files), group):
        chunk = files[i:i + group]
        want = "".join(expected.CHECK[f][1] for f in chunk)
        items.append(_cli(K, "check " + " ".join(chunk), ["check", *chunk], _exact(0, want)))
    for argv, code, stdout in expected.COMMANDS:
        verify = _json_trace(dig, code, stdout) if "--json" in argv else _exact(code, stdout)
        items.append(_cli(K, " ".join(argv), argv, verify))
    for text, provable in expected.PROVE:
        items.append(_cli(K, f"prove {text}", ["prove", text],
                          _certificate(K, text, provable)))
    return items


def _certificate(K, text: str, provable: bool):
    def verify(got) -> str | None:
        code, out, err = got
        formula = K.parse_formula(text)
        if provable:
            if code != 0:
                return f"exit {code}, expected 0"
            if not K.checks({}, K.parse_term(out.strip()), formula, "IPC"):
                return "printed witness does not check"
            return None
        head, _, model = out.partition("\n")
        if code != 1 or head != "not provable; countermodel:":
            return f"exit {code}: {out[:200]!r}"
        return refutes(*parse_described_model(model), from_vkp(formula))

    return verify


# ------------------------------------------------------------ scripts


def _formula(rng, depth: int) -> tuple:
    """A complete tree of the given depth: the seed picks connectives and
    atoms, not the size, so item costs do not drift with the seed."""
    if depth == 0:
        return atom(rng.choice(ATOMS))
    op = rng.choice(("->", AND, OR))
    return (op, _formula(rng, depth - 1), _formula(rng, depth - 1))


def _flat_def(rng, i: int) -> tuple[str, tuple]:
    """One unrelated definition: (source line, declared formula)."""
    a, b = _formula(rng, 2), _formula(rng, 2)
    kind = rng.randrange(4)
    if kind == 0:
        body, ty = f"fun (x : {show(a)}) => x", imp(a, a)
    elif kind == 1:
        body, ty = f"fun (x : {show(a)}) => fun (y : {show(b)}) => x", imp(a, imp(b, a))
    elif kind == 2:
        body, ty = f"fun (c : {show((AND, a, b))}) => (proj2 c, proj1 c)", imp((AND, a, b), (AND, b, a))
    else:
        body, ty = f"fun (x : {show(a)}) => inj1[{show(b)}] x", imp(a, (OR, a, b))
    return f"def f{i} : {show(ty)} := {body}", ty


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _nested(n: int) -> str:
    return "f (" * (n - 1) + "f x" + ")" * (n - 1)


def _script_items(K, rng, dig, workdir: str) -> list[Item]:
    items = []
    for n in FLAT_SIZES:
        lines, report = ["calculus IPC"], []
        for i in range(n):
            line, ty = _flat_def(rng, i)
            lines.append(line)
            report.append(f"f{i} : OK ({show(ty)})\n")
        path = _write(workdir, f"flat{n}.vkp", "\n".join(lines) + "\n")
        items.append(_cli(K, f"check flat{n}.vkp", ["check", path],
                          _exact(0, "".join(report)), ("parser.growth.defs", n)))

    a = _formula(rng, 2)
    aa = show(imp(a, a))

    def doubling(lines: int, calculus: str) -> str:
        src = [f"calculus {calculus}", f"def d0 : {aa} := fun (x : {show(a)}) => x"]
        src += [f"def d{k} : {aa} := fun (x : {show(a)}) => d{k - 1} (d{k - 1} x)"
                for k in range(1, lines)]
        return _write(workdir, f"doubling{lines}{calculus}.vkp", "\n".join(src) + "\n")

    for n in DOUBLING_CHECK:
        path = doubling(n, "IPC")
        want = "".join(f"d{k} : OK ({aa})\n" for k in range(n))
        items.append(_cli(K, f"check doubling{n}.vkp", ["check", path], _exact(0, want)))
    identity = f"fun (x : {show(a)}) => x"
    for n in DOUBLING_NORMALIZE:
        # every abstraction in the unfolded body is applied once and uses its
        # argument once: 2**n - 2 beta steps to the identity
        path = doubling(n, "IPC")
        items.append(_cli(K, f"normalize doubling{n}.vkp d{n - 1} --trace --json",
                          ["normalize", path, f"d{n - 1}", "--trace", "--json"],
                          _doubling_trace(dig, identity, 2 ** n - 2)))
    n = DOUBLING_NORMALIZE[-1]
    path = doubling(n, "V")
    items.append(_cli(K, f"normalize doubling{n}V.vkp d{n - 1} --strategy evalV",
                      ["normalize", path, f"d{n - 1}", "--strategy", "evalV"],
                      _exact(0, identity + "\n")))

    ff = show(imp(imp(a, a), imp(a, a)))
    for n in NESTED_CHECK:
        text = f"fun (f : {aa}) => fun (x : {show(a)}) => {_nested(n)}"
        path = _write(workdir, f"nested{n}.vkp",
                      f"calculus IPC\ndef nest : {ff} := {text}\n")
        items.append(_cli(K, f"check nested{n}.vkp", ["check", path],
                          _exact(0, f"nest : OK ({ff})\n")))
        if n in NESTED_NORMALIZE:
            want = json.dumps({"normalForm": text}, indent=2) + "\n"
            items.append(_cli(K, f"normalize nested{n}.vkp nest --json",
                              ["normalize", path, "nest", "--json"], _exact(0, want)))
    return items


def _doubling_trace(dig, nf_text: str, steps: int):
    def verify(got) -> str | None:
        code, out, err = got
        if code != 0:
            return f"exit {code}: {err[:200]!r}"
        doc = json.loads(out)
        rules = [s["rule"] for s in doc["steps"]]
        dig.trace((s["path"], s["rule"]) for s in doc["steps"])
        if doc["normalForm"] != nf_text:
            return f"normal form {doc['normalForm'][:200]!r}"
        if len(rules) != steps or set(rules) != {"Beta"}:
            return f"{len(rules)} steps {sorted(set(rules))}, expected {steps} Beta"
        return None

    return verify


# ------------------------------------------------------------ chains


def _chain(K, family: str, n: int, a, b):
    """f (R (f (R ... y))) with n redexes R, each contracting to its
    argument; the normal form is f applied n times to y."""
    f, y = K.Var("f"), K.Var("y")
    e = y
    for _ in range(n):
        if family == "beta":
            inner = K.App(K.Abs("x", a, K.Var("x")), e)
        elif family == "proj":
            inner = K.Proj(1, K.Pair(e, y))
        elif family == "case":
            inner = K.Case(K.Inj(1, a, e), "z", K.Var("z"), y)
        elif family == "hop":
            inner = K.Harrop("x", K.Impl(b, K.Falsum()), K.Inj(1, a, y), "w", e, y)
        else:
            inner = K.Visser((("x1", K.Impl(a, a)),), K.Inj(1, a, K.Var("x1")),
                             "v", e, y, "u", (y,))
        e = K.App(f, inner)
    nf = y
    for _ in range(n):
        nf = K.App(f, nf)
    return e, nf


def _chain_items(K, rng, dig) -> list[Item]:
    a = to_vkp(_formula(rng, 1), K)
    b = to_vkp(_formula(rng, 1), K)
    ctx = {"f": K.Impl(a, a), "y": a}
    items = []
    for family, (calc, rule, sizes) in CHAINS.items():
        for n in sizes:
            term, nf = _chain(K, family, n, a, b)

            def run(term=term, calc=calc):
                K.check(ctx, term, a, calc)
                trace = []
                return K.normalize_full(term, calc, ctx, trace=trace), trace

            items.append(Item(f"chain {family} {n}", run,
                              _chain_verify(dig, canon(nf), n, rule), DEADLINE_S,
                              (f"normalize.growth.{family}", n)))
    return items


def _chain_verify(dig, want: str, n: int, rule: str):
    def verify(got) -> str | None:
        nf, trace = got
        got_nf = canon(nf)
        dig.add("normal_forms", got_nf)
        dig.trace((s.path, s.rule) for s in trace)
        if got_nf != want:
            return "normal form differs"
        rules = {s.rule for s in trace}
        if len(trace) != n or rules != {rule}:
            return f"{len(trace)} steps {sorted(rules)}, expected {n} {rule}"
        return None

    return verify
