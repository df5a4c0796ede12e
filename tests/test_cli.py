"""Exit codes and output formats of the vkp command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import vkp.cli
from vkp.cli import main
from vkp.kripke import KripkeModel, forces, is_valid_model
from vkp.parser import parse_formula, parse_term
from vkp.reduction import TraceStep, replay_step
from vkp.typecheck import check

HARROP = "proofs/harrop.vkp"
VISSER = "proofs/visser.vkp"
IPC = "proofs/ipc.vkp"


def test_check_ok(capsys):
    assert main(["check", IPC]) == 0
    out = capsys.readouterr().out
    assert "identity : OK (p -> p)" in out
    assert "beta_demo : OK (q -> q)" in out


def test_check_many_files_ordered(capsys):
    assert main(["check", IPC, HARROP, VISSER]) == 0
    out = capsys.readouterr().out
    # the report follows argv order
    assert out.index("identity") < out.index("harrop_principle")
    assert out.index("harrop_principle") < out.index("visser_inj")


def test_check_calculus_override_rejects(capsys):
    assert main(["check", HARROP, "--calculus", "IPC"]) == 1
    out = capsys.readouterr().out
    assert "error at line" in out
    assert "not part of calculus IPC" in out


def test_check_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.vkp"
    f.write_text("calculus IPC\n")
    assert main(["check", str(f)]) == 0
    assert "OK, 0 declarations" in capsys.readouterr().out


def test_check_type_error_position(tmp_path, capsys):
    f = tmp_path / "bad.vkp"
    f.write_text("calculus IPC\n\ndef oops : p -> q := fun (x : p) => x\n")
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out
    assert "oops : error at line 3, column" in out


def test_check_deep_type(tmp_path, capsys, default_recursion_limit):
    arrow = " -> ".join(["p"] * 401)
    body = " ".join(f"fun (x{i} : p) =>" for i in range(400)) + " x0"
    f = tmp_path / "deep.vkp"
    f.write_text(f"calculus IPC\ndef deep : {arrow} := {body}\n")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == f"deep : OK ({arrow})\n"


def test_check_missing_file(capsys):
    assert main(["check", "no/such/file.vkp"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_file_is_an_unreadable_file(tmp_path):
    # run as `python -m vkp`, so the entry point is covered too
    f = tmp_path / "bad.vkp"
    f.write_bytes(b"\xff\xfe")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in (["check", str(f)], ["normalize", str(f), "d"], ["extract", str(f), "d"]):
        r = subprocess.run([sys.executable, "-m", "vkp", *argv],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 2, (argv, r.stderr)
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith(f"vkp: cannot read {f}: "), r.stderr


def test_check_parse_error(tmp_path, capsys):
    f = tmp_path / "syntax.vkp"
    f.write_text("calculus IPC\n\ndef broken : p -> := fun\n")
    assert main(["check", str(f)]) == 1
    assert "line" in capsys.readouterr().err


def test_later_definition_is_not_captured(tmp_path, capsys):
    # `a` names `b` before `b` is defined, so `c := a` is unknown there too
    f = tmp_path / "scope.vkp"
    f.write_text("calculus IPC\n"
                 "def a : p -> p := b\n"
                 "def b : p -> p := fun (x : p) => x\n"
                 "def c : p -> p := a\n")
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "b : OK (p -> p)" in out
    assert "c : error at line 4, column 1: unknown variable b" in out
    assert main(["normalize", str(f), "c"]) == 1
    assert capsys.readouterr().err == "c : error at line 4, column 1: unknown variable b\n"


def test_normalize_trace_text(capsys):
    assert main(["normalize", HARROP, "hop_applied", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "Beta at root" in out
    assert "Harrop-inj at root" in out
    assert out[-1] == "inj1[~B -> A2] (fun (x : ~B) => x)"


def test_normalize_json_trace_replays(capsys):
    assert main(["normalize", HARROP, "hop_applied", "--trace", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normalForm"] == "inj1[~B -> A2] (fun (x : ~B) => x)"
    assert payload["steps"], "expected a nonempty step list"
    for s in payload["steps"]:
        step = TraceStep(tuple(s["path"]), s["rule"],
                         parse_term(s["before"]), parse_term(s["after"]))
        assert replay_step(step, "KP", {})


def test_normalize_json_without_trace_has_no_steps(capsys):
    assert main(["normalize", IPC, "beta_demo", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "steps" not in payload
    assert payload["normalForm"] == "fun (x : q) => x"


def test_normalize_weakhead_rejects_v(capsys):
    assert main(["normalize", VISSER, "visser_inj", "--strategy", "weakhead"]) == 1
    assert "V declaration" in capsys.readouterr().err


def test_normalize_evalv_needs_v(capsys):
    assert main(["normalize", HARROP, "hop_applied", "--strategy", "evalV"]) == 1
    assert "evalV needs a V declaration" in capsys.readouterr().err


def test_normalize_evalv_no_step_trace(capsys):
    assert main(["normalize", VISSER, "visser_inj",
                 "--strategy", "evalV", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "(structural evaluation: no step trace)" in out
    assert "fun (x1 : B -> B) => x1" in out


def test_normalize_missing_declaration(capsys):
    assert main(["normalize", HARROP, "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert err == f"vkp: no declaration named 'nonexistent' in {HARROP}\n"


def test_normalize_and_extract_ill_typed(tmp_path, capsys):
    f = tmp_path / "bad.vkp"
    f.write_text("calculus IPC\n\ndef oops : p -> q := fun (x : p) => x\n")
    for command in ("normalize", "extract"):
        assert main([command, str(f), "oops"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "oops : error at line 3, column 1: expected p -> q, got p -> p\n"


def test_budget_env(tmp_path, monkeypatch, capsys):
    f = tmp_path / "chain.vkp"
    f.write_text(
        "calculus IPC\n\n"
        "def chain : A -> A :=\n"
        "  fun (a : A) =>\n"
        "    (fun (x : A) => x) ((fun (y : A) => y) ((fun (z : A) => z) a))\n"
    )
    monkeypatch.setenv("VKP_BUDGET", "2")
    assert main(["normalize", str(f), "chain"]) == 1
    err = capsys.readouterr().err
    assert "budget of 2 steps exceeded" in err
    assert "last term:" in err
    monkeypatch.setenv("VKP_BUDGET", "10")
    assert main(["normalize", str(f), "chain"]) == 0
    assert capsys.readouterr().out.strip() == "fun (a : A) => a"


def test_budget_env_rejects_garbage(monkeypatch, capsys):
    for raw in ("zero", "0", "-3"):
        monkeypatch.setenv("VKP_BUDGET", raw)
        assert main(["normalize", IPC, "beta_demo"]) == 2
        err = capsys.readouterr().err
        assert err == f"vkp: VKP_BUDGET must be a positive integer, got {raw!r}\n"


def test_extract(capsys):
    assert main(["extract", HARROP, "hop_applied"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "Left: fun (x : ~B) => x"


def test_extract_rejects_non_disjunction(capsys):
    assert main(["extract", IPC, "identity"]) == 1
    assert "vkp:" in capsys.readouterr().err


def test_prove_tautology(capsys):
    assert main(["prove", "(A -> B) -> ~B -> ~A"]) == 0
    witness = parse_term(capsys.readouterr().out.strip())
    check({}, witness, parse_formula("(A -> B) -> ~B -> ~A"), "IPC")


def test_prove_non_theorem(capsys):
    assert main(["prove", "A \\/ ~A"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not provable; countermodel:")
    assert "worlds, root w0" in out
    assert "w0 <= " in out


def test_prove_one_world_countermodel(capsys):
    assert main(["prove", "False"]) == 1
    assert capsys.readouterr().out == (
        "not provable; countermodel:\n1 world, root w0\n  w0 <= (none)\n")
    assert main(["prove", "((p))"]) == 1
    assert capsys.readouterr().out == (
        "not provable; countermodel:\n1 world, root w0\n  w0 <= (none)\n  p: {}\n")


def test_main_keeps_no_state_between_calls(capsys):
    # one argument parser serves every call in a process; each command
    # answers the same however many calls and which came before it
    commands = (
        ["check", IPC, HARROP, VISSER],
        ["normalize", HARROP, "hop_applied", "--trace", "--json"],
        ["extract", HARROP, "hop_applied"],
        ["prove", "(A -> B) -> ~B -> ~A"],
        ["prove", "A \\/ ~A"],
        ["normalize", HARROP],  # a usage error: argparse exits
        ["check", "no/such/file.vkp"],
    )

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = ("exit", e.code)
        out, err = capsys.readouterr()
        return code, out, err

    vkp.cli._parser.cache_clear()
    first = {i: run(argv) for i, argv in enumerate(commands)}
    assert [first[i][0] for i in range(len(commands))] == [0, 0, 0, 0, 1, ("exit", 2), 2]
    for i in reversed(range(len(commands))):
        assert run(commands[i]) == first[i], commands[i]


def test_prove_parse_error(capsys):
    assert main(["prove", "A -> -> B"]) == 2
    assert "vkp:" in capsys.readouterr().err


def _read_model(text):
    """The KripkeModel that `describe` printed."""
    lines = text.splitlines()
    size = int(lines[0].split()[0])
    order = {(w, w) for w in range(size)}
    valuation = {}
    for line in lines[1:]:
        head, rest = line.split(maxsplit=1)  # "w0 <= w1 w2" or "A: {w1, w2}"
        if rest.startswith("<="):
            ups = [u for u in rest[2:].split() if u != "(none)"]
            order |= {(int(head[1:]), int(u[1:])) for u in ups}
        else:
            ws = [x.strip() for x in rest.strip("{}").split(",") if x.strip()]
            valuation[head.rstrip(":")] = frozenset(int(x[1:]) for x in ws)
    return KripkeModel(size, frozenset(order), valuation)


def test_prove_past_the_old_world_bound(capsys):
    # the width-6 formula needs 7 worlds to refute
    ps = [f"p{i}" for i in range(1, 7)]
    disj = " \\/ "
    text = disj.join(f"({p} -> {disj.join(q for q in ps if q != p)})" for p in ps)
    assert main(["prove", text]) == 1
    head, _, body = capsys.readouterr().out.partition("\n")
    assert head == "not provable; countermodel:"
    m = _read_model(body)
    assert m.size >= 7 and set(m.valuation) == set(ps)
    assert is_valid_model(m)
    assert not forces(m, 0, parse_formula(text))
