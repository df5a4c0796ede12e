"""Command-line front end: check, normalize, extract, prove.

Exit codes: 0 success; 1 a type, parse or precondition failure in a
script, or an unprovable formula; 2 an I/O or usage error (an unreadable
file, an unknown declaration name, an invalid VKP_BUDGET, a formula that
does not parse).  VKP_BUDGET overrides the default reduction budget.
`check` reads its files in argv order and reports once all of them are
read.  `prove` always decides: it prints a checked proof term or a
verified countermodel.  `main` may be called many times in one process:
the argument parser is built on the first call and shared after that,
and no call leaves state behind for the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .syntax import CALCULI
from .typecheck import TypeCheckError, check
from .parser import ParseError, parse_formula, parse_script, print_formula, print_term
from .normalize import (
    DEFAULT_BUDGET, BudgetExceeded, PreconditionViolation, eval_v,
    extract_disjunct, normalize_full, weak_head_normalize,
)
from .oracle import Provable, ipc_provable


class UsageError(Exception):
    """A bad name, setting or file on the command line; exit 2."""


def _budget() -> int:
    raw = os.environ.get("VKP_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        n = int(raw)
        if n <= 0:
            raise ValueError
        return n
    except ValueError:
        raise UsageError(f"VKP_BUDGET must be a positive integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


def _type_error(d, calculus: str) -> str | None:
    """The report line for a declaration that does not check; None if it does."""
    try:
        check({}, d.body, d.formula, calculus)
    except TypeCheckError as e:
        return f"{d.name} : error at line {d.line}, column {d.col}: {e}"
    return None


def _check_file(path: str, calculus: str | None) -> tuple[list[str], bool]:
    """Report lines and a pass flag for one script file."""
    script = parse_script(_read(path))
    if not script:
        return [f"{path}: OK, 0 declarations"], True
    lines = []
    ok = True
    for d in script:
        error = _type_error(d, calculus or d.calculus)
        ok = ok and error is None
        lines.append(error or f"{d.name} : OK ({print_formula(d.formula)})")
    return lines, ok


def _cmd_check(args) -> int:
    code = 0
    results = []
    for path in args.files:
        try:
            results.append(_check_file(path, args.calculus))
        except ParseError as e:
            print(f"{path}: {e}", file=sys.stderr)
            code = 1
    for lines, ok in results:
        for line in lines:
            print(line)
        if not ok:
            code = 1
    return code


def _load_declaration(path: str, name: str):
    """The named declaration, type-checked; None once a type error in it
    is reported on stderr."""
    for d in parse_script(_read(path)):
        if d.name == name:
            break
    else:
        raise UsageError(f"no declaration named {name!r} in {path}")
    error = _type_error(d, d.calculus)
    if error is not None:
        print(error, file=sys.stderr)
        return None
    return d


def _cmd_normalize(args) -> int:
    budget = _budget()
    d = _load_declaration(args.file, args.name)
    if d is None:
        return 1
    trace = [] if args.trace else None
    try:
        if args.strategy == "full":
            nf = normalize_full(d.body, d.calculus, {}, budget, trace)
        elif args.strategy == "weakhead":
            if d.calculus == "V":
                print("vkp: weakhead is the KP head strategy; "
                      f"{d.name} is a V declaration", file=sys.stderr)
                return 1
            nf = weak_head_normalize(d.body, {}, budget, trace)
        else:
            if d.calculus != "V":
                print(f"vkp: evalV needs a V declaration, {d.name} is {d.calculus}",
                      file=sys.stderr)
                return 1
            nf = eval_v(d.body, {}, budget)
    except BudgetExceeded as e:
        print(f"vkp: budget of {budget} steps exceeded after {e.steps} steps",
              file=sys.stderr)
        print(f"last term: {print_term(e.last)}", file=sys.stderr)
        return 1
    except PreconditionViolation as e:
        print(f"vkp: {e}", file=sys.stderr)
        return 1

    if args.json:
        # a step's before is the step ahead's after: print each term once
        texts: dict[int, str] = {}

        def text(t) -> str:
            out = texts.get(id(t))
            if out is None:
                out = texts[id(t)] = print_term(t)
            return out

        payload: dict = {"normalForm": text(nf)}
        if args.trace:
            payload["steps"] = [
                {"path": list(s.path), "rule": s.rule,
                 "before": text(s.before), "after": text(s.after)}
                for s in (trace or [])
            ]
        print(json.dumps(payload, indent=2))
        return 0
    if args.trace:
        for s in trace or []:
            loc = ".".join(str(i) for i in s.path) or "root"
            print(f"{s.rule} at {loc}")
        if args.strategy == "evalV":
            print("(structural evaluation: no step trace)")
    print(print_term(nf))
    return 0


def _cmd_extract(args) -> int:
    budget = _budget()
    d = _load_declaration(args.file, args.name)
    if d is None:
        return 1
    try:
        side, witness = extract_disjunct(d.body, d.calculus, budget)
    except (PreconditionViolation, BudgetExceeded) as e:
        print(f"vkp: {e}", file=sys.stderr)
        return 1
    print(f"{side}: {print_term(witness)}")
    return 0


def _cmd_prove(args) -> int:
    try:
        a = parse_formula(args.formula)
    except ParseError as e:
        print(f"vkp: {e}", file=sys.stderr)
        return 2
    result = ipc_provable(a)
    if isinstance(result, Provable):
        print(print_term(result.witness))
        return 0
    print("not provable; countermodel:")
    print(result.countermodel.describe())
    return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vkp",
        description="Proof-term kernel for intuitionistic logic "
                    "with admissible-rule constructs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="type-check every declaration in each file")
    c.add_argument("files", nargs="+")
    c.add_argument("--calculus", choices=CALCULI, default=None,
                   help="override the calculus pragma of the scripts")
    c.set_defaults(run=_cmd_check)

    n = sub.add_parser("normalize", help="normalize one declaration")
    n.add_argument("file")
    n.add_argument("name")
    n.add_argument("--strategy", choices=("full", "weakhead", "evalV"),
                   default="full")
    n.add_argument("--trace", action="store_true",
                   help="show each reduction step (rule and path)")
    n.add_argument("--json", action="store_true",
                   help="machine-readable output")
    n.set_defaults(run=_cmd_normalize)

    e = sub.add_parser("extract", help="extract a disjunct from a closed proof")
    e.add_argument("file")
    e.add_argument("name")
    e.set_defaults(run=_cmd_extract)

    v = sub.add_parser("prove", help="decide an IPC formula")
    v.add_argument("formula")
    v.set_defaults(run=_cmd_prove)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, UsageError) as e:
        print(f"vkp: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"vkp: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
