"""Concrete syntax: parsing and printing for formulas, terms, proof scripts.

Formulas:   atoms, False, ~A (sugar for A -> False), /\\, \\/, ->
            precedence ~ > /\\ > \\/ > ->, implication right associative.
Terms:      fun (x : A) => t        abstraction
            t s                     application, left associative
            (t, s)  proj1 t         pairs and projections
            inj1[B] t  inj2[B] t    injections, annotation names the other side
            exfalso[A] t            falsity elimination
            case t of { x => s1 | x => s2 }
            hop (x : ~B). t of { y => s1 | y => s2 }
            visser (x1 : B1 -> C1, ...). t of { y => s1 | y => s2 | z => u1 | ... }
Scripts:    `calculus IPC|V|KP` pragmas, `def name : A := t` declarations,
            `--` line comments.  A def may use earlier defs; they are
            substituted in at parse time, keeping checked terms self-contained.

Reading is one pass over a flat list of token values, and nothing in it
recurses: a formula, term or script of any nesting depth parses at the
default recursion limit, bounded by memory alone.  One compiled regex
scans the text a line at a time: each match skips whitespace and
comments and yields one symbol, identifier or keyword, a stray character
(an error) or the empty end of the line.  A token's line and column are
worked out only when a declaration or an error needs them; only `\\n`
starts a new line.  Formulas are read by precedence climbing over an
explicit operator stack, terms by a loop over an explicit stack of
continuation frames, one per production waiting for a subterm.

The printer emits minimal parentheses and prints X -> False back as ~X;
parsing a printed term returns the same tree up to bound names.  It walks
an explicit stack too.  A formula printed at top level keeps its text
(the `_text` slot of `vkp.syntax`), so an annotation that many terms
share is printed once.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

from .syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, Falsum, Formula, Harrop, Impl,
    Inj, Pair, Proj, Term, Var, Visser, CALCULI, FALSUM, free_vars, substitute,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        detail = f"line {line}, column {col}: {message}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = expected


KEYWORDS = {
    "fun", "case", "of", "hop", "visser",
    "proj1", "proj2", "inj1", "inj2", "exfalso",
    "False", "def", "calculus",
}
_SYMBOLS = (":=", "->", "=>", "/\\", "\\/", *"()[]{}|,:.~")
_RESERVED = frozenset((*KEYWORDS, *_SYMBOLS, ""))  # every value but an identifier's
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# The values after which an application spine ends: all but an identifier,
# "(" and the prefix keywords.
_NOT_ARG = _RESERVED - {"(", "proj1", "proj2", "inj1", "inj2", "exfalso"}

# Whitespace and comments, then one token (group 1): a symbol, an
# identifier or keyword, any other character (a stray), or the end of the
# line as "".  Some alternative always matches after the skip, so it never
# gives anything back.
_TOKEN = r":=|->|=>|/\\|\\/|[()\[\]{}|,:.~]|[A-Za-z_][A-Za-z0-9_]*|.|\Z"
_SKIP = r"\s*(?:--[^\n]*\s*)*"
_SCAN = re.compile(f"{_SKIP}({_TOKEN})")


class _Source:
    """A text's token values, ending in one "" for the end of input, with
    the line and column of a token worked out on demand.

    No token or comment spans a line, so each line is scanned on its own:
    a token's line follows from the number of tokens on the lines before
    it, and its column from one more scan of its line.
    """

    __slots__ = ("vals", "atoms", "_lines", "_line_vals", "_line_ends", "_starts")

    def __init__(self, text: str):
        self._lines = text.split("\n")
        # each line's values end in "", twice after trailing whitespace or a comment
        self._line_vals = list(map(_SCAN.findall, self._lines))
        self.vals = vals = list(filter(None, chain.from_iterable(self._line_vals)))
        vals.append("")
        self.atoms: dict[str, Formula] = {"False": FALSUM}  # and one Atom per name
        self._line_ends = None  # the number of tokens up to the end of each line
        self._starts: dict[int, list[int]] = {}  # line -> its tokens' offsets in it
        strays = [v for v in set(vals) - _RESERVED if v[0] not in _IDENT_START]
        if strays:
            k = min(map(vals.index, strays))
            raise self.error(f"stray character {vals[k]!r}", k)

    def position(self, k: int) -> tuple[int, int]:
        """1-based line and column of token k."""
        ends = self._line_ends
        if ends is None:
            ends = self._line_ends = list(accumulate(
                len(vs) - vs.count("") for vs in self._line_vals))
        line = bisect_right(ends, k)
        if line == len(ends):  # the end of input
            return line, len(self._lines[-1]) + 1
        k -= ends[line - 1] if line else 0  # its index on the line
        text = self._lines[line]
        if k == 0:  # a line's first token, as a declaration's usually is
            return line + 1, _SCAN.match(text).start(1) + 1
        starts = self._starts.get(line)
        if starts is None:
            starts = self._starts[line] = [m.start(1) for m in _SCAN.finditer(text)]
        return line + 1, starts[k] + 1

    def error(self, message: str, k: int, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, *self.position(k), expected)

    def fail(self, k: int, expected: tuple[str, ...]):
        raise self.error(f"unexpected {self.vals[k] or 'end of input'!r}", k, expected)

    def ident(self, k: int) -> str:
        v = self.vals[k]
        if v in _RESERVED:
            self.fail(k, ("identifier",))
        return v

    def expect(self, k: int, value: str) -> int:
        """The index after token k, which must be value."""
        if self.vals[k] != value:
            self.fail(k, (value,))
        return k + 1


class Token(NamedTuple):
    kind: str  # 'kw', 'ident', 'sym', 'eof'
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column, the last one of kind 'eof'."""
    src = _Source(text)
    return [
        Token("eof" if not v else "kw" if v in KEYWORDS else "sym" if v in _RESERVED
              else "ident", v, *src.position(k))
        for k, v in enumerate(src.vals)
    ]


# ---------------------------------------------------------------- formulas

# A connective's precedence, and the lowest precedence of a waiting
# connective that it completes first: -> is right associative.
_CONNECTIVES = {"->": (0, 1), "\\/": (1, 1), "/\\": (2, 2)}
_BY_PRECEDENCE = (Impl, Disj, Conj)


def _formula(src: _Source, i: int) -> tuple[Formula, int]:
    """The formula at token i and the index after it."""
    vals, atoms = src.vals, src.atoms
    # the precedence of each connective waiting for its right side, and
    # -2 - n for each open "(" with n "~" before it; -1 at the bottom
    ops = [-1]
    lefts = []  # the waiting connectives' left sides
    while True:
        # an operand: "~" and "(", then an atom or False
        v = vals[i]
        negs = 0
        while v == "~" or v == "(":
            if v == "~":
                negs += 1
            else:
                ops.append(-2 - negs)
                negs = 0
            i += 1
            v = vals[i]
        out = atoms.get(v)
        if out is None:
            if v in _RESERVED:
                src.fail(i, ("identifier", "False", "~", "("))
            out = atoms[v] = Atom(v)
        i += 1
        while negs:
            out = Impl(out, FALSUM)
            negs -= 1
        # then what it completes, up to the next connective
        while True:
            con = _CONNECTIVES.get(vals[i])
            if con is not None:
                while ops[-1] >= con[1]:
                    out = _BY_PRECEDENCE[ops.pop()](lefts.pop(), out)
                ops.append(con[0])
                lefts.append(out)
                i += 1
                break
            while ops[-1] >= 0:
                out = _BY_PRECEDENCE[ops.pop()](lefts.pop(), out)
            negs = -2 - ops.pop()
            if negs < 0:  # the bottom
                return out, i
            i = src.expect(i, ")")
            while negs:
                out = Impl(out, FALSUM)
                negs -= 1


# ---------------------------------------------------------------- terms

_ATOM_EXPECTED = ("identifier", "(", "proj1", "proj2", "inj1", "inj2", "exfalso",
                  "fun", "case", "hop", "visser")
# Continuation frames of _term, each waiting for the subterm being read:
# (_WRAP, cls, fields) builds cls(*fields, subterm): a fun body, or the
# operand of proj, inj or exfalso; [_SPINE, head so far or None];
# (_PAREN,) and (_PAIR, first); and [_SPLIT, cls, fields before the main
# premise, subterms so far, branch binder names so far] for case, hop and
# visser, whose first subterm is the main premise.
_WRAP, _SPINE, _PAREN, _PAIR, _SPLIT = range(5)
_PREFIX = {"proj1": (Proj, 1), "proj2": (Proj, 2), "inj1": (Inj, 1), "inj2": (Inj, 2),
           "exfalso": (Exfalso, None)}


def _annotated(src: _Source, i: int) -> tuple[str, Formula, int]:
    """`( x : A )` at token i, the binder of fun and hop."""
    x = src.ident(src.expect(i, "("))
    a, i = _formula(src, src.expect(i + 2, ":"))
    return x, a, src.expect(i, ")")


def _visser_binders(src: _Source, i: int) -> tuple[tuple, int]:
    """`( x1 : B1 -> C1, ... ).` at token i."""
    binders = []
    i = src.expect(i, "(")
    while True:
        x = src.ident(i)
        k = src.expect(i + 1, ":")
        a, i = _formula(src, k)
        if not isinstance(a, Impl):
            raise src.error(f"visser binder {x} must be annotated with an implication", k)
        binders.append((x, a))
        if src.vals[i] != ",":
            return tuple(binders), src.expect(src.expect(i, ")"), ".")
        i += 1


def _branch(src: _Source, i: int, names: list) -> int:
    """`y =>` at token i: y goes to names."""
    names.append(src.ident(i))
    return src.expect(i + 1, "=>")


def _same_binder(src: _Source, i: int, first: str, second: str):
    if first != second:
        raise src.error(f"branches must bind the same name, got {first} and {second}", i)


def _term(src: _Source, i: int) -> tuple[Term, int]:
    """The term at token i and the index after it."""
    vals = src.vals
    stack: list = []  # continuation frames, innermost last
    at_term = True  # at the start of a term; else of a prefix term
    while True:
        # down: read until a prefix term is complete
        v = vals[i]
        if at_term:
            if v == "fun":
                x, a, i = _annotated(src, i + 1)
                stack.append((_WRAP, Abs, (x, a)))
                i = src.expect(i, "=>")
                continue
            if v == "case":
                stack.append([_SPLIT, Case, (), [], []])
                i += 1
                continue
            if v == "hop":
                x, a, i = _annotated(src, i + 1)
                stack.append([_SPLIT, Harrop, (x, a), [], []])
                i = src.expect(i, ".")
                continue
            if v == "visser":
                binders, i = _visser_binders(src, i + 1)
                stack.append([_SPLIT, Visser, (binders,), [], []])
                continue
            if v in _RESERVED or vals[i + 1] not in _NOT_ARG:
                stack.append([_SPINE, None])
                at_term = False
                continue
            out = Var(v)  # a lone identifier
            i += 1
        elif v not in _RESERVED:
            out = Var(v)
            i += 1
        elif v == "(":
            stack.append((_PAREN,))
            i += 1
            at_term = True
            continue
        else:
            prefix = _PREFIX.get(v)
            if prefix is None:
                src.fail(i, _ATOM_EXPECTED)
            cls, index = prefix
            if cls is Proj:
                stack.append((_WRAP, Proj, (index,)))
                i += 1
            else:
                annot, i = _formula(src, src.expect(i + 1, "["))
                stack.append((_WRAP, cls, (annot,) if index is None else (index, annot)))
                i = src.expect(i, "]")
            continue
        # up: hand the finished subterm to the frames until one needs another
        while stack:
            f = stack[-1]
            kind = f[0]
            if kind == _WRAP:
                stack.pop()
                out = f[1](*f[2], out)
            elif kind == _SPINE:
                if f[1] is not None:
                    out = App(f[1], out)
                if vals[i] not in _NOT_ARG:
                    f[1] = out
                    at_term = False
                    break
                stack.pop()
            elif kind == _PAREN:
                if vals[i] == ",":
                    stack[-1] = (_PAIR, out)
                    i += 1
                    at_term = True
                    break
                i = src.expect(i, ")")
                stack.pop()
            elif kind == _PAIR:
                i = src.expect(i, ")")
                stack.pop()
                out = Pair(f[1], out)
            else:
                _, cls, fields, subterms, names = f
                subterms.append(out)
                n = len(subterms)
                if n == 1:  # the main premise
                    i = _branch(src, src.expect(src.expect(i, "of"), "{"), names)
                    at_term = True
                    break
                if n == 2:
                    i = _branch(src, src.expect(i, "|"), names)
                    at_term = True
                    break
                if n == 3:
                    _same_binder(src, i, names[0], names[1])
                elif n > 4:
                    _same_binder(src, i, names[2], names[-1])
                if cls is Visser and vals[i] == "|":
                    i = _branch(src, i + 1, names)
                    at_term = True
                    break
                close = i
                i = src.expect(i, "}")
                stack.pop()
                main, b1, b2, *us = subterms
                if cls is Case:
                    out = Case(main, names[0], b1, b2)
                    continue
                if cls is Visser and len(us) != len(fields[0]):
                    raise src.error(f"visser has {len(fields[0])} binders but {len(us)} "
                                    "final branches", close)
                try:
                    if cls is Harrop:
                        out = Harrop(*fields, main, names[0], b1, b2)
                    else:
                        out = Visser(*fields, main, names[0], b1, b2, names[2], tuple(us))
                except ValueError as e:
                    raise src.error(str(e), i if cls is Harrop else close) from None
        else:
            return out, i


# ---------------------------------------------------------------- scripts


@dataclass(frozen=True)
class Declaration:
    """One checked script entry; body has earlier definitions substituted in."""

    name: str
    formula: Formula
    body: Term
    calculus: str
    line: int
    col: int


def _finish(src: _Source, result, i: int):
    if src.vals[i]:
        src.fail(i, ("end of input",))
    return result


def parse_formula(text: str) -> Formula:
    src = _Source(text)
    return _finish(src, *_formula(src, 0))


def parse_term(text: str) -> Term:
    src = _Source(text)
    return _finish(src, *_term(src, 0))


def parse_script(text: str) -> list[Declaration]:
    src = _Source(text)
    vals = src.vals
    defs: dict[str, Declaration] = {}
    calculus = "IPC"
    i = 0
    while vals[i]:
        if vals[i] == "calculus":
            name = src.ident(i + 1)
            if name not in CALCULI:
                raise src.error(f"unknown calculus {name}", i + 1, CALCULI)
            calculus = name
            i += 2
        elif vals[i] == "def":
            name = src.ident(i + 1)
            if name in defs:
                raise src.error(f"duplicate definition {name}", i)
            a, j = _formula(src, src.expect(i + 2, ":"))
            k = src.expect(j, ":=")
            body, j = _term(src, k)
            # newest first, and only the names this body leaves free: an
            # inlined body may name a later definition, or its own, which
            # must stay free.  A body whose tokens name no definition, as
            # most do, needs no walk.
            named = defs.keys() & set(vals[k:j])
            if named:
                fv = free_vars(body)
                used = [defs[n] for n in named if n in fv]
                for prior in sorted(used, key=lambda d: (d.line, d.col), reverse=True):
                    body = substitute(body, prior.name, prior.body)
            defs[name] = Declaration(name, a, body, calculus, *src.position(i))
            i = j
        else:
            src.fail(i, ("def", "calculus"))
    return list(defs.values())


# ---------------------------------------------------------------- printing

# Formula precedence contexts: 0 implication body, 1 disjunct, 2 conjunct,
# 3 negation argument.  An infix connective maps to its symbol, the
# contexts of its two sides, and the highest context it is printed bare in.
_INFIX = {Impl: (" -> ", 1, 0, 0), Disj: (" \\/ ", 1, 2, 1), Conj: (" /\\ ", 2, 3, 2)}


def print_formula(a: Formula, prec: int = 0) -> str:
    """a's text in context prec.

    A compound formula keeps its bare text in its `_text` slot the first
    time it is printed here, so printing it again, in any context, is a
    lookup.  Its subformulas keep none: a deep formula would hold
    quadratic text.
    """
    cls = type(a)
    if cls is Atom:
        return a.name
    text = getattr(a, "_text", None)
    if text is None:
        text = _formula_text(a)
        _keep_text(a, text)
    infix = _INFIX.get(cls)
    if infix is None or prec <= infix[3] or cls is Impl and type(a.right) is Falsum:
        return text
    return f"({text})"


_keep_text = Formula._text.__set__


def _formula_text(a: Formula) -> str:
    # A stack of (formula, context) pairs still to print and of the literal
    # pieces between them, so deep formulas need no recursion.
    out: list[str] = []
    todo: list = [(a, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, p = item
        cls = type(f)
        if cls is Atom:
            out.append(f.name)
        elif cls is Falsum:
            out.append("False")
        elif cls is Impl and type(f.right) is Falsum:
            out.append("~")
            todo.append((f.left, 3))
        elif (infix := _INFIX.get(cls)) is not None:
            op, lp, rp, bare = infix
            if p > bare:
                out.append("(")
                todo.append(")")
            todo += ((f.right, rp), op, (f.left, lp))
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)


def _branches(y: str, b1: Term, b2: Term, z: str | None = None, us=()) -> list:
    """The pieces of `of { y => b1 | y => b2 | z => u ... }`."""
    pieces = [f" of {{ {y} => ", (b1, 0), f" | {y} => ", (b2, 0)]
    for u in us:
        pieces += (f" | {z} => ", (u, 0))
    return pieces + [" }"]


# Term precedence contexts: 0 top, 1 application head, 2 argument.


def print_term(t: Term, prec: int = 0) -> str:
    # A stack of (term, context) pairs still to print and of the literal
    # pieces between them, as in print_formula.
    out: list[str] = []
    todo: list = [(t, prec)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, p = item
        cls = type(t)
        bare = 0  # the highest context it is printed bare in
        if cls is Var:
            out.append(t.name)
            continue
        if cls is App:
            pieces, bare = [(t.fun, 1), " ", (t.arg, 2)], 1
        elif cls is Pair:
            pieces, bare = ["(", (t.fst, 0), ", ", (t.snd, 0), ")"], 2
        elif cls is Proj:
            pieces, bare = [f"proj{t.index} ", (t.arg, 2)], 2
        elif cls is Inj:
            pieces, bare = [f"inj{t.index}[{print_formula(t.other)}] ", (t.arg, 2)], 2
        elif cls is Exfalso:
            pieces, bare = [f"exfalso[{print_formula(t.target)}] ", (t.arg, 2)], 2
        elif cls is Abs:
            pieces = [f"fun ({t.binder} : {print_formula(t.annot)}) => ", (t.body, 0)]
        elif cls is Case:
            pieces = ["case ", (t.scrutinee, 0), *_branches(t.binder, t.branch1, t.branch2)]
        elif cls is Harrop:
            pieces = [f"hop ({t.binder} : {print_formula(t.annot)}). ", (t.main, 0),
                      *_branches(t.case_binder, t.branch1, t.branch2)]
        elif cls is Visser:
            bs = ", ".join(f"{n} : {print_formula(a)}" for n, a in t.binders)
            pieces = [f"visser ({bs}). ", (t.main, 0), *_branches(
                t.case_binder, t.branch1, t.branch2, t.app_binder, t.app_branches)]
        else:
            raise TypeError(f"not a term: {t!r}")
        if p > bare:
            pieces = ["(", *pieces, ")"]
        todo += reversed(pieces)
    return "".join(out)
