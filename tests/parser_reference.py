"""The parser as it stood before it became one scan and explicit stacks,
the reference the new front end's tests are held against.

tokenize and _Parser are the old bodies unchanged: a tokenizer that
matches one token at a time and builds a positioned `Token` for each, and
a recursive-descent parser with one method per production, which recurses
once per nesting level.  It raises vkp's own ParseError and builds vkp's
own Declaration, so the two parsers' answers compare field for field.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from vkp.parser import Declaration, ParseError
from vkp.syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, Falsum, Formula, Harrop, Impl,
    Inj, Pair, Proj, Term, Var, Visser, CALCULI, free_vars, substitute,
)


KEYWORDS = {
    "fun", "case", "of", "hop", "visser",
    "proj1", "proj2", "inj1", "inj2", "exfalso",
    "False", "def", "calculus",
}

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<sym>:=|->|=>|/\\|\\/|[()\[\]{}|,:.~])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)


class Token(NamedTuple):
    kind: str  # 'kw', 'ident', 'sym', 'eof'
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column.  Only a whitespace run can hold a
    newline: a comment stops before one, and symbols and identifiers never
    contain one."""
    out = []
    line, line_start, pos = 1, 0, 0  # line_start: offset of the line's first character
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"stray character {text[pos]!r}", line, pos - line_start + 1)
        kind, end = m.lastgroup, m.end()
        if kind == "ws":
            nl = text.count("\n", pos, end)
            if nl:
                line += nl
                line_start = text.rindex("\n", pos, end) + 1
        elif kind != "comment":
            lexeme = m.group()
            kind = "kw" if lexeme in KEYWORDS else kind  # a symbol is never a keyword
            out.append(Token(kind, lexeme, line, pos - line_start + 1))
        pos = end
    out.append(Token("eof", "", line, pos - line_start + 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    @property
    def tok(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.tok
        return t.kind == kind and (value is None or t.value == value)

    def eat(self, kind: str, value: str | None = None) -> bool:
        if self.at(kind, value):
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, value: str) -> Token:
        if not self.at(kind, value):
            self.fail((value,))
        return self.advance()

    def expect_ident(self) -> Token:
        if not self.at("ident"):
            self.fail(("identifier",))
        return self.advance()

    def fail(self, expected: tuple[str, ...]):
        t = self.tok
        shown = t.value if t.kind != "eof" else "end of input"
        raise ParseError(f"unexpected {shown!r}", t.line, t.col, expected)

    # formulas

    def formula(self) -> Formula:
        left = self.disj()
        if self.eat("sym", "->"):
            return Impl(left, self.formula())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.eat("sym", "\\/"):
            out = Disj(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.negf()
        while self.eat("sym", "/\\"):
            out = Conj(out, self.negf())
        return out

    def negf(self) -> Formula:
        if self.eat("sym", "~"):
            return Impl(self.negf(), Falsum())
        return self.fatom()

    def fatom(self) -> Formula:
        if self.at("ident"):
            return Atom(self.advance().value)
        if self.eat("kw", "False"):
            return Falsum()
        if self.eat("sym", "("):
            a = self.formula()
            self.expect("sym", ")")
            return a
        self.fail(("identifier", "False", "~", "("))

    # terms

    def term(self) -> Term:
        if self.eat("kw", "fun"):
            x, a = self.annotated()
            self.expect("sym", "=>")
            return Abs(x, a, self.term())
        if self.eat("kw", "case"):
            sc = self.term()
            y, b1, b2, _, _, _ = self.branches(finals=False)
            return Case(sc, y, b1, b2)
        if self.eat("kw", "hop"):
            x, a = self.annotated()
            self.expect("sym", ".")
            main = self.term()
            y, b1, b2, _, _, _ = self.branches(finals=False)
            try:
                return Harrop(x, a, main, y, b1, b2)
            except ValueError as e:
                raise ParseError(str(e), self.tok.line, self.tok.col) from None
        if self.eat("kw", "visser"):
            self.expect("sym", "(")
            binders = [self.vbinder()]
            while self.eat("sym", ","):
                binders.append(self.vbinder())
            self.expect("sym", ")")
            self.expect("sym", ".")
            main = self.term()
            y, b1, b2, z, us, close = self.branches(finals=True)
            if len(us) != len(binders):
                raise ParseError(
                    f"visser has {len(binders)} binders but {len(us)} final branches",
                    close.line, close.col,
                )
            try:
                return Visser(tuple(binders), main, y, b1, b2, z, tuple(us))
            except ValueError as e:
                raise ParseError(str(e), close.line, close.col) from None
        return self.appterm()

    def vbinder(self) -> tuple[str, Formula]:
        x = self.expect_ident().value
        self.expect("sym", ":")
        tok = self.tok
        a = self.formula()
        if not isinstance(a, Impl):
            raise ParseError(
                f"visser binder {x} must be annotated with an implication",
                tok.line, tok.col,
            )
        return (x, a)

    def annotated(self) -> tuple[str, Formula]:
        """`( x : A )`, the binder of fun and hop."""
        self.expect("sym", "(")
        x = self.expect_ident().value
        self.expect("sym", ":")
        a = self.formula()
        self.expect("sym", ")")
        return x, a

    def branches(self, finals: bool):
        """`of { y => s1 | y => s2 }`, with `| z => u` branches after s2 when
        finals: (y, s1, s2, z, [u, ...], the token of the closing brace)."""
        self.expect("kw", "of")
        self.expect("sym", "{")
        y, b1 = self.branch()
        self.expect("sym", "|")
        y2, b2 = self.branch()
        self.require_same_binder(y, y2)
        z, us = None, []
        while finals and self.eat("sym", "|"):
            z2, u = self.branch()
            if z is None:
                z = z2
            else:
                self.require_same_binder(z, z2)
            us.append(u)
        close = self.tok
        self.expect("sym", "}")
        return y, b1, b2, z, us, close

    def branch(self) -> tuple[str, Term]:
        x = self.expect_ident()
        self.expect("sym", "=>")
        return x.value, self.term()

    def require_same_binder(self, first: str, second: str):
        if first != second:
            t = self.tok
            raise ParseError(
                f"branches must bind the same name, got {first} and {second}",
                t.line, t.col,
            )

    def appterm(self) -> Term:
        out = self.prefixterm()
        while self.at("ident") or self.at("sym", "(") or self.at("kw") and self.tok.value in (
            "proj1", "proj2", "inj1", "inj2", "exfalso",
        ):
            out = App(out, self.prefixterm())
        return out

    def prefixterm(self) -> Term:
        if self.at("kw") and self.tok.value in ("proj1", "proj2"):
            i = 1 if self.advance().value == "proj1" else 2
            return Proj(i, self.prefixterm())
        if self.at("kw") and self.tok.value in ("inj1", "inj2"):
            i = 1 if self.advance().value == "inj1" else 2
            self.expect("sym", "[")
            other = self.formula()
            self.expect("sym", "]")
            return Inj(i, other, self.prefixterm())
        if self.eat("kw", "exfalso"):
            self.expect("sym", "[")
            target = self.formula()
            self.expect("sym", "]")
            return Exfalso(target, self.prefixterm())
        return self.atomterm()

    def atomterm(self) -> Term:
        if self.at("ident"):
            return Var(self.advance().value)
        if self.eat("sym", "("):
            t = self.term()
            if self.eat("sym", ","):
                s = self.term()
                self.expect("sym", ")")
                return Pair(t, s)
            self.expect("sym", ")")
            return t
        self.fail(("identifier", "(", "proj1", "proj2", "inj1", "inj2", "exfalso",
                   "fun", "case", "hop", "visser"))

    # scripts

    def script(self) -> list[Declaration]:
        defs: dict[str, Declaration] = {}
        calculus = "IPC"
        while not self.at("eof"):
            if self.eat("kw", "calculus"):
                tok = self.tok
                name = self.expect_ident().value
                if name not in CALCULI:
                    raise ParseError(
                        f"unknown calculus {name}", tok.line, tok.col, CALCULI
                    )
                calculus = name
                continue
            if self.at("kw", "def"):
                kw = self.advance()
                name = self.expect_ident().value
                if name in defs:
                    raise ParseError(f"duplicate definition {name}", kw.line, kw.col)
                self.expect("sym", ":")
                a = self.formula()
                self.expect("sym", ":=")
                body = self.term()
                # newest first, and only the names this body uses: an inlined
                # body may name a later definition, which must stay free
                used = [defs[n] for n in free_vars(body) if n in defs]
                for prior in sorted(used, key=lambda d: (d.line, d.col), reverse=True):
                    body = substitute(body, prior.name, prior.body)
                defs[name] = Declaration(name, a, body, calculus, kw.line, kw.col)
                continue
            self.fail(("def", "calculus"))
        return list(defs.values())


def _finish(p: _Parser, result):
    if not p.at("eof"):
        p.fail(("end of input",))
    return result


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return _finish(p, p.formula())


def parse_term(text: str) -> Term:
    p = _Parser(text)
    return _finish(p, p.term())


def parse_script(text: str) -> list[Declaration]:
    return _Parser(text).script()
