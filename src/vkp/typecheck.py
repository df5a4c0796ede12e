"""Syntax-directed type checking for the three calculi.

IPC is the base; V adds the visser construct, KP adds hop.  A visser main
premise must be closed apart from the visser binders themselves, and that
side condition is checked against the main premise's actual free variables,
so weakening the outer context can never relax it.  Which context each
child of a node sees is stated once, in `_child_context`; the reducer reads
it too, where an efq contraction re-types a main premise.

`infer` is one post-order walk over an explicit stack, so no depth hits the
recursion limit.  Each waiting node checks what it can before the walk goes
down its next child, so the first error is the one a recursive checker
meets first.  A compound node's type is kept by identity for the call; a
node met again reuses it if it has no free variables (asked only then),
since a closed term's type does not depend on the context.  Scripts inline
definitions as shared nodes, so `check` is linear in a script's size.
"""

from __future__ import annotations

from .syntax import (
    Abs, App, Atom, Case, Conj, Disj, Exfalso, Falsum, Formula, Harrop, Impl, Inj,
    Pair, Proj, Term, TypingContext, Var, Visser, CALCULI, free_vars,
)


class TypeCheckError(Exception):
    pass


class UnknownVariable(TypeCheckError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable {name}")
        self.name = name


class NotAnImplication(TypeCheckError):
    def __init__(self, got: Formula):
        super().__init__(f"expected an implication, got {_show(got)}")
        self.got = got


class NotAConjunction(TypeCheckError):
    def __init__(self, got: Formula):
        super().__init__(f"expected a conjunction, got {_show(got)}")
        self.got = got


class NotADisjunction(TypeCheckError):
    def __init__(self, got: Formula):
        super().__init__(f"expected a disjunction, got {_show(got)}")
        self.got = got


class BranchTypeMismatch(TypeCheckError):
    def __init__(self, first: Formula, second: Formula):
        super().__init__(f"branches disagree: {_show(first)} vs {_show(second)}")
        self.first = first
        self.second = second


class VisserOpenAssumption(TypeCheckError):
    """The visser main premise used hypotheses beyond its own binders."""

    def __init__(self, names):
        names = sorted(names)
        super().__init__(f"visser main premise has open assumptions: {', '.join(names)}")
        self.names = names


class CalculusViolation(TypeCheckError):
    def __init__(self, construct: str, calculus: str):
        super().__init__(f"{construct} is not part of calculus {calculus}")
        self.construct = construct
        self.calculus = calculus


class TypeMismatch(TypeCheckError):
    def __init__(self, expected: Formula, got: Formula):
        super().__init__(f"expected {_show(expected)}, got {_show(got)}")
        self.expected = expected
        self.got = got


def _show(a: Formula) -> str:
    from .parser import print_formula

    return print_formula(a)


def _curried(binders, target: Formula) -> Formula:
    """B1->C1 -> (... -> (Bn->Cn -> target))."""
    out = target
    for _, annot in reversed(binders):
        out = Impl(annot, out)
    return out


def _child_context(node: Term, i: int, ctx: TypingContext,
                   premise: Formula | None = None) -> TypingContext:
    """The context child i of node sees, node's own being ctx.  A case, hop
    or visser branch needs premise, the type of child 0."""
    if isinstance(node, Abs):
        return {**ctx, node.binder: node.annot}
    if not isinstance(node, (Case, Harrop, Visser)):
        return ctx
    if i == 0:
        if isinstance(node, Harrop):
            return {**ctx, node.binder: node.annot}
        # a visser main premise sees exactly the visser binders, nothing else
        return dict(node.binders) if isinstance(node, Visser) else ctx
    if i > 2:  # a visser app branch
        bs = node.binders
        return {**ctx, node.app_binder: _curried(bs, bs[i - 3][1].left)}
    side = premise.left if i == 1 else premise.right
    if isinstance(node, Case):
        return {**ctx, node.binder: side}
    hyps = node.binders if isinstance(node, Visser) else ((node.binder, node.annot),)
    return {**ctx, node.case_binder: _curried(hyps, side)}


def _same(a: Formula, b: Formula) -> bool:
    """a == b from an explicit stack, so no depth hits the recursion limit.
    The walk goes down left children and stacks the right ones."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        while a is not b:
            cls = type(a)
            if cls is not type(b) or cls is Atom and a.name != b.name:
                return False
            if cls is Atom or cls is Falsum:
                break
            todo.append((a.right, b.right))
            a, b = a.left, b.left
    return True


def infer(ctx: TypingContext, t: Term, calculus: str = "IPC") -> Formula:
    """Unique type of t under ctx, or a TypeCheckError."""
    if calculus not in CALCULI:
        raise ValueError(f"unknown calculus {calculus!r}")
    memo: dict[int, Formula] = {}  # id of a compound node -> its type in this call
    todo = []  # (node, its context, stage, a type the stage needs), innermost last
    node, cx = t, ctx
    while True:
        # down: enter node, then its first child, until a type is known
        while True:
            if isinstance(node, Var):
                if node.name not in cx:
                    raise UnknownVariable(node.name)
                ty = cx[node.name]
                break
            ty = memo.get(id(node))
            if ty is not None and not free_vars(node):
                break  # met again and closed: its type holds in any context
            if isinstance(node, App):
                todo.append((node, cx, 2, None))
                node = node.fun
            elif isinstance(node, Abs):
                todo.append((node, cx, 1, None))
                node, cx = node.body, _child_context(node, 0, cx)
            elif isinstance(node, Pair):
                todo.append((node, cx, 4, None))
                node = node.fst
            elif isinstance(node, (Proj, Inj, Exfalso)):
                todo.append((node, cx, 6, None))
                node = node.arg
            elif isinstance(node, Case):
                todo.append((node, cx, 7, None))
                node = node.scrutinee
            elif isinstance(node, Harrop):
                if calculus != "KP":
                    raise CalculusViolation("hop", calculus)
                todo.append((node, cx, 7, None))
                node, cx = node.main, _child_context(node, 0, cx)
            elif isinstance(node, Visser):
                if calculus != "V":
                    raise CalculusViolation("visser", calculus)
                extra = free_vars(node.main) - {n for n, _ in node.binders}
                if extra:
                    raise VisserOpenAssumption(extra)
                todo.append((node, cx, 7, None))
                node, cx = node.main, _child_context(node, 0, cx)
            else:
                raise TypeError(f"not a term: {node!r}")
        # up: finish the nodes waiting on ty, until one needs another child
        while todo:
            node, cx, stage, kept = todo.pop()
            if stage == 1:
                ty = Impl(node.annot, ty)
            elif stage == 2:  # the function's type, checked before the argument is typed
                if not isinstance(ty, Impl):
                    raise NotAnImplication(ty)
                todo.append((node, cx, 3, ty))
                node = node.arg
                break
            elif stage == 3:
                if not _same(ty, kept.left):
                    raise TypeMismatch(kept.left, ty)
                ty = kept.right
            elif stage == 4:
                todo.append((node, cx, 5, ty))
                node = node.snd
                break
            elif stage == 5:
                ty = Conj(kept, ty)
            elif stage == 6:
                if isinstance(node, Inj):
                    ty = Disj(ty, node.other) if node.index == 1 else Disj(node.other, ty)
                elif isinstance(node, Exfalso):
                    if not isinstance(ty, Falsum):
                        raise TypeMismatch(Falsum(), ty)
                    ty = node.target
                elif not isinstance(ty, Conj):
                    raise NotAConjunction(ty)
                else:
                    ty = ty.left if node.index == 1 else ty.right
            elif stage == 7:  # the premise of a case, hop or visser
                if not isinstance(ty, Disj):
                    raise NotADisjunction(ty)
                todo.append((node, cx, 8, ty))
                node, cx = node.branch1, _child_context(node, 1, cx, ty)
                break
            elif stage == 8:  # branch1's; kept is the premise's
                todo.append((node, cx, 9, ty))
                node, cx = node.branch2, _child_context(node, 2, cx, kept)
                break
            else:  # branch2's, then each visser app branch's in turn; kept is branch1's
                if not _same(ty, kept):
                    raise BranchTypeMismatch(kept, ty)
                j = stage - 9  # the app branch to type next
                if isinstance(node, Visser) and j < len(node.binders):
                    todo.append((node, cx, stage + 1, kept))
                    node, cx = node.app_branches[j], _child_context(node, 3 + j, cx)
                    break
                ty = kept
            memo[id(node)] = ty
        else:
            return ty


def check(ctx: TypingContext, t: Term, expected: Formula, calculus: str = "IPC") -> None:
    """Raise unless t has exactly the expected type under ctx."""
    got = infer(ctx, t, calculus)
    if not _same(got, expected):
        raise TypeMismatch(expected, got)


def checks(ctx: TypingContext, t: Term, expected: Formula | None = None,
           calculus: str = "IPC") -> bool:
    """True iff t types under ctx, and at `expected` when one is given."""
    try:
        got = infer(ctx, t, calculus)
    except TypeCheckError:
        return False
    return expected is None or _same(got, expected)
