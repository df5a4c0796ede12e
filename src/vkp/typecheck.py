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
meets first.

A compound node's type is kept on the node, in the hidden `_ty` slot, and
the scope it was typed under in `_scope`: the pair (calculus, context),
one object per context that every node typed under it shares, so an entry
costs no object of its own.  A node met again, in this call or a later
one, reuses its type when the calculus is the same and the context gives
each free variable of the node the formula the kept context gave it.
That is sound because a node's type is a function of the node, the
calculus and the formulas of its free variables alone.  It rests on a
kept context never being changed: `infer` copies the caller's context
once at the root, and a binder gets a new dict.  So re-checking a reduct
or a normal form costs its rebuilt spine, and since scripts inline
definitions as shared nodes, `check` is linear in a script's size.
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
    if a is b:  # answered before any stack is built
        return True
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
    todo = []  # (node, its scope, stage, a type the stage needs), innermost last
    # a scope is (calculus, context), one object per context, kept on every
    # node typed under it; the root's is a copy that nothing changes
    node, sc = t, (calculus, dict(ctx))
    while True:
        cx = sc[1]
        # down: enter node, then its first child, until a type is known
        while True:
            cls = type(node)
            if cls is Var:
                if node.name not in cx:
                    raise UnknownVariable(node.name)
                ty = cx[node.name]
                break
            ty = getattr(node, "_ty", None)
            if ty is not None and _holds(node._scope, sc, node):
                break
            if cls is App:
                todo.append((node, sc, 2, None))
                node = node.fun
            elif cls is Abs:
                todo.append((node, sc, 1, None))
                cx = _child_context(node, 0, cx)
                node, sc = node.body, (calculus, cx)
            elif cls is Pair:
                todo.append((node, sc, 4, None))
                node = node.fst
            elif cls is Proj or cls is Inj or cls is Exfalso:
                todo.append((node, sc, 6, None))
                node = node.arg
            elif cls is Case:
                todo.append((node, sc, 7, None))
                node = node.scrutinee
            elif cls is Harrop:
                if calculus != "KP":
                    raise CalculusViolation("hop", calculus)
                todo.append((node, sc, 7, None))
                cx = _child_context(node, 0, cx)
                node, sc = node.main, (calculus, cx)
            elif cls is Visser:
                if calculus != "V":
                    raise CalculusViolation("visser", calculus)
                extra = free_vars(node.main) - {n for n, _ in node.binders}
                if extra:
                    raise VisserOpenAssumption(extra)
                todo.append((node, sc, 7, None))
                cx = _child_context(node, 0, cx)
                node, sc = node.main, (calculus, cx)
            else:
                raise TypeError(f"not a term: {node!r}")
        # up: finish the nodes waiting on ty, until one needs another child
        while todo:
            node, sc, stage, kept = todo.pop()
            if stage == 1:
                ty = Impl(node.annot, ty)
            elif stage == 2:  # the function's type, checked before the argument is typed
                if not isinstance(ty, Impl):
                    raise NotAnImplication(ty)
                todo.append((node, sc, 3, ty))
                node = node.arg
                break
            elif stage == 3:
                if not _same(ty, kept.left):
                    raise TypeMismatch(kept.left, ty)
                ty = kept.right
            elif stage == 4:
                todo.append((node, sc, 5, ty))
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
                todo.append((node, sc, 8, ty))
                node, sc = node.branch1, (calculus, _child_context(node, 1, sc[1], ty))
                break
            elif stage == 8:  # branch1's; kept is the premise's
                todo.append((node, sc, 9, ty))
                node, sc = node.branch2, (calculus, _child_context(node, 2, sc[1], kept))
                break
            else:  # branch2's, then each visser app branch's in turn; kept is branch1's
                if not _same(ty, kept):
                    raise BranchTypeMismatch(kept, ty)
                j = stage - 9  # the app branch to type next
                if isinstance(node, Visser) and j < len(node.binders):
                    todo.append((node, sc, stage + 1, kept))
                    cx = _child_context(node, 3 + j, sc[1])
                    node, sc = node.app_branches[j], (calculus, cx)
                    break
                ty = kept
            _keep_type(node, ty)
            _keep_scope(node, sc)
        else:
            return ty


# the slots' own setters: no attribute lookup, and no frozen-dataclass guard
_keep_type, _keep_scope = Term._ty.__set__, Term._scope.__set__


def _holds(was: tuple, now: tuple, node: Term) -> bool:
    """Whether the type node had in scope was holds in scope now, each a
    (calculus, context) pair: the same calculus, and a context that gives
    every free variable of node the formula was gave it."""
    if was[0] != now[0]:
        return False
    old, cx = was[1], now[1]
    for x in free_vars(node):
        a = cx.get(x)
        if a is None or not _same(a, old[x]):
            return False
    return True


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
