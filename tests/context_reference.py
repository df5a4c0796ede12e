"""The reducer's child-context rule as it stood before the type checker's
`_child_context` became the one rule, the reference that rule's tests are
held against.

child_context is the old body unchanged: it works out the premise's type
itself, by `infer`, where a branch needs it.
"""

from vkp.syntax import Abs, Case, Harrop, Impl, Term, TypingContext, Visser
from vkp.typecheck import _curried, infer


def child_context(t: Term, i: int, ctx: TypingContext, calculus: str) -> TypingContext:
    """Typing context for child i of t, given the context ctx of t.

    Branch binder types come from the premise, so this infers where needed.
    """
    match t:
        case Abs(x, a, _):
            return {**ctx, x: a}
        case Case(sc, y, _, _):
            if i == 0:
                return ctx
            ts = infer(ctx, sc, calculus)
            return {**ctx, y: ts.left if i == 1 else ts.right}
        case Visser(bs, m, y, _, _, z, _):
            if i == 0:
                return dict(bs)  # the main premise sees the binders only
            if i in (1, 2):
                tm = infer(dict(bs), m, calculus)
                side = tm.left if i == 1 else tm.right
                return {**ctx, y: _curried(bs, side)}
            return {**ctx, z: _curried(bs, bs[i - 3][1].left)}
        case Harrop(x, a, m, y, _, _):
            if i == 0:
                return {**ctx, x: a}
            tm = infer({**ctx, x: a}, m, calculus)
            return {**ctx, y: Impl(a, tm.left if i == 1 else tm.right)}
    return ctx
