"""A typed shrinker for generated terms, used by the tests to cut a failing
case down.

shrink_typed proposes strictly smaller terms of the same type under the
same context: every proper subterm that types there, and the term with one
non-variable position replaced by a context variable.  Candidates are kept
once per alpha-equivalence class and returned in size order.
"""

from vkp.syntax import (
    Formula, Term, TypingContext, Var, children, free_vars, nameless,
    replace_at, term_size,
)
from vkp.typecheck import checks


def _paths(t: Term):
    """Every (position, subterm) of t, preorder."""
    stack = [((), t)]
    while stack:
        path, s = stack.pop()
        yield path, s
        kids = children(s)
        stack.extend((path + (i,), kids[i]) for i in reversed(range(len(kids))))


def shrink_typed(ctx: TypingContext, t: Term, a: Formula,
                 calculus: str = "IPC") -> list[Term]:
    """Smaller terms of the same type under the same context, size order."""
    out = []
    seen = {nameless(t)}
    for path, s in _paths(t):
        if not path:
            continue
        if free_vars(s) <= set(ctx) and checks(ctx, s, a, calculus):
            key = nameless(s)
            if key not in seen:
                seen.add(key)
                out.append(s)
    names = sorted(ctx)
    for path, s in _paths(t):
        if isinstance(s, Var):  # no smaller: every other node has size >= 2
            continue
        for n in names:
            cand = replace_at(t, path, Var(n))
            key = nameless(cand)
            if key in seen:
                continue
            if checks(ctx, cand, a, calculus):
                seen.add(key)
                out.append(cand)
    out.sort(key=lambda s: (term_size(s), repr(s)))
    return out
