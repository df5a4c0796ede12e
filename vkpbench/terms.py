"""The benchmark's own view of vkp values.

Expected answers and digests must not come from the code under test, so
this module has its own formula printer, truth tables, Kripke forcing,
node counts and canonical (nameless) forms.  The term walkers are
iterative: chain and nesting items build terms deeper than the default
recursion limit, and the benchmark must still be able to compare them.

Terms and formulas are the program's dataclasses; they are told apart by
class name, because every set-up re-imports the package.
"""

from __future__ import annotations

import hashlib
import itertools

# ------------------------------------------------------------ formulas
#
# The benchmark builds formulas as tuples:
#   ("atom", name)  ("false",)  ("->", l, r)  ("/\\", l, r)  ("\\/", l, r)

FALSE = ("false",)
IMP, AND, OR = "->", "/\\", "\\/"


def atom(n: str) -> tuple:
    return ("atom", n)


def imp(l, r) -> tuple:
    return (IMP, l, r)


def neg(a) -> tuple:
    return (IMP, a, FALSE)


def big(op: str, parts: list) -> tuple:
    """Left-nested chain of one connective, as the parser builds it."""
    out = parts[0]
    for p in parts[1:]:
        out = (op, out, p)
    return out


def show(a: tuple, prec: int = 0) -> str:
    """Concrete syntax with minimal parentheses, ~X for X -> False.

    Precedence contexts: 0 implication body, 1 disjunct, 2 conjunct,
    3 negation argument; -> is right associative, /\\ and \\/ left.
    """
    k = a[0]
    if k == "atom":
        return a[1]
    if k == "false":
        return "False"
    if k == IMP and a[2] == FALSE:
        return "~" + show(a[1], 3)
    if k == IMP:
        s = f"{show(a[1], 1)} -> {show(a[2], 0)}"
        return f"({s})" if prec > 0 else s
    if k == OR:
        s = f"{show(a[1], 1)} \\/ {show(a[2], 2)}"
        return f"({s})" if prec > 1 else s
    s = f"{show(a[1], 2)} /\\ {show(a[2], 3)}"
    return f"({s})" if prec > 2 else s


def to_vkp(a: tuple, K):
    """The program's Formula for a benchmark formula."""
    k = a[0]
    if k == "atom":
        return K.Atom(a[1])
    if k == "false":
        return K.Falsum()
    cls = {IMP: K.Impl, AND: K.Conj, OR: K.Disj}[k]
    return cls(to_vkp(a[1], K), to_vkp(a[2], K))


def atoms_in(a: tuple) -> set[str]:
    if a[0] == "atom":
        return {a[1]}
    if a[0] == "false":
        return set()
    return atoms_in(a[1]) | atoms_in(a[2])


def holds(a: tuple, v: dict[str, bool]) -> bool:
    k = a[0]
    if k == "atom":
        return v[a[1]]
    if k == "false":
        return False
    if k == IMP:
        return not holds(a[1], v) or holds(a[2], v)
    if k == AND:
        return holds(a[1], v) and holds(a[2], v)
    return holds(a[1], v) or holds(a[2], v)


def classical_tautology(a: tuple) -> bool:
    names = sorted(atoms_in(a))
    return all(holds(a, dict(zip(names, bits)))
               for bits in itertools.product((False, True), repeat=len(names)))


def from_vkp(f) -> tuple:
    """Benchmark tuple for one of the program's formulas."""
    k = type(f).__name__
    if k == "Atom":
        return ("atom", f.name)
    if k == "Falsum":
        return FALSE
    op = {"Impl": IMP, "Conj": AND, "Disj": OR}[k]
    return (op, from_vkp(f.left), from_vkp(f.right))


# ------------------------------------------------------------ Kripke models


def refutes(size: int, order: set, valuation: dict[str, set], a: tuple) -> str | None:
    """None when (size, order, valuation) is a rooted Kripke model whose root
    does not force a; otherwise what is wrong with it."""
    worlds = range(size)
    if size < 1:
        return "no worlds"
    if any(not (0 <= u < size and 0 <= v < size) for u, v in order):
        return "order leaves the worlds"
    if any((w, w) not in order for w in worlds):
        return "order not reflexive"
    if any((v, u) in order for u, v in order if u != v):
        return "order not antisymmetric"
    if any((u, w) not in order for u, v in order for v2, w in order if v == v2):
        return "order not transitive"
    if any((0, w) not in order for w in worlds):
        return "world 0 is not the root"
    up = {w: [v for v in worlds if (w, v) in order] for w in worlds}
    for name, ws in valuation.items():
        if any(v not in ws for w in ws for v in up[w]):
            return f"valuation of {name} not up-closed"

    def forced(w, b):
        k = b[0]
        if k == "atom":
            return w in valuation.get(b[1], ())
        if k == "false":
            return False
        if k == AND:
            return forced(w, b[1]) and forced(w, b[2])
        if k == OR:
            return forced(w, b[1]) or forced(w, b[2])
        return all(not forced(v, b[1]) or forced(v, b[2]) for v in up[w])

    return "root forces the formula" if forced(0, a) else None


def model_parts(m) -> tuple[int, set, dict]:
    """(size, order, valuation) of the program's KripkeModel."""
    return m.size, set(m.order), {k: set(v) for k, v in m.valuation.items()}


def parse_described_model(text: str) -> tuple[int, set, dict]:
    """Read the model `vkp prove` prints after 'countermodel:'."""
    lines = text.splitlines()
    size = int(lines[0].split()[0])
    order = {(w, w) for w in range(size)}
    valuation: dict[str, set] = {}
    for line in lines[1:]:
        head, _, rest = line.strip().partition(" ")
        if rest.startswith("<="):
            w = int(head[1:])
            ups = rest[2:].split()
            order |= {(w, int(u[1:])) for u in ups if u != "(none)"}
        else:
            ws = rest.strip("{} ")
            valuation[head.rstrip(":")] = {int(x.strip()[1:]) for x in ws.split(",") if x.strip()}
    return size, order, valuation


# ------------------------------------------------------------ terms


def fcanon(f) -> str:
    k = type(f).__name__
    if k == "Atom":
        return f.name
    if k == "Falsum":
        return "F"
    return f"({k[0]} {fcanon(f.left)} {fcanon(f.right)})"


def _parts(t):
    """(label, [(child, binders)]) of a term node; binders scope the child."""
    k = type(t).__name__
    if k == "App":
        return "app", [(t.fun, ()), (t.arg, ())]
    if k == "Abs":
        return f"abs {fcanon(t.annot)}", [(t.body, (t.binder,))]
    if k == "Exfalso":
        return f"efq {fcanon(t.target)}", [(t.arg, ())]
    if k == "Pair":
        return "pair", [(t.fst, ()), (t.snd, ())]
    if k == "Proj":
        return f"proj{t.index}", [(t.arg, ())]
    if k == "Inj":
        return f"inj{t.index} {fcanon(t.other)}", [(t.arg, ())]
    if k == "Case":
        y = (t.binder,)
        return "case", [(t.scrutinee, ()), (t.branch1, y), (t.branch2, y)]
    if k == "Visser":
        names = tuple(n for n, _ in t.binders)
        annots = " ".join(fcanon(a) for _, a in t.binders)
        y, z = (t.case_binder,), (t.app_binder,)
        kids = [(t.main, names), (t.branch1, y), (t.branch2, y)]
        return f"visser [{annots}]", kids + [(u, z) for u in t.app_branches]
    if k == "Harrop":
        y = (t.case_binder,)
        return f"hop {fcanon(t.annot)}", [(t.main, (t.binder,)), (t.branch1, y), (t.branch2, y)]
    raise TypeError(f"not a term: {t!r}")


def canon(t, named: bool = False) -> str:
    """Canonical text of a term: bound variables as indices (alpha-invariant),
    or with their names kept when named is set."""
    out: list[str] = []
    stack: list = [(t, {}, 0, ())]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        s, env, depth, binders = item
        if binders:
            env = dict(env)
            for b in binders:
                env[b] = depth
                depth += 1
            if named:
                out.append("\\" + ",".join(binders) + ".")
        if type(s).__name__ == "Var":
            lvl = env.get(s.name)
            out.append(s.name if named or lvl is None else f"#{depth - lvl - 1}")
            out.append(" ")
            continue
        label, kids = _parts(s)
        out.append(f"({label} ")
        stack.append(") ")
        for kid, bs in reversed(kids):
            stack.append((kid, env, depth, bs))
    return "".join(out)


def size(t) -> int:
    n = 0
    stack = [t]
    while stack:
        s = stack.pop()
        n += 1
        if type(s).__name__ != "Var":
            stack.extend(kid for kid, _ in _parts(s)[1])
    return n


def contains(t, kind: str) -> bool:
    stack = [t]
    while stack:
        s = stack.pop()
        if type(s).__name__ == kind:
            return True
        if type(s).__name__ != "Var":
            stack.extend(kid for kid, _ in _parts(s)[1])
    return False


def ctx_canon(ctx) -> str:
    return ";".join(f"{n}:{fcanon(a)}" for n, a in ctx.items())


# ------------------------------------------------------------ digests


class Digests:
    """Running hashes of behaviour: generated corpus, normal forms, traces.

    Only the first pass of a run feeds them, so they do not depend on how
    many passes fit in the run.
    """

    NAMES = ("corpus", "normal_forms", "traces")

    def __init__(self):
        self.active = True
        self._h = {n: hashlib.sha256() for n in self.NAMES}
        self.count = dict.fromkeys(self.NAMES, 0)

    def add(self, name: str, text: str):
        if self.active:
            self._h[name].update(text.encode())
            self._h[name].update(b"\n")
            self.count[name] += 1

    def trace(self, steps):
        """steps: iterable of (path, rule)."""
        self.add("traces", " ".join(f"{'.'.join(map(str, p)) or 'root'}:{r}" for p, r in steps))

    def summary(self) -> dict:
        return {n: {"sha256": self._h[n].hexdigest()[:16], "items": self.count[n]}
                for n in self.NAMES}
