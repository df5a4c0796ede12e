"""Spans around the calls into each layer, recorded from outside the program.

A traced pass replaces, for its duration, every public function that one
vkp module imported from another (for example `vkp.cli.parse_script` or
`vkp.oracle.find_countermodel`) and every function the benchmark calls,
with a wrapper that records a span: layer, function, start, end, parent
span and item.  A module's own globals are left alone, so recursive
self-calls (`infer`, `_prove`, `substitute`) are not spanned; a layer's
time is the time of the calls that enter it from another layer.

Counters are taken at the same boundaries by small hooks on the wrapped
calls.  A hook runs after its span has ended and is itself recorded as a
span of the benchmark, so its cost is not charged to any layer.  The
benchmark's own work in a pass (visiting an item, checking its answer,
collecting garbage) is spanned too, so the spans of a pass cover its wall
time except for the loop that joins them; the report says how much is
left over.
"""

from __future__ import annotations

import gzip
import math
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict
from inspect import isfunction

from terms import size

LAYERS = ("gen", "parser", "typecheck", "syntax", "reduction", "normalize",
          "oracle", "kripke", "cli")
BENCH = "bench"
_ALL = LAYERS + (BENCH,)

# Per-node tree plumbing of vkp.syntax: called once per node visited by
# every walker, so a span would cost more than the call.  Its time counts
# to the caller.  The syntax layer is spanned through substitute,
# free_vars, alpha_eq and nameless.
NOT_SPANNED = {"children", "with_children", "replace_at", "subterm_at",
               "binders_of_child", "fresh_name", "term_size", "term_depth",
               "neg", "is_neg"}

GROWTH = {  # per-doubling growth metric -> the layer whose time it follows
    "parser.growth.defs": "parser",
    "normalize.growth.beta": "normalize",
    "normalize.growth.proj": "normalize",
    "normalize.growth.case": "normalize",
    "normalize.growth.hop": "normalize",
    "normalize.growth.visser": "normalize",
    "oracle.growth.width": "oracle",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "gen.nodes_per_s": "1/s", "gen.failed": "count",
        "parser.nodes_out": "count",
        "typecheck.nodes_per_s": "1/s",
        "reduction.reducts": "count",
        "normalize.steps": "count", "normalize.steps_per_s": "1/s",
        "oracle.decided_share": "share",
        "kripke.max_worlds": "count",
        "cli.nonzero_exits": "count",
        "bench.self_s": "s",
        "trace.unaccounted_share": "share",
        "trace.overhead_share": "share",
    })
    units.update(dict.fromkeys(GROWTH, "ratio"))
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.layer = array("b")
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.item_now = -1
        self.counts: Counter = Counter()
        self.max_worlds = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._bench: dict[str, object] = {}

    # -------------------------------------------------------- recording

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, layer: int, fn: int, parent: int) -> int:
        with self._lock:
            sid = len(self.start)
            self.layer.append(layer)
            self.fn.append(fn)
            self.parent.append(parent)
            self.item.append(self.item_now)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        return sid

    def _fn_ix(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def wrap(self, layer: str, name: str, fn, hook=None):
        li, fi = _ALL.index(layer), self._fn_ix(name)
        hook_fi = self._fn_ix(f"count:{name}")
        bench = _ALL.index(BENCH)
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            st = self._stack()
            if st:
                parent = st[-1]
            elif st is not main_stack and main_stack:
                parent = main_stack[-1]  # a worker thread of the cli's pool
            else:
                parent = -1
            sid = self._open(li, fi, parent)
            st.append(sid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self.end[sid] = time.perf_counter()
                st.pop()
                if hook is not None:
                    h = self._open(bench, hook_fi, parent)
                    hook(args, None, e)
                    self.end[h] = time.perf_counter()
                raise
            self.end[sid] = time.perf_counter()
            st.pop()
            if hook is not None:
                h = self._open(bench, hook_fi, parent)
                hook(args, out, None)
                self.end[h] = time.perf_counter()
            return out

        return traced

    def bench(self, name: str, fn, *args):
        """fn(*args), recorded as a span of the benchmark's own code."""
        if name not in self._bench:
            self._bench[name] = self.wrap(BENCH, name, lambda f, *a: f(*a))
        return self._bench[name](fn, *args)

    # -------------------------------------------------------- installing

    def _hook(self, name: str, where: str):
        c = self.counts

        def gen(args, out, exc):
            if exc is None:
                c["gen.nodes"] += size(out[1])
            elif type(exc).__name__ == "GenerationFailed":
                c["gen.failed"] += 1

        def parsed(args, out, exc):
            if exc is None:
                c["parser.nodes_out"] += sum(size(d.body) for d in out)

        def typed(args, out, exc):
            c["typecheck.nodes"] += size(args[1])

        def reducts(args, out, exc):
            if exc is None:
                c["reduction.reducts"] += len(out)

        def stepped(args, out, exc):
            if out is not None:
                c["normalize.steps"] += 1

        def decided(args, out, exc):
            c["oracle.questions"] += 1
            if exc is None:
                c["oracle.decided"] += 1

        def worlds(args, out, exc):
            if out is not None:
                self.max_worlds = max(self.max_worlds, out.size)

        def exits(args, out, exc):
            if exc is not None or out != 0:
                c["cli.nonzero_exits"] += 1

        if name in ("step_top_named", "step_weak_head_named"):
            # a redex found for the normalizer is one contraction
            return stepped if where == "vkp.normalize" else None
        return {
            "generate_typed": gen, "parse_script": parsed,
            "check": typed, "checks": typed, "infer": typed,
            "step_anywhere": reducts, "ipc_provable": decided,
            "find_countermodel": worlds, "main": exits,
        }.get(name)

    def install(self, modules: dict, K):
        """Wrap cross-layer imports in every vkp module, and the
        benchmark's own references in K."""
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        targets = [(m, m.__name__) for m in modules.values()] + [(K, "bench")]
        for obj, where in targets:
            for name, fn in list(vars(obj).items()):
                if not isfunction(fn) or name.startswith("_") or name in NOT_SPANNED:
                    continue
                home = layer_of.get(fn.__module__)
                if home is None or fn.__module__ == where:
                    continue
                self._patched.append((obj, name, fn))
                setattr(obj, name, self.wrap(home, name, fn, self._hook(name, where)))

    def uninstall(self):
        for obj, name, fn in reversed(self._patched):
            setattr(obj, name, fn)
        self._patched.clear()

    # -------------------------------------------------------- results

    def write(self, path: str):
        """Gzipped TSV, one span per line in opening order (the line number
        less two is the span id); times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# functions: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            fh.write("parent\titem\tlayer\tfunction\tstart_us\tend_us\n")
            fh.writelines(
                f"{p}\t{it}\t{_ALL[la]}\t{fn}\t{round((s - t0) * 1e6)}\t{round((e - t0) * 1e6)}\n"
                for p, it, la, fn, s, e in zip(self.parent, self.item, self.layer, self.fn,
                                               self.start, self.end))

    def self_times(self) -> array:
        """Span duration minus the time covered by its children.

        Children in one thread run one after another.  The only concurrent
        children are those of a `vkp check` on several files, which the
        command's pool runs side by side; the parent loses the union of
        their intervals, not their sum.
        """
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append((self.start[i], self.end[i]))
        for p, spans in children.items():
            covered, reach = 0.0, -math.inf
            for s, e in sorted(spans):
                if e > reach:
                    covered += e - max(s, reach)
                    reach = e
            out[p] -= covered
        return out

    def report(self, wall: float, untraced_wall: float, outcomes, ladders) -> tuple[dict, dict]:
        """Per-layer metrics, and the accounting and growth details.

        outcomes: the traced passes' outcomes, in span item order.
        ladders: item index -> (growth metric, n).
        """
        n = len(self.start)
        selfs = self.self_times()
        busy = Counter()
        self_s = Counter()
        calls = Counter()
        item_busy: dict[tuple[int, str], float] = Counter()
        for i in range(n):
            layer = _ALL[self.layer[i]]
            self_s[layer] += selfs[i]
            if layer == BENCH:
                continue
            calls[layer] += 1
            p = self.parent[i]
            while p >= 0 and self.layer[p] != self.layer[i]:
                p = self.parent[p]
            if p < 0:  # outermost span of its layer
                d = self.end[i] - self.start[i]
                busy[layer] += d
                item_busy[(self.item[i], layer)] += d

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = busy[layer]
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.calls"] = calls[layer]
        c = self.counts
        rate = lambda k, layer: c[k] / busy[layer] if busy[layer] > 0 else 0.0  # noqa: E731
        m["gen.nodes_per_s"] = rate("gen.nodes", "gen")
        m["gen.failed"] = c["gen.failed"]
        m["parser.nodes_out"] = c["parser.nodes_out"]
        m["typecheck.nodes_per_s"] = rate("typecheck.nodes", "typecheck")
        m["reduction.reducts"] = c["reduction.reducts"]
        m["normalize.steps"] = c["normalize.steps"]
        m["normalize.steps_per_s"] = rate("normalize.steps", "normalize")
        m["oracle.decided_share"] = (c["oracle.decided"] / c["oracle.questions"]
                                     if c["oracle.questions"] else 0.0)
        m["kripke.max_worlds"] = self.max_worlds
        m["cli.nonzero_exits"] = c["cli.nonzero_exits"]
        m["bench.self_s"] = self_s[BENCH]
        accounted = sum(self_s.values())
        m["trace.unaccounted_share"] = 1 - accounted / wall if wall > 0 else 0.0
        m["trace.overhead_share"] = wall / untraced_wall - 1 if untraced_wall > 0 else 0.0

        runs: dict[tuple[str, int], list] = defaultdict(list)
        for i, (metric, size_n) in ladders.items():
            runs[(metric, size_n)].append(item_busy[(i, GROWTH[metric])] if outcomes[i].ok else None)
        ladder_times: dict[str, list] = defaultdict(list)
        for (metric, size_n), ts in sorted(runs.items()):
            t = None if None in ts else statistics.median(ts)
            ladder_times[metric].append((size_n, t))
        for metric in GROWTH:
            m[metric] = _growth(ladder_times.get(metric, []))

        detail = {
            "wall_s": wall,
            "untraced_wall_s": untraced_wall,
            "spans": n,
            "self_sum_s": accounted,
            "ladders": dict(ladder_times),
        }
        return m, detail


def _growth(points: list[tuple[int, float | None]]) -> float:
    """Geometric mean of t(next n) / t(n) over neighbouring ladder sizes
    that both completed; 0 when no such pair exists."""
    ratios = [b / a for (_, a), (_, b) in zip(points, points[1:])
              if a is not None and b is not None and a > 0]
    if not ratios:
        return 0.0
    return math.exp(sum(map(math.log, ratios)) / len(ratios))
