"""Items, per-item deadlines, passes and the end-to-end statistics.

One process, one closed-loop client: the next item starts when the
previous one has returned.  An item's latency is the time of its calls
into the program; checking the answer afterwards is not timed.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


class DeadlineMissed(BaseException):
    """Raised by SIGALRM inside a late item.  A BaseException, so that no
    `except Exception` in the program can swallow it."""


def _alarm(signum, frame):
    raise DeadlineMissed()


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    # None when run()'s output matches the known answer, else what differs
    verify: Callable[[object], str | None]
    deadline: float
    # (growth metric, n) for items on a doubling ladder
    ladder: tuple[str, int] | None = None


@dataclass
class Outcome:
    name: str
    status: str  # ok | wrong | deadline | error:<ExceptionName>
    seconds: float  # fastest call of the visit; for a failure, the time until it failed
    detail: str = ""
    at: float = 0.0  # perf_counter() when the visit began

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# A visit to an item calls it back to back until it has run this long or
# this often, and keeps the fastest call: sub-millisecond items get many
# samples, long items one per pass.
VISIT_S = 0.002
VISIT_CALLS = 20


def _call(item: Item):
    """(output, seconds) of one call, under the item's deadline."""
    signal.setitimer(signal.ITIMER_REAL, item.deadline)
    try:
        t0 = time.perf_counter()
        out = item.run()
        return out, time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_item(item: Item, tracer=None, repeat: bool = True) -> Outcome:
    """One visit.  A traced run calls each item once per visit, so that the
    layer counters do not depend on timing; with a tracer, checking the
    answer is recorded as a span."""
    t0 = time.perf_counter()
    try:
        out, best = _call(item)
        calls, spent = 1, best
        while repeat and spent < VISIT_S and calls < VISIT_CALLS:
            _, dt = _call(item)
            best, calls, spent = min(best, dt), calls + 1, spent + dt
    except DeadlineMissed:
        return Outcome(item.name, "deadline", item.deadline, f"over {item.deadline} s", t0)
    except Exception as e:  # noqa: BLE001 - an item's failure is data, not a crash
        return Outcome(item.name, f"error:{type(e).__name__}",
                       time.perf_counter() - t0, str(e)[:200], t0)
    try:
        msg = item.verify(out) if tracer is None else tracer.bench("verify", item.verify, out)
    except Exception as e:  # noqa: BLE001
        return Outcome(item.name, f"error:{type(e).__name__}", best,
                       f"while checking: {str(e)[:200]}", t0)
    if msg:
        return Outcome(item.name, "wrong", best, msg, t0)
    return Outcome(item.name, "ok", best, at=t0)


def run_pass(items: list[Item], tracer=None, base: int = 0,
             previous: list[Outcome] | None = None,
             repeat: bool = True, speed: HostSpeed | None = None,
             order: list[int] | None = None) -> tuple[list[Outcome], float]:
    """Visit every item once; the outcomes and the wall time of the pass,
    less the time of the speed's ticks between items.  The items are
    visited in the given order (default: as listed) and the outcomes are
    returned as listed.

    With a tracer, spans are tagged with base + the item's index.  An item
    that missed its deadline in the previous pass is not run again: its
    time is the deadline.
    """
    t0 = time.perf_counter()
    ticks = speed.spent if speed is not None else 0.0
    if tracer is None:
        gc.collect()
    else:
        tracer.bench("gc", gc.collect)
    outs: list[Outcome | None] = [None] * len(items)
    for i in order if order is not None else range(len(items)):
        it = items[i]
        before = previous[i] if previous is not None else None
        if before is not None and before.status == "deadline":
            outs[i] = before
        elif tracer is None:
            outs[i] = run_item(it, repeat=repeat)
        else:
            tracer.item_now = base + i
            outs[i] = tracer.bench("item", run_item, it, tracer, False)
        if speed is not None:
            speed.tick()
    if speed is not None:
        ticks = speed.spent - ticks
    return outs, time.perf_counter() - t0 - ticks


def install_alarm():
    signal.signal(signal.SIGALRM, _alarm)


class _Node:
    __slots__ = ("left", "right", "label")

    def __init__(self, left, right, label):
        self.left, self.right, self.label = left, right, label


def _build(depth):
    if depth == 0:
        return None
    return _Node(_build(depth - 1), _build(depth - 1), depth)


def _size(node):
    return 0 if node is None else node.label + _size(node.left) + _size(node.right)


def _tree():
    """Build a binary tree of 1023 objects and walk it, as terms are."""
    return _size(_build(10))


def _text():
    """Format, split and count words, as the parser and printer do."""
    lines = [f"def f{i} : p{i % 7} -> q := fun (x : p{i % 7}) => x" for i in range(200)]
    counts = {}
    for line in lines:
        for word in line.split():
            counts[word] = counts.get(word, 0) + 1
    return len("\n".join(lines)) + len(counts)


_SCAN = [(i, 3 * i) for i in range(1 << 15)]


def _scan():
    """Read 32768 tuples spread over a few MB: tracks memory contention."""
    total = 0
    for pair in _SCAN:
        total += pair[1]
    return total


class HostSpeed:
    """How fast the host ran around each moment of a run, from fixed
    reference loops.

    A shared host changes speed by up to two times, for seconds to minutes
    at a time, and that moves every timing taken meanwhile.  Three fixed
    pure-Python loops like the program's own work (building and walking a
    tree of objects; formatting and splitting text into a dict; scanning a
    few MB of tuples) are timed between items all through the run.  The
    slowdown around an interval is the geometric mean, over the loops, of
    each loop's median time within WINDOW_S of the interval against its
    time on the reference host (REFERENCE_MS).  Item times are divided by
    the slowdown around them, so that they read as times on the reference
    host.  The loops are the benchmark's own code, so a change to vkp does
    not move them.
    """

    # median times in ms in a quiet hour: Intel Xeon, 2 vCPUs, Python 3.11.7
    REFERENCE_MS = {"tree": 0.55, "text": 0.44, "scan": 1.12}
    LOOPS = {"tree": _tree, "text": _text, "scan": _scan}
    # at most one tick per this much time, so the loops take a few percent
    EVERY_S = 0.05
    WINDOW_S = 1.0

    def __init__(self):
        self.times: list[float] = []  # when each tick began
        self.ticks: list[tuple[float, ...]] = []  # seconds per loop
        self.last = -math.inf
        self.spent = 0.0

    def tick(self):
        now = time.perf_counter()
        if now - self.last < self.EVERY_S:
            return
        took = []
        for loop in self.LOOPS.values():
            t0 = time.perf_counter()
            loop()
            took.append(time.perf_counter() - t0)
        self.times.append(now)
        self.ticks.append(tuple(took))
        self.last = time.perf_counter()
        self.spent += self.last - now

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The slowdown within WINDOW_S of [start, end]; over the whole run
        by default, or when no tick fell near the interval."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.ticks[lo:hi] or self.ticks
        ratios = [statistics.median(t[j] for t in near) * 1e3 / ms
                  for j, ms in enumerate(self.REFERENCE_MS.values())]
        return math.prod(ratios) ** (1 / len(ratios))

    def median_ms(self) -> dict:
        return {k: round(statistics.median(t[j] for t in self.ticks) * 1e3, 5)
                for j, k in enumerate(self.LOOPS)}


@dataclass
class Summary:
    passes: list[list[Outcome]] = field(default_factory=list)
    # measured times are divided by its slowdown around them (none: 1)
    speed: HostSpeed | None = None

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for p in self.passes for o in p]

    def failures(self) -> list[Outcome]:
        """Failed items, each (name, status) once."""
        seen = {}
        for o in self.outcomes:
            if not o.ok:
                seen.setdefault((o.name, o.status), o)
        return list(seen.values())

    def correct(self, known: set[str]) -> tuple[bool, list[str]]:
        """No wrong answer, and no failure other than a known defect."""
        bad = [f"{o.name}: {o.status}: {o.detail}" for o in self.failures()
               if o.status == "wrong" or o.name not in known]
        return not bad, bad

    def metrics(self, deadline_cap: float) -> dict:
        """The end-to-end numbers, over the item set.

        Every pass visits the same items, spread over the run.  A visit's
        time is its fastest call, or for a failure the time until it
        failed, divided by the host's slowdown around the visit; a missed
        deadline costs the whole deadline.  An item's time is the median
        of its visits' times.  Throughput is completed items per second of these times, so a
        failure costs its time and completes nothing.  For the latency
        percentiles a failed item is infinitely late (printed as its
        deadline); the tail is the highest percentile with at least ten
        items beyond it.  An item is ok when it was ok in every pass.
        """
        n = len(self.passes[0])
        def seconds(o: Outcome) -> float:
            if o.status == "deadline" or self.speed is None:
                return o.seconds
            return o.seconds / self.speed.slowdown(o.at, o.at + o.seconds)

        best = [statistics.median(seconds(p[i]) for p in self.passes) for i in range(n)]
        ok = [all(p[i].ok for p in self.passes) for i in range(n)]
        lat = sorted(b if k else math.inf for b, k in zip(best, ok))
        cap = lambda x: x if math.isfinite(x) else deadline_cap  # noqa: E731
        return {
            "items_per_s": sum(ok) / sum(best),
            "item_p50_ms": cap(statistics.median(lat)) * 1e3,
            "item_tail_ms": cap(lat[max(0, n - 11)]) * 1e3,
            "ok_share": sum(ok) / n,
            "fail_share": 1 - sum(ok) / n,
            "tail_percentile": 100.0 * max(1, n - 10) / n,
            "tail_samples": n,
            "passes": len(self.passes),
            "items": n,
            "failed_items": n - sum(ok),
        }
