"""Self-test of the benchmark.

A tiny run of each workload, traced and untraced, must print every metric
BENCHMARK.json names, with its unit; a planted wrong expected answer, and
a missed deadline on an item that is not a known defect, must each make
the run incorrect; and item times must be divided by the host slowdown
measured around them.

    PYTHONPATH=src python3 -m pytest vkpbench
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


# A run of six items spread over the workload: run.main with the
# workload's build cut down, in a fresh interpreter.
TINY = f"""
import sys
sys.path.insert(0, {HERE!r})
import run
build = run.build
run.build = lambda *a: (lambda items: [items[i * len(items) // 6] for i in range(6)])(build(*a))
sys.exit(run.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "-c", TINY, "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] == 6
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert all(v >= 0 for k, v in values.items() if k.endswith(".self_s"))


def _run(items):
    import harness

    sys.path.insert(0, os.path.join(ROOT, "src"))
    old = signal.getsignal(signal.SIGALRM)
    harness.install_alarm()
    try:
        outs, _ = harness.run_pass(items)
    finally:
        signal.signal(signal.SIGALRM, old)
        sys.path.remove(os.path.join(ROOT, "src"))
    return harness.Summary([outs])


def _planted(kind: str):
    """A right item and the same item with a wrong expected answer."""
    import run
    import wl_kernel
    import wl_prove
    from terms import atom, imp

    _, K = run.namespace()
    if kind == "prove":  # p -> p is provable; plant "non-theorem"
        f = imp(atom("p"), atom("p"))
        return wl_prove._item(K, "right", f, True), wl_prove._item(K, "planted", f, False)
    argv = ["check", os.path.join(ROOT, "proofs", "ipc.vkp")]
    want = wl_kernel.expected.CHECK["proofs/ipc.vkp"][1]
    return (wl_kernel._cli(K, "right", argv, wl_kernel._exact(0, want)),
            wl_kernel._cli(K, "planted", argv, wl_kernel._exact(0, want.replace("OK", "ok", 1))))


@pytest.mark.parametrize("kind", ["prove", "kernel"])
def test_planted_wrong_answer_fails(kind):
    summary = _run(list(_planted(kind)))
    assert [o.status for o in summary.passes[0]] == ["ok", "wrong"]
    assert summary.metrics(1.0)["fail_share"] > 0
    # a wrong answer is never a known defect
    correct, unexpected = summary.correct({"planted"})
    assert not correct and unexpected[0].startswith("planted: wrong")


def test_unknown_deadline_miss_is_incorrect():
    import harness

    quick = harness.Item("quick", lambda: 1, lambda out: None, 1.0)
    late = harness.Item("late", lambda: time.sleep(1.0), lambda out: None, 0.05)
    summary = _run([quick, late])
    assert [o.status for o in summary.passes[0]] == ["ok", "deadline"]
    assert not summary.correct(set())[0]
    assert summary.correct({"late"})[0]
    # the missed deadline costs its whole length and completes nothing
    m = summary.metrics(1.0)
    assert m["items_per_s"] == 1 / (summary.passes[0][0].seconds + 0.05)
    assert m["ok_share"] == 0.5 and m["item_p50_ms"] == 1000.0


def test_times_are_divided_by_the_slowdown_around_them():
    import harness

    speed = harness.HostSpeed()
    ref = tuple(ms / 1e3 for ms in harness.HostSpeed.REFERENCE_MS.values())
    # the host runs at reference speed until t=10, then twice as slow
    speed.times = [float(t) for t in range(20)]
    speed.ticks = [ref if t < 10 else tuple(2 * r for r in ref) for t in range(20)]
    assert speed.slowdown(3.0, 3.1) == pytest.approx(1.0)
    assert speed.slowdown(15.0, 15.1) == pytest.approx(2.0)
    visits = [[harness.Outcome("a", "ok", 0.1, at=3.0)], [harness.Outcome("a", "ok", 0.2, at=15.0)],
              [harness.Outcome("a", "ok", 0.25, at=16.0)]]
    m = harness.Summary(visits, speed).metrics(1.0)
    # on the reference host the visits read 0.1, 0.1 and 0.125 s; the item's
    # time is their median
    assert m["item_p50_ms"] == pytest.approx(100.0)
    assert m["items_per_s"] == pytest.approx(10.0)
