"""The vkp benchmark.

    python3 vkpbench/run.py --workload {proptest,kernel,prove} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from src/.
One process, one closed-loop client.  The workload's items are built from
the seed and run in whole passes until S seconds have gone by; every
answer is checked against its known value or its certificate.  The
interpreter's default recursion limit stays in force, because that is what
users of vkp get.

A visit to an item keeps its fastest call.  Fixed reference loops are
timed between items all through the run, and each visit's time is divided
by the host's slowdown around it (harness.HostSpeed), because the shared
host changes speed by up to two times for minutes at a time.  An item's
latency is the median of its visits' times; items_per_s also charges each
failed item the time until it failed.  setup_s is the median of a set-up
timed before the first pass and after every pass, each divided the same
way.  The row marked "raw" gives the numbers without the division.  With
--trace 0 the last line is the end-to-end result.  With --trace 1 the run alternates
untraced passes with the same passes with spans around every call into a
layer, each item called once per visit, and the last line gives per-layer
numbers; the spans are written to
.bench_work/spans-<workload>-<seed>.tsv.gz.  The lines before the
last one are for people: one row of end-to-end numbers, failed items,
behaviour digests and the environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import harness  # noqa: E402
import tracing  # noqa: E402
from terms import Digests  # noqa: E402

WORKLOADS = ("proptest", "kernel", "prove")
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
         "item_tail_ms": "ms", "ok_share": "share", "peak_rss_mb": "MB"}


def load_vkp():
    """Import vkp afresh from SRC: (layer -> module, namespace)."""
    for name in [n for n in sys.modules if n == "vkp" or n.startswith("vkp.")]:
        del sys.modules[name]
    vkp = importlib.import_module("vkp")
    if os.path.dirname(os.path.abspath(vkp.__file__)) != os.path.join(SRC, "vkp"):
        raise SystemExit(f"vkpbench: imported vkp from {vkp.__file__}, not from {SRC}")
    return namespace()


def namespace():
    """(layer -> module, namespace of the public functions and classes each
    layer defines), for the vkp already imported.  The benchmark calls the
    program only through the namespace, so a traced pass can wrap it."""
    mods = {layer: importlib.import_module(f"vkp.{layer}") for layer in tracing.LAYERS}
    K = SimpleNamespace()
    for m in mods.values():
        for name, obj in vars(m).items():
            if not name.startswith("_") and getattr(obj, "__module__", None) == m.__name__:
                setattr(K, name, obj)
    return mods, K


def build(workload: str, K, seed: int, dig):
    if workload == "proptest":
        import wl_proptest
        return wl_proptest.build(K, seed, dig)
    if workload == "kernel":
        import wl_kernel
        work = os.path.join(".bench_work", f"kernel-{seed}")
        return wl_kernel.build(K, seed, dig, work)
    import wl_prove
    return wl_prove.build(K, seed, dig)


def setup(workload: str, seed: int):
    """Import plus building the inputs: the time, and the modules,
    namespace, digests and items."""
    gc.collect()  # so that no set-up pays for collecting an earlier one
    t0 = time.perf_counter()
    mods, K = load_vkp()
    dig = Digests()
    items = build(workload, K, seed, dig)
    return time.perf_counter() - t0, mods, K, dig, items


def time_setup(workload: str, seed: int) -> float:
    """The time of one more set-up, whose result is thrown away.  The
    modules in use are put back, so that the program's own imports inside
    functions keep finding the classes the items were built with."""
    kept = {n: m for n, m in sys.modules.items() if n == "vkp" or n.startswith("vkp.")}
    try:
        return setup(workload, seed)[0]
    finally:
        sys.modules.update(kept)


def known() -> dict:
    """Seeds and known failures, from known.json."""
    with open(os.path.join(HERE, "known.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="vkpbench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: default_seed in known.json)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vkp", "__init__.py")):
        print(f"vkpbench: no vkp sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(".bench_work", exist_ok=True)
    sys.path.insert(0, SRC)
    choices = known()
    if args.seed is None:
        args.seed = choices["default_seed"]

    # Set-up is timed once here and again after every pass, so that its
    # median spans the run and not just the host's speed at the start.
    at = time.perf_counter()
    first, mods, K, dig, items = setup(args.workload, args.seed)
    setups = [(at, first)]
    # The inputs live for the whole run: keep the collector from scanning
    # them inside every timed call.
    gc.collect()
    gc.freeze()
    harness.install_alarm()
    speed = harness.HostSpeed()
    deadline_cap = max(it.deadline for it in items)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "recursion_limit": sys.getrecursionlimit(), "items_per_pass": len(items)}

    # The first pass feeds the digests; with --trace 1 it is also the
    # untraced warm-up that the overhead is not measured against.
    start = time.perf_counter()
    summary = harness.Summary([harness.run_pass(items, speed=speed)[0]])
    # how long the next pass may take: the first pass, then the longest
    # later pass with its set-up
    step, longest = time.perf_counter() - start, 0.0
    dig.active = False
    # Later passes visit the items in a new order each time, so that an
    # item is not always timed in the state the same predecessors leave
    # the interpreter's memory in.
    shuffle = random.Random(f"order/{args.seed}")
    traced = []
    tracer = tracing.Tracer() if args.trace else None
    untraced_wall = traced_wall = 0.0
    # No pass starts that would end after --seconds; a traced run makes at
    # least one traced pass.
    while tracer is not None or time.perf_counter() - start + step <= args.seconds:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install(mods, K)
            try:
                outs, wall = harness.run_pass(items, tracer, len(traced))
            finally:
                tracer.uninstall()
            traced += outs
            traced_wall += wall
        # a traced run times whole passes, so it runs failures again too
        previous = None if tracer is not None else summary.passes[-1]
        order = list(range(len(items)))
        shuffle.shuffle(order)
        outs, wall = harness.run_pass(items, previous=previous, repeat=tracer is None,
                                      speed=speed, order=order)
        summary.passes.append(outs)
        untraced_wall += wall
        setups.append((time.perf_counter(), time_setup(args.workload, args.seed)))
        step = longest = max(longest, time.perf_counter() - t0)
        if tracer is not None and time.perf_counter() - start + step > args.seconds:
            break

    summary.speed = speed
    raw = harness.Summary(summary.passes).metrics(deadline_cap)
    e2e = summary.metrics(deadline_cap)
    e2e["setup_s"] = statistics.median(t / speed.slowdown(at, at + t) for at, t in setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, unexpected = summary.correct(set(choices["known_failures"][args.workload]))
    env["slowdown"] = round(speed.slowdown(), 4)
    env["reference_loops_ms"] = speed.median_ms()

    print("env " + json.dumps(env))
    print(f"{'workload':<10}{'items/s':>10}{'p50 ms':>10}{'tail ms':>10}{'tail pct':>10}"
          f"{'fail':>8}{'rss MB':>9}{'setup s':>9}{'passes':>8}")
    print(f"{args.workload:<10}{e2e['items_per_s']:>10.2f}{e2e['item_p50_ms']:>10.3f}"
          f"{e2e['item_tail_ms']:>10.3f}{e2e['tail_percentile']:>10.1f}"
          f"{e2e['fail_share']:>8.4f}{e2e['peak_rss_mb']:>9.1f}{e2e['setup_s']:>9.4f}"
          f"{e2e['passes']:>8}")
    print(f"{'raw':<10}{raw['items_per_s']:>10.2f}{raw['item_p50_ms']:>10.3f}"
          f"{raw['item_tail_ms']:>10.3f}{'':>27}{statistics.median(t for _, t in setups):>9.4f}"
          f"   (not divided by the slowdown, {env['slowdown']:.3f} over the run)")
    print(f"tail: p{e2e['tail_percentile']:.1f} of {e2e['tail_samples']} items, "
          f"each timed by the median of its {e2e['passes']} visits")
    for o in summary.failures():
        print(f"failed: {o.name}: {o.status} {o.detail}")
    for line in unexpected:
        print(f"UNEXPECTED: {line}")
    print("digests " + json.dumps(dig.summary(), sort_keys=True))

    if tracer is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in UNITS.items()}
    else:
        ladders = {i: it.ladder for i, it in enumerate(items * (len(traced) // len(items)))
                   if it.ladder is not None}
        per_layer, detail = tracer.report(traced_wall, untraced_wall, traced, ladders)
        spans = os.path.join(".bench_work", f"spans-{args.workload}-{args.seed}.tsv.gz")
        tracer.write(spans)
        _print_layers(per_layer, detail, spans)
        units = tracing.metric_units()
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in units.items()}

    print(json.dumps({"correct": correct, "attempted": e2e["items"],
                      "failed": e2e["failed_items"], "metrics": metrics}))
    return 0


def _print_layers(m: dict, detail: dict, spans: str):
    print(f"{'layer':<11}{'busy s':>10}{'self s':>10}{'calls':>10}")
    for layer in tracing.LAYERS:
        print(f"{layer:<11}{m[layer + '.busy_s']:>10.4f}{m[layer + '.self_s']:>10.4f}"
              f"{m[layer + '.calls']:>10}")
    print(f"{'bench':<11}{'':>10}{m['bench.self_s']:>10.4f}")
    print(f"accounted: layer self times + bench = {detail['self_sum_s']:.4f} s of traced wall "
          f"{detail['wall_s']:.4f} s ({m['trace.unaccounted_share']:.4f} left over); untraced wall "
          f"{detail['untraced_wall_s']:.4f} s, overhead {m['trace.overhead_share']:.3f}")
    for metric, points in sorted(detail["ladders"].items()):
        shown = ", ".join(f"n={n}: {'fail' if t is None else f'{t * 1e3:.2f} ms'}" for n, t in points)
        print(f"{metric} = {m[metric]:.3f} per step ({shown})")
    print(f"{detail['spans']} spans written to {spans}")


if __name__ == "__main__":
    sys.exit(main())
