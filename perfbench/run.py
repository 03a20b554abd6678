"""Benchmark for designdim: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

It benchmarks the designdim in src/ of the checkout that holds it.  One
single-threaded process, one client: each job starts when the previous one
ends, and the job list is repeated until --seconds have passed (the first
pass always completes).  Each pass runs on a fresh import of designdim
and freshly made inputs, so no pass sees what an earlier one computed or
cached.  Every job's output is checked by an oracle outside the timed
region.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 9


def fresh_import():
    """Import designdim (with its cli) and the workloads afresh from this
    checkout, after dropping every module of an earlier import.  No cache,
    object or class of an earlier pass survives into the next one.  Returns
    (designdim, workloads, seconds the designdim import took)."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] in ("designdim", "workloads")]:
        del sys.modules[name]
    gc.collect()  # the dropped modules are cyclic garbage
    t0 = time.perf_counter()
    try:
        designdim = importlib.import_module("designdim")
        importlib.import_module("designdim.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import designdim from {src}: {exc}")
    elapsed = time.perf_counter() - t0
    if Path(designdim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: designdim came from {designdim.__file__}, not {src}")
    return designdim, importlib.import_module("workloads"), elapsed


def calibration_kernel():
    """Fixed pure-Python work in the style of designdim's loops: tuple
    indexing, big-int bit flips and popcounts."""
    acc, mask = 0, 0
    table = tuple(range(512))
    for i in range(20000):
        mask ^= 1 << (table[i & 511] & 255)
        acc += (mask & 0xFFFF).bit_count()
    return acc


class HostSpeed:
    """The shared host this benchmark was built on has speed phases about
    1.7x apart that last from seconds to over a minute.  A fixed kernel is
    timed about every quarter second through the run, between jobs.  Each
    job or set-up time t is reported scaled to the reference speed by the
    kernel's best time in a window around it: t * REFERENCE_S / best_near.
    designdim never runs inside the kernel, so a change to designdim moves
    the scaled times exactly as the raw ones."""

    REFERENCE_S = 0.003  # the kernel's best time on the baseline machine
    EVERY_S = 0.25
    WINDOW_S = 1.0  # shorter than a phase, long enough for several samples

    def __init__(self):
        self.samples = []  # (middle of the kernel run, its seconds)
        self.last = -math.inf

    def sample(self):
        if time.perf_counter() - self.last < self.EVERY_S:
            return
        t0 = time.perf_counter()
        calibration_kernel()
        self.last = time.perf_counter()
        self.samples.append(((t0 + self.last) / 2, self.last - t0))

    @property
    def best(self):
        return min(seconds for _, seconds in self.samples)

    def scaled(self, start, seconds):
        lo, hi = start - self.WINDOW_S, start + seconds + self.WINDOW_S
        near = [dt for mid, dt in self.samples if lo <= mid <= hi]
        return seconds * self.REFERENCE_S / min(near or [self.best])


def unscaled(start, seconds):
    return seconds


def run_pass(jobs, host, deadline=None, tracer=None):
    """Run jobs in order; returns [(name, seconds, outcome, detail, start)].
    No job starts after the deadline.  outcome is ok, failed (the call
    raised) or wrong (the oracle rejected the output)."""
    state, records = {}, []
    # every pass starts from the same collector state, and the pass's
    # inputs are frozen out of it, so a job's collection cost is its own
    # garbage
    gc.collect()
    gc.freeze()
    try:
        for job in jobs:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            host.sample()
            if tracer is not None:
                tracer.enabled = True
                tracer.begin("bench.job")
            t0 = time.perf_counter()
            try:
                result = job.call(state)
                error = None
            except Exception as exc:  # any escaping exception is a failed job
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
                tracer.enabled = False
            if error is not None:
                records.append((job.name, elapsed, "failed", error, t0))
                continue
            state[job.name] = result
            try:
                problem = job.check(result, state)
            except Exception as exc:
                problem = f"oracle raised {type(exc).__name__}: {exc}"
            records.append((job.name, elapsed, "ok" if problem is None else "wrong", problem, t0))
    finally:
        gc.unfreeze()
    return records


def best_times(passes, scale):
    """Each job's best time over the passes, each time first passed through
    scale(start, seconds).  On a shared host contention only ever adds
    time, so the minimum is the steadiest estimate of what a job costs."""
    best = {}
    for name, seconds, _, _, start in (r for p in passes for r in p):
        t = scale(start, seconds)
        best[name] = min(t, best.get(name, t))
    return best


def end_to_end(plan, passes, setups, scale):
    """wall_s sums the jobs' best times; job_p50_s is their median; setup_s
    is the best set-up (setups holds (start, seconds) pairs)."""
    best = best_times(passes, scale)
    records = [r for p in passes for r in p]
    return {
        "setup_s": min(scale(start, seconds) for start, seconds in setups),
        "wall_s": sum(best.values()),
        "job_p50_s": statistics.median(best.values()),
        "largest_s": plan.largest(best),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(1 for r in records if r[2] == "ok") / len(records),
    }


def per_layer(tr, traced, untraced, host):
    """Layer metrics per traced pass, unscaled; the overhead compares the
    summed best job times of the traced and the untraced passes."""
    n = len(traced)
    wall_traced = sum(best_times(traced, unscaled).values())
    wall_untraced = sum(best_times(untraced, unscaled).values())
    self_s = tr.self_times()
    out = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0) / n
        elif name.endswith(".success_ratio"):
            layer = name[: -len(".success_ratio")]
            trials = tr.counts[layer + ".trials"]
            value = tr.counts[layer + ".successes"] / trials if trials else 0.0
        elif name == "trace.wall_untraced_s":
            value = wall_untraced
        elif name == "trace.wall_traced_s":
            value = wall_traced
        elif name == "trace.overhead_ratio":
            value = wall_traced / wall_untraced
        elif name == "host.calibration_s":
            value = host.best
        else:
            value = tr.counts[name] / n
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small instances, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    import tracer as tracing

    workload_names = fresh_import()[1].WORKLOADS
    if args.workload not in workload_names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workload_names)}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tr = tracing.Tracer()
    host = HostSpeed()
    setups = []  # (start, seconds)

    def set_up():
        """A fresh import and a fresh plan; its time is one set-up sample."""
        host.sample()
        start = time.perf_counter()
        dd, workloads, import_s = fresh_import()
        t0 = time.perf_counter()
        plan = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir, tr)
        setups.append((start, import_s + time.perf_counter() - t0))
        return dd, plan

    try:
        for _ in range(SETUP_REPEATS):
            dd, plan = set_up()
        run_pass(plan.warmup, host)
        # Every pass runs on its own import of designdim and its own inputs,
        # made outside the timed region, so a pass never reuses what an
        # earlier pass computed or cached.  With --trace 1, untraced and
        # traced complete passes alternate.
        stop = time.perf_counter() + args.seconds
        passes, traced, untraced = [], [], []
        while len(passes) < 1 + args.trace or time.perf_counter() < stop:
            dd, plan = set_up()
            if args.trace and len(passes) % 2:
                tr.install(dd)
                try:
                    traced.append(run_pass(plan.jobs, host, tracer=tr))
                finally:
                    tr.uninstall()
                passes.append(traced[-1])
                continue
            deadline = stop if passes and not args.trace else None
            passes.append(run_pass(plan.jobs, host, deadline=deadline))
            untraced.append(passes[-1])
            if len(passes[-1]) < len(plan.jobs):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    records = [r for p in passes for r in p]
    problems = sorted({(r[0], r[2], r[3]) for r in records if r[2] != "ok"})
    for name, outcome, detail in problems:
        print(f"perfbench: {outcome} job {name!r}: {detail}", file=sys.stderr)
    raw = end_to_end(plan, passes, setups, unscaled)
    if args.trace:
        metrics = per_layer(tr, traced, untraced, host)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tr.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = end_to_end(plan, passes, setups, host.scaled)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(f"workload {args.workload}: seed {args.seed}, {len(plan.jobs)} jobs per pass, "
          f"{len(passes)} passes, {len(records)} jobs run, {len(setups)} set-ups, "
          f"{len(host.samples)} host-speed samples, best {host.best * 1e3:.3f} ms "
          f"(end-to-end times are scaled by them)")
    print("unscaled " + json.dumps(raw))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r[2] != "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2] != "ok"),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
