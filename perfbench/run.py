#!/usr/bin/env python3
"""soldeg benchmark: certified-report latency and throughput per workload.

Run from the repository root:

    python3 perfbench/run.py --workload fk-ladder --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50 --trace 0

One process, one thread, a closed loop with one client: each op starts when
the previous one has returned and been checked. An op is one certified
report: `verify_bounds` plus its JSON rendering. After one untimed warm-up
pass, a run repeats whole passes over the workload's pool until `--seconds`
is spent and at least MIN_SAMPLES ops are done, so every system contributes
the same number of samples.

Times are corrected for the host's speed. A shared host runs the same code
up to twice as slow from one second to the next, so between every two ops
the run times a fixed pure-Python loop (`reference_loop`) and scales the
op's time by REF_NOMINAL_S over the loop's time around it (see `measure`).
The result is in reference seconds (unit `ref_s`): the seconds the op would
take on a host where the loop takes REF_NOMINAL_S. The loop does not call
soldeg, so a change to the library moves these figures by the same factor
as it moves wall time; only the host's speed is divided out. The
wall-clock figures are printed beside them.

With `--trace 0` the last line reports the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` a separate traced run reports the
per-layer metrics from spans recorded around calls into soldeg's public
functions (see tracing.py). The spans are written to perfbench/out/; the
per-layer times are wall seconds, not corrected.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import pools  # noqa: E402  (the script's own directory is on sys.path)
import tracing  # noqa: E402

MIN_SAMPLES = 100  # untraced ops per run, at least
MIN_ROUNDS = 2  # traced rounds per run, so work counters can be compared
SETUP_EVERY = 2  # passes between two timed set-ups
# op_tail_ref_s is p90: the highest of p50/p90/p95/p99 that every run, with
# its MIN_SAMPLES ops or more, has ten samples beyond. A percentile picked
# per run from its own sample count would switch between p90 and p95 as the
# host's speed moved the count across 200.
TAIL_Q = 90

# The reference loop: REF_LOOPS updates of a 1024-entry dict of small ints.
# It takes about REF_NOMINAL_S on the 2-vCPU Xeon host of BASELINE.md.
REF_LOOPS = 32768
REF_NOMINAL_S = 0.010
_REF_TABLE = dict.fromkeys(range(1024), 1)


def reference_loop() -> float:
    """Seconds the reference loop takes now. Like a report it is dict and
    small-int work in the interpreter; unlike one it allocates nothing the
    garbage collector tracks, so the library's heap cannot slow it."""
    d = _REF_TABLE
    t0 = perf_counter()
    for i in range(REF_LOOPS):
        k = i & 1023
        d[k] = (d[k] * 31 + i) & 0xFFFFFFF
    return perf_counter() - t0


def import_soldeg():
    """A fresh import of soldeg from this checkout's src/."""
    for name in [m for m in sys.modules if m == "soldeg" or m.startswith("soldeg.")]:
        del sys.modules[name]
    sl = importlib.import_module("soldeg")
    if Path(sl.__file__).resolve().parent != SRC / "soldeg":
        raise ImportError(f"soldeg imported from {sl.__file__}, not from {SRC}")
    return sl


def setup(workload: str, seed: int):
    """Import soldeg, generate and parse the pool, load the expected results.
    Returns them with the seconds it took."""
    t0 = perf_counter()
    sl = import_soldeg()
    items = [pools.build(sl, r) for r in pools.recipes(workload, seed)]
    expected = pools.load_expected(workload, seed)
    setup_s = perf_counter() - t0
    if expected is not None and len(expected) != len(items):
        raise ValueError(f"expected.json lists {len(expected)} systems, the pool has {len(items)}")
    return sl, items, expected, setup_s


def setup_in_child(workload: str, seed: int) -> float:
    """Seconds of one set-up in a fresh interpreter, the way each `soldeg`
    command pays it. A child process, so that the set-ups leave nothing in
    this process's memory; interpreter start-up is not counted."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Checker:
    """Checks every op's output and counts attempts and failures. Besides the
    pool's own checks, every sample of a system must equal its first sample."""

    def __init__(self, items, expected):
        self.recipes = [item.recipe for item in items]
        self.expected = expected
        self.first: dict[int, object] = {}
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def reason(self, i: int, out) -> str | None:
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        want = self.expected[i] if self.expected else None
        why = pools.check_report(json.loads(out), self.recipes[i], want)
        if why is None and self.first.setdefault(i, out) != out:
            why = "output differs from the first sample of the same system"
        return why

    def count(self, i: int, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{self.recipes[i].name}: {why}")


def checked_op(sl, item, checker, i) -> tuple[float, float]:
    """One op and its check; returns the seconds of the op and of both."""
    t0 = perf_counter()
    try:
        out = pools.report_op(sl, item)
    except Exception as exc:  # a failed op is counted, not fatal
        out = exc
    t1 = perf_counter()
    checker.count(i, checker.reason(i, out))
    return t1 - t0, perf_counter() - t0


def measure(sl, items, checker, seconds, setup_once):
    """One untimed warm-up pass, then whole passes over the pool until
    `seconds` is spent. Per op: (wall seconds of the op, of the op and its
    check, and the host's speed factor, REF_NOMINAL_S over the median of the
    four reference-loop timings around the op, two before and two after; a
    median, so that one interrupted timing does not skew it). Every
    SETUP_EVERY passes `setup_once()` times one set-up, so that the set-up
    samples are spread over the whole run."""
    for i, item in enumerate(items):
        checked_op(sl, item, checker, i)
    samples = [[] for _ in items]
    setups = []
    ref_times = [reference_loop()]
    t_start = perf_counter()
    passes = 0
    while True:
        for i, item in enumerate(items):
            op_s, cycle_s = checked_op(sl, item, checker, i)
            ref_times.append(reference_loop())
            samples[i].append((op_s, cycle_s, len(ref_times) - 2))
        passes += 1
        if passes % SETUP_EVERY == 0:
            setups.append(setup_once())
        elapsed = perf_counter() - t_start
        enough = passes * len(items) >= MIN_SAMPLES
        if enough and elapsed * (passes + 1) / passes > seconds:
            break
    ref_times.append(reference_loop())
    speeds = [REF_NOMINAL_S / statistics.median(ref_times[max(0, j - 1):j + 3])
              for j in range(len(ref_times) - 2)]
    samples = [[(op_s, cycle_s, speeds[j]) for op_s, cycle_s, j in s] for s in samples]
    return samples, setups, ref_times, passes, elapsed


def latency_figures(samples, corrected: bool):
    """ops per second (ops over the seconds their ops and checks took, a
    closed loop's throughput), median and tail op latency; in reference
    seconds if `corrected`, else in wall seconds."""
    flat = [s for per_system in samples for s in per_system]
    scale = [speed if corrected else 1.0 for _, _, speed in flat]
    lat = sorted(op * k for (op, _, _), k in zip(flat, scale))
    busy = sum(cycle * k for (_, cycle, _), k in zip(flat, scale))
    n = len(lat)
    tail = lat[math.ceil(TAIL_Q / 100 * n) - 1]
    return n / busy, statistics.median(lat), tail, n


def end_to_end(samples, setups):
    ops, p50, tail, n = latency_figures(samples, corrected=True)
    metrics = {
        "ops_per_ref_s": ops,
        "op_p50_ref_s": p50,
        "op_tail_ref_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, n


def trace_run(sl, workload, seed, checker, seconds):
    """Rounds of (rebuild the pool under harness spans; per system: one
    untraced op, then one traced op) until `seconds` is spent."""
    tr = tracing.Tracer()
    rounds = []
    decomposition_errors = []
    t_start = perf_counter()
    while True:
        r = len(rounds)
        first = len(tr.spans)
        tr.op = None
        items = [pools.build(sl, rec, tr.span) for rec in pools.recipes(workload, seed)]
        counts = dict.fromkeys(tracing.COUNTS, 0)
        untraced = 0.0
        for i, item in enumerate(items):
            tr.op = f"{r}/{i}"
            sf = item.sf
            gc.collect()
            try:
                t0 = perf_counter()
                report = sl.verify_bounds(sf.system, sf.order)
                out = sl.render_report(report)
                untraced += perf_counter() - t0
                why = checker.reason(i, out)
                gc.collect()
                if why is None:
                    rebuilt = tracing.traced_report(sl, tr, item, report, counts)
                    why = tracing.decomposition_error(rebuilt, report)
                    if why is not None:
                        decomposition_errors.append(f"{item.recipe.name}: {why}")
            except Exception as exc:  # a failed op is counted, not fatal
                why = f"{type(exc).__name__}: {exc}"
            checker.count(i, why)
        total, self_t = tr.totals(first)
        times = tracing.layer_times(self_t)
        calls = sum(total.get(name, 0.0) for name in tracing.CALL_SPANS)
        times["invariants.self_s"] = untraced - calls
        overhead = total.get("op", 0.0) - total.get("groebner.buchberger", 0.0) - untraced
        rounds.append((times, counts, untraced, overhead))
        elapsed = perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed * (r + 2) / (r + 1) > seconds:
            break

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    base = rounds[0][1]
    deterministic = all(c == base for _, c, _, _ in rounds[1:])
    metrics = {k: statistics.median(t[k] for t, _, _, _ in rounds) for k in rounds[0][0]}
    metrics.update(base)
    metrics["vspace.zero_reductions"] = base["vspace.insertions"] - base["vspace.adoptions"]
    ins = base["vspace.insertions"]
    metrics["vspace.adopt_ratio"] = base["vspace.adoptions"] / ins if ins else 0.0
    info = {
        "rounds": len(rounds),
        "untraced_s": statistics.median(u for _, _, u, _ in rounds),
        "overhead_s": statistics.median(o for _, _, _, o in rounds),
        "deterministic": deterministic,
        "decomposition_errors": decomposition_errors,
    }
    return metrics, info


def load_spec() -> dict:
    """BENCHMARK.json: the workloads' reasons and the metrics with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in turn, each in a child process of its own so that
    peak_rss_mb and setup_s stay per workload."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in pools.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*pools.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used by the run itself)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "soldeg" / "__init__.py").is_file():
        print(f"error: no soldeg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup(args.workload, args.seed)[3])
        return 0
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    load = os.getloadavg()
    sl, items, expected, _ = setup(args.workload, args.seed)
    print(f"soldeg benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()}  python={sys.version.split()[0]}  "
          f"loadavg at start={load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    print(f"why: {why}")
    print(f"pool ({len(items)}): {' '.join(item.recipe.name for item in items)}")
    checks = "committed for this seed" if expected else "closed forms and certificates only"
    print(f"expected results: {checks}")
    print("closed loop, 1 client, 1 thread")
    checker = Checker(items, expected)

    if args.trace:
        metrics, info = trace_run(sl, args.workload, args.seed, checker, args.seconds)
        correct = info["deterministic"] and not info["decomposition_errors"]
        print(f"traced rounds: {info['rounds']}  (per-layer values are per pool pass: "
              "times are medians over rounds, counts come from round 1)")
        print(f"tracing overhead: {info['overhead_s']:+.6f} s per pool pass "
              f"(traced op time minus untraced op time {info['untraced_s']:.6f} s)")
        print(f"work counters identical across rounds: {info['deterministic']}")
        print("decomposition (sd, Lfd, identity dims rebuilt from public calls; rows adopted "
              "by the rebuilt sd-scan and identity closures against the lines "
              "verify_bounds(trace=...) writes) matches the untraced reports: "
              f"{not info['decomposition_errors']}")
        for line in info["decomposition_errors"][:5]:
            print(f"  {line}")
        print("wait metrics: none; one thread and no queues, so no op ever waits")
        idle = [name for name in units if metrics[name] == 0]
        if idle:
            print(f"not exercised by this workload (reported as 0): {' '.join(idle)}")
    else:
        samples, setups, ref_times, passes, elapsed = measure(
            sl, items, checker, args.seconds, lambda: setup_in_child(args.workload, args.seed))
        metrics, n = end_to_end(samples, setups)
        correct = True
        print(f"passes: {passes} after a warm-up pass  ops: {n}  elapsed: {elapsed:.3f} s")
        ref = sorted(ref_times)
        print(f"reference loop (s): fastest {ref[0]:.6f}  median {statistics.median(ref):.6f}  "
              f"slowest {ref[-1]:.6f}  ({len(ref)} timings; nominal {REF_NOMINAL_S})")
        print("latency per system: median wall s, median ref_s")
        for item, s in zip(items, samples):
            wall = statistics.median(op for op, _, _ in s)
            corr = statistics.median(op * speed for op, _, speed in s)
            print(f"  {item.recipe.name:28s} {wall:.6f} {corr:.6f}")
        ops, p50, tail, _ = latency_figures(samples, corrected=False)
        print(f"wall clock, not corrected: ops_per_s {ops:.6f} 1/s  op_p50_s {p50:.6f} s  "
              f"op_tail_s {tail:.6f} s")
        print(f"op_tail_ref_s is p{TAIL_Q} of {n} samples; setup_s is the median of {len(setups)} "
              "set-ups, "
              f"one after every {SETUP_EVERY} passes, each in a child process")
        print(f"failed_ratio: {checker.failed / checker.attempted:.6f} "
              f"({checker.failed} failed of {checker.attempted} attempted, warm-up included)")

    for line in checker.reasons:
        print(f"failed: {line}")
    correct = correct and checker.failed == 0
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
