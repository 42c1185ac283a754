"""Benchmark runner for finspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs passes of one workload (or of every workload, one after the other)
against the package in ``src/`` of this checkout.  Each pass runs in a
fresh single-threaded process (worker.py), so set-up time includes the
interpreter start and the import, peak memory belongs to that workload
alone, and no pass warms the next.  Passes repeat until S seconds have
passed and at least MIN_PASSES are done; every metric is the median over
the passes.  Times are in reference seconds: measured seconds corrected
for the host's speed during the pass, which worker.py samples in the
workload's own thread (see its docstring).  The raw medians are printed
beside them.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 one untraced pass is followed by traced passes, and the
metrics are the per-layer metrics: self times are medians over the traced
passes, counts must repeat exactly across them, and ``trace.overhead_s``
is the median traced wall time minus the untraced one.

Every operation's result is checked against its exact expected value
(see workloads.py).  The script prints host context and a table of the
metrics, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw per-pass data
goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
# stop starting passes when the next one might end after this many seconds
RUN_LIMIT_S = 150
PASS_TIMEOUT_S = 170
# one thread: numpy's BLAS pools stay at a single worker
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload, seed, trace, deadline_s):
    """One worker process; returns its result dict, or None on failure."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed), **SINGLE_THREAD)
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if trace else "0", str(spawn_ns)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=deadline_s)
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out after {deadline_s:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    print(f"{workload}: pass exited with {proc.returncode}\n{proc.stderr}",
          file=sys.stderr)
    return None


def run_workload(workload, seed, seconds, trace):
    """Run passes until `seconds` are up; returns (passes, failed passes).

    A traced run starts with one untraced pass, the base of the tracing
    overhead.
    """
    start = time.monotonic()
    passes, broken = [], 0
    while True:
        traced = bool(trace) and bool(passes)
        t0 = time.monotonic()
        result = run_pass(workload, seed, traced, PASS_TIMEOUT_S - (t0 - start))
        took = time.monotonic() - t0
        if result is None:
            broken += 1
            break
        result["traced"] = traced
        passes.append(result)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            break
        if elapsed + took > RUN_LIMIT_S:
            break
    return passes, broken


def end_to_end(plain, specs):
    return {m["name"]: statistics.median(p[m["name"]] for p in plain)
            for m in specs}


def per_layer(traced, plain, specs):
    """Medians of self times over traced passes; counts must repeat."""
    out, repeat = {}, True
    for m in specs:
        name = m["name"]
        values = [p["layers"].get(name, 0) for p in traced]
        if name == "trace.overhead_s":
            out[name] = (statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(p["wall_s"] for p in plain))
        elif m["unit"] == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    return out, repeat


def measure(bench, workload, seed, seconds, trace):
    """Run one workload; print its report; return the result object."""
    passes, broken = run_workload(workload, seed, seconds, trace)
    attempted = sum(p["attempted"] for p in passes) + broken
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures) + broken
    specs = bench["per_layer" if trace else "end_to_end"]
    host = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": passes[0]["python"] if passes else None,
        "numpy": passes[0]["numpy"] if passes else None,
        "commit": git_commit(), "passes": len(passes), "broken_passes": broken,
        "host_factor": [p["host_factor"] for p in passes],
        "probe_share": [p["probe_share"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "raw_wall_s": [p["raw"]["wall_s"] for p in passes],
    }
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics, repeat = {}, True
    if trace and traced and plain:
        metrics, repeat = per_layer(traced, plain, specs)
    elif not trace and plain:
        metrics = end_to_end(plain, specs)
    host["counts_repeat"] = repeat
    print("host " + json.dumps(host))
    for f in failures:
        print(f"FAILED {workload}: {f}")
    if not repeat:
        print(f"{workload}: counts differ between traced passes", file=sys.stderr)
    for m in specs:
        if m["name"] in metrics:
            print(f"{workload:15s} {m['name']:48s} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not trace and plain:
        for name in ("setup_s", "wall_s", "cpu_s"):
            raw = statistics.median(p["raw"][name] for p in plain)
            print(f"{workload:15s} {'raw.' + name:48s} {raw:>14.6g} s")
    print(f"{workload:15s} {'fail_ratio':48s} {failed / max(attempted, 1):>14.6g} ratio")
    if trace and metrics:
        layers = {k[:-len(".self_s")]: v for k, v in metrics.items()
                  if k.count(".") == 1 and k.endswith(".self_s")}
        total = sum(layers.values()) or 1.0
        split = ", ".join(f"{k} {100 * v / total:.1f}%"
                          for k, v in sorted(layers.items(), key=lambda kv: -kv[1]) if v)
        print(f"{workload:15s} self-time split: {split}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"host": host, "passes": passes}, indent=1))
    units = {m["name"]: m["unit"] for m in specs}
    return {
        "correct": failed == 0 and len(metrics) == len(specs),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finspace" / "__init__.py").is_file():
        print(f"no finspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload != "all":
        result = measure(bench, args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {w: measure(bench, w, args.seed, args.seconds, args.trace)
                   for w in names}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
