"""One benchmark pass of one workload, in a fresh process.

run.py starts this file once per pass:

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWN_NS

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before the start,
so set-up time covers interpreter start, ``import finspace`` and building
the workload's inputs.  The process then runs one pass under the
exact-result gate and prints one JSON line.  With TRACE=1 the package is
wrapped by the tracer first, and the pass's spans are written to
``.perfbench_out/`` at the end.

Host-adjusted times.  The benchmark runs on shared hosts whose speed
swings by up to 1.7x within tens of seconds, as neighbours load the same
cores; raw times then measure the neighbours more than finspace.  So from
its first line to the end of the pass the worker samples host speed with
``HostProbe``, in its own thread, and reports every time metric in
*reference seconds*: the measured seconds, less the probe's own time,
scaled by REFERENCE_PROBE_S over the probe's mean sample time.  The raw
times are reported beside them.  The probe runs no finspace code, so a
change to the package moves reference seconds as it moves raw ones.
"""

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
PROBE_INTERVAL_S = 0.035
# A host on which one probe sample takes 1.8 ms, about what a 2-core
# shared x86-64 VM with CPython 3.11 and numpy 2.4 took, so reference
# seconds read close to its raw seconds.
REFERENCE_PROBE_S = 0.0018
# sizes of the three parts of the probe's fixed job
PROBE_STEPS = 5_000
PROBE_MATRIX = (numpy.arange(64 * 64) % 3 == 0).reshape(64, 64)
PROBE_RECORDS = 400


def probe_job():
    """A fixed mix of the work finspace does: an integer loop, a small
    boolean matrix product (as in poset closures) and building and sorting
    small records.  One kind alone tracks the host worse: on a shared host
    each kind slows by a different amount as neighbours change."""
    acc = 0
    for i in range(PROBE_STEPS):
        acc += i * i % 7
    for _ in range(2):
        m = PROBE_MATRIX.astype(numpy.uint8)
        reach = (m @ m) > 0
        reach.any()
        numpy.flatnonzero(reach[:, 7])
    records = [{"key": (i, i + 1), "row": [i] * 3} for i in range(PROBE_RECORDS)]
    records.sort(key=lambda r: -r["key"][1])
    return acc


class HostProbe:
    """Samples host speed while the process works.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler times one run of
    ``probe_job``.  It runs in the workload's own thread, between its
    bytecodes, so the samples see the slow-downs the workload sees, spread
    over its run.  About 5% of the run goes to the probe; that time is
    measured and taken out.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_job()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take_spent(self):
        """Seconds the probe took since the last call."""
        spent, self.spent = self.spent, 0.0
        return spent

    def factor(self):
        """Reference seconds per measured second over every sample so far;
        1 when no sample was taken."""
        if not self.samples:
            return 1.0
        return statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples)


def main(argv):
    workload, seed, trace, spawn_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    probe = HostProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import finspace

    if Path(finspace.__file__).resolve().parent != ROOT / "src" / "finspace":
        print(f"imported finspace from {finspace.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup, run_pass = workloads.WORKLOADS[workload]
    inputs = setup(seed)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    setup_probe_s = probe.take_spent()
    if tracer:
        tracer.reset()

    gate = workloads.Gate(workloads.EXPECTED[workload])
    c0 = time.process_time()
    t0 = time.perf_counter()
    run_pass(inputs, gate)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    probe.stop()
    probe_s = probe.take_spent()
    # set-up is too short for a steady factor of its own; the host's speed
    # changes over seconds, so the whole process's samples serve both
    factor = probe.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": (setup_s - setup_probe_s) * factor,
        "wall_s": (wall_s - probe_s) * factor,
        "cpu_s": (cpu_s - probe_s) * factor,
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s},
        # host speed beside the process: reference seconds per measured second
        "host_factor": factor,
        "probe_share": probe_s / wall_s,
        "attempted": gate.attempted,
        "failures": gate.failures,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        # spans also hold the probe's time, spread like the pass's own
        keep = factor * (1 - probe_s / wall_s)
        result["layers"] = {k: v * keep if k.endswith("_s") else v
                            for k, v in tracer.layer_metrics().items()}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{workload}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "names": tracer.names,
                       "spans": [s[:4] for s in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
