"""quditcycle benchmark: three closed-loop workloads driven by one single-threaded client.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 20 --trace 0

Workloads: pulse-synth, classify-stream, exact-cli (see workloads.py and
README.md).  The client sends the next operation only after the previous one
returned.  Every output goes through the workload's oracle outside the timed
region.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (from spans, see spans.py) with --trace 1.  Timings are
taken against a reference block of fixed work, so that a slowdown of the
whole host cancels (see run() and README.md).  When the operation list runs
more than once, any output (or, traced, call count) that does not repeat is
a failure.  Traced runs write their spans to .perfbench_out/.
"""

import os

# One single-threaded client: pin the BLAS pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pulse-synth", "classify-stream", "exact-cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: make the workload's first call in this fresh interpreter and exit.
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


# The reference block: fixed work that does not touch the package (products
# of 4x4 matrix exponentials and an integer loop, the same mix of numpy calls
# and interpreted bytecode the workloads make).  Other tenants of a shared
# host slow the whole machine by up to 1.9x for periods from a second to
# minutes; timing this block next to every block of operations measures how
# slow the host is at that moment, and dividing by it removes the slowdown.
_REF_RNG = np.random.default_rng(12345)
_REF_H = [_REF_RNG.normal(size=(4, 4)) + 1j * _REF_RNG.normal(size=(4, 4)) for _ in range(8)]
_REF_H = [h + h.conj().T for h in _REF_H]
REF_NOMINAL_S = 2.3e-3  # one reference block on the 2-vCPU host of baseline.json, no other tenant running
REF_REPS = 2  # reference blocks timed at each block boundary


def reference(reps):
    """Seconds per reference block, over reps blocks."""
    t0 = time.perf_counter()
    for _ in range(15 * reps):
        u = np.eye(4, dtype=complex)
        for h in _REF_H:
            u = scipy.linalg.expm(-1j * h) @ u
        acc = 0
        for i in range(200):
            acc += i * i
    return (time.perf_counter() - t0) / reps


class Sampler:
    """Reference blocks run from a timer signal while a long operation runs.

    Every ``interval`` seconds of wall time the SIGALRM handler interrupts
    the operation between two bytecodes and times one reference block, so
    the host's speed is known throughout an operation that lasts seconds,
    not only at its ends.  ``busy`` is the handler's own time, which the
    caller takes off the operation's time.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference(1))
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_probe(args):
    """Wall time of a fresh interpreter that imports the package, makes the first call and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]  # fmt: skip
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quditcycle" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'quditcycle'}; run from a repository checkout",
              file=sys.stderr)  # fmt: skip
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        if args.probe:
            wl.first_call()
            return 0
        return run(args, wl, spans, workloads.Verdict)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, spans, Verdict) -> int:
    """Run the operation list in passes, in blocks of wl.block operations.

    A reference block runs before the first block and after every block; a
    block's cost is its time over the mean of the reference times on either
    side (and, untraced, of those a Sampler took during the block), so a
    slowdown of the whole host cancels.  Each block's cost is its median over
    the passes.  Every pass after the first must repeat every
    output (and, traced, every call count) of the first.  Traced runs make
    two passes, to compare the counts.
    """
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    passes = 2 if tracer else wl.passes

    # Set-up probes run between blocks, spread evenly over all passes, so
    # that one period of interference cannot slow all of them.
    n = len(wl)
    blocks = -(-n // wl.block)
    probes = [] if tracer else sorted(k * passes * blocks // SETUP_PROBES for k in range(SETUP_PROBES))
    setup_times = []
    times = [[] for _ in range(n)]  # per operation: its time in each pass
    costs = [[] for _ in range(blocks)]  # per block: its cost in each pass, in reference blocks
    refs = []
    prints = []  # per operation: hash of its first output
    failures = {}  # operation index (or "counts") -> first Verdict that failed
    fidelities = []
    counts = []
    for pass_no in range(passes):
        if tracer:
            tracer.reset()
        ops = enumerate(wl.ops())
        ref = reference(REF_REPS)
        for b in range(blocks):
            while probes and probes[0] <= pass_no * blocks + b:
                probes.pop(0)
                setup_times.append(setup_probe(args))
                ref = reference(REF_REPS)
            spent = 0.0
            sampler = Sampler(None if tracer else wl.sample_s)
            for i, op in itertools.islice(ops, wl.block):
                with sampler:
                    busy = sampler.busy
                    t0 = time.perf_counter()
                    out = tracer.run_op(i, wl.call, op) if tracer else wl.call(op)
                    dt = time.perf_counter() - t0 - (sampler.busy - busy)
                spent += dt
                times[i].append(dt)
                fingerprint = hash(wl.fingerprint(op, out))
                if pass_no:
                    if fingerprint != prints[i]:
                        failures.setdefault(i, Verdict(False, f"operation {i} gave a different output when repeated"))
                    continue
                prints.append(fingerprint)
                verdict = wl.check(op, out)
                if not verdict.ok:
                    failures[i] = verdict
                if verdict.fidelity is not None:
                    fidelities.append(verdict.fidelity)
            after = reference(REF_REPS)
            costs[b].append(spent / statistics.fmean([ref, *sampler.samples, after]))
            refs.append(after)
            ref = after
        if tracer:
            counts.append(tracer.counts())
    if len(counts) == 2 and counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k))
        failures["counts"] = Verdict(False, f"call counts differ between the two passes: {diff[:5]}")

    attempted = n
    # Operations per second at the nominal reference speed: the host's slowdown divided out.
    adj_ops_per_s = n / (math.fsum(statistics.median(c) for c in costs) * REF_NOMINAL_S)
    best = sorted(min(t) for t in times)  # per operation: its fastest time
    print(f"wall {n / math.fsum(statistics.median(t) for t in times):.6g} ops/s, reference block median "
          f"{1e3 * statistics.median(refs):.4g} ms (nominal {1e3 * REF_NOMINAL_S:.4g} ms)", file=sys.stderr)  # fmt: skip
    if tracer:
        tracer.dump(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json")
        values = {
            # Traced throughput and latency: against the untraced run they give the tracing overhead.
            "bench.adj_ops_per_s": (adj_ops_per_s, "1/s"),
            "bench.ops_per_s": (n / math.fsum(best), "1/s"),
            "bench.op_p50_ms": (1e3 * statistics.median(best), "ms"),
            "bench.op_p99_ms": (1e3 * percentile(best, 99), "ms"),
            **spans.layer_metrics(tracer, attempted),
        }
    else:
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "adj_ops_per_s": (adj_ops_per_s, "1/s"),
            "ok_ratio": (1.0 - len(failures) / attempted, "ratio"),
            "fidelity_min": (min(fidelities, default=1.0), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    unexpected = [f for f in failures.values() if not f.known_defect]
    known = [f for f in failures.values() if f.known_defect]
    for f in unexpected[:10]:
        print(f"FAILED: {f.reason}", file=sys.stderr)
    if known:
        print(f"known defect, {len(known)} of {attempted} operations: {known[0].reason}", file=sys.stderr)
    result = {
        # A known defect counts as failed but does not make the run incorrect;
        # any other wrong or missing output does.
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
