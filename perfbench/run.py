"""ntdkit benchmark: one closed-loop workload per run, one client.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(input generation, file writing and one warm-up op) is repeated and its
median reported, then ops run back to back for ``--seconds`` and at least
100 ops, and every output is checked after the clock stops.  Times are
scaled to a host of fixed speed by a reference kernel timed between ops
(see ``Reference``).  ``--trace 1`` runs each of the first ops of the same
schedule twice, untraced and then traced, and reports the per-layer table.
``--workload all`` runs every workload in its own process.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS", "NTD_NUM_THREADS")
WORKLOAD_NAMES = ("recover", "certify", "stored")
SETUP_REPEATS = 3
MIN_OPS = 100     # so that ten samples lie beyond the 90th percentile
REF_S = 0.010     # reference kernel time that reported times are scaled to

# End-to-end metric names with (unit, better).
END_TO_END = {
    "ops_per_s": ("op/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "success_ratio": ("ratio", "higher"),
    "correct_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def isolate():
    """Pin BLAS/OpenMP pools to one thread (before numpy is imported) and
    put this checkout's ``src`` first on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_ntdkit():
    """Import ntdkit from this checkout, refusing any other copy."""
    try:
        import ntdkit
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ntdkit from "
                         f"{os.path.join(ROOT, 'src')}: {exc}") from exc
    where = os.path.dirname(os.path.abspath(ntdkit.__file__))
    if os.path.dirname(where) != os.path.join(ROOT, "src"):
        raise SystemExit(f"error: ntdkit imported from {where}, not from "
                         f"this checkout")
    return ntdkit


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Reference:
    """A fixed kernel, timed between ops, that scales op times to a host
    on which one pass of it takes ``REF_S`` seconds.

    A shared host can run identical work at speeds 1.7x apart, in phases
    of seconds to minutes, and CPU time slows with wall time; a raw run
    then mostly measures which phases it caught.  The kernel does the
    kinds of work ntdkit ops are made of, in about equal shares of time:
    an interpreter loop, small dense solves and a JSON round trip.  (A pass
    over a large array was left out: it slows far less than the ops do.)
    Each op's time is multiplied by ``REF_S`` over the mean of the kernel
    times just before and just after it, so a phase that slows both
    cancels, while a change to ntdkit moves only the op."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((24, 24)) + 24 * np.eye(24)
        self.b = rng.random(24)
        self.doc = rng.random((60, 20)).tolist()
        self.times = []

    def sample(self):
        """Time one pass of the kernel, keep it and return it."""
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for j in range(37000):
            acc += j * j
        for i in range(130):
            acc += np.linalg.solve(self.a + i * np.eye(24), self.b)[0]
        acc += len(json.dumps(json.loads(json.dumps(self.doc))))
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def scaled(self, seconds, before, after):
        """``seconds`` of work bracketed by kernel times ``before`` and
        ``after``, in seconds at the reference speed."""
        return seconds * REF_S * 2.0 / (before + after)


def run_op(fn):
    """Run one op; returns (seconds, output, exception or None)."""
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a raising op is counted, not fatal
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def grade(workload, state, k, out, err):
    """'failed', 'wrong' or 'ok' for one op's output."""
    if err is not None or workload.failed(out):
        return "failed"
    try:
        return "ok" if workload.check(state, k, out) else "wrong"
    except (ValueError, KeyError, TypeError, AttributeError):
        return "wrong"


def set_up(workload, seed, workdir, ref):
    """Repeat set-up; returns (state, median scaled seconds, warm-up
    grade)."""
    times = []
    before = ref.sample()
    for rep in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{rep}")
        os.makedirs(d)
        t0 = time.perf_counter()
        state = workload.setup(seed, d)
        _, out, err = run_op(workload.op(state, workload.warmup_op, d))
        dt = time.perf_counter() - t0
        after = ref.sample()
        times.append(ref.scaled(dt, before, after))
        before = after
    return state, statistics.median(times), \
        grade(workload, state, workload.warmup_op, out, err)


def measure(workload, state, seconds, outdir, ref):
    """Closed loop for ``seconds`` and at least MIN_OPS ops, with the
    reference kernel timed before the first op and after each op.
    Returns the (k, seconds, output, error) records, each op's seconds at
    the reference speed, and the raw wall time of the loop."""
    os.makedirs(outdir)
    records, scaled = [], []
    start = time.perf_counter()
    deadline = start + seconds
    before = ref.sample()
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        records.append((k,) + run_op(workload.op(state, k, outdir)))
        after = ref.sample()
        scaled.append(ref.scaled(records[-1][1], before, after))
        before = after
        k += 1
    return records, scaled, time.perf_counter() - start


def end_to_end(workload, state, records, scaled, setup_s):
    """Metrics from the records; times are those at the reference speed."""
    grades = [grade(workload, state, k, out, err)
              for k, _, out, err in records]
    n = len(records)
    lat = [dt * 1e3 for dt in scaled]
    failed, wrong = grades.count("failed"), grades.count("wrong")
    metrics = {
        "ops_per_s": n / sum(scaled),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "success_ratio": (n - failed) / n,
        "correct_ratio": (n - wrong) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return metrics, n, failed, wrong


def trace_ops(workload, state, workdir):
    """Each of the first ``trace_ops`` ops untraced, then traced.

    Interleaving the two passes op by op exposes both to the same machine
    load, so their time ratio is the tracing overhead.  Returns the
    tracer and the (k, seconds, output, error) records of both passes."""
    from tracing import Tracer
    dirs = [os.path.join(workdir, name) for name in ("plain", "traced")]
    for d in dirs:
        os.makedirs(d)
    tracer = Tracer()
    plain, traced = [], []
    for k in range(workload.trace_ops):
        plain.append((k,) + run_op(workload.op(state, k, dirs[0])))
        tracer.op = k
        tracer.patch()
        try:
            traced.append((k,) + run_op(workload.op(state, k, dirs[1])))
        finally:
            tracer.restore()
    return tracer, plain, traced


def traced_run(workload, state, workdir, spans_path):
    from tracing import layer_metrics
    tracer, plain, traced = trace_ops(workload, state, workdir)
    failed = wrong = 0
    for k, _, out, err in plain + traced:
        g = grade(workload, state, k, out, err)
        failed += g == "failed"
        wrong += g == "wrong"
    for (k, _, a, ea), (_, _, b, eb) in zip(plain, traced):
        if ea is None and eb is None and \
                workload.digest(state, k, a) != workload.digest(state, k, b):
            wrong += 1  # tracing changed an output
    tracer.write(spans_path)
    plain_s = sum(dt for _, dt, _, _ in plain)
    traced_s = sum(dt for _, dt, _, _ in traced)
    return (layer_metrics(tracer.spans, len(traced), traced_s, plain_s),
            len(plain) + len(traced), failed, wrong)


def print_table(title, metrics, units):
    print(title)
    width = max(len(m) for m in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name][0]}")


def run_one(args):
    isolate()
    load_ntdkit()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, check_budget
    workload = WORKLOADS[args.workload]
    try:
        check_budget(workload.shapes())
    except ValueError as exc:
        raise SystemExit(f"error: workload {workload.name} refused: {exc}")
    env = environment()
    print(f"ntdkit benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ref = Reference()
        ref.sample()  # first pass pays for page faults and lazy imports
        state, setup_s, warm = set_up(workload, args.seed, workdir, ref)
        if args.trace:
            spans = os.path.join(base, f"spans-{workload.name}-{args.seed}"
                                 f".json")
            from tracing import LAYER_METRICS
            metrics, n, failed, wrong = traced_run(workload, state, workdir,
                                                   spans)
            units = LAYER_METRICS
            print_table(f"per-layer totals over {workload.trace_ops} ops "
                        f"(spans in {os.path.relpath(spans, ROOT)})",
                        metrics, units)
        else:
            records, scaled, wall = measure(workload, state, args.seconds,
                                            os.path.join(workdir, "timed"),
                                            ref)
            metrics, n, failed, wrong = end_to_end(workload, state, records,
                                                   scaled, setup_s)
            units = END_TO_END
            print_table(f"end to end over {n} ops in {wall:.2f} s "
                        f"(p50 and p90 from {n} samples; times at "
                        f"reference speed)", metrics, units)
            kernel = statistics.quantiles(ref.times, n=4)
            print(f"  raw ops_per_s  {n / wall:.6g} op/s   reference "
                  f"kernel  {statistics.median(ref.times) * 1e3:.4g} ms "
                  f"(Q1-Q3 {kernel[0] * 1e3:.4g}-{kernel[2] * 1e3:.4g}, "
                  f"{len(ref.times)} passes; {REF_S * 1e3:g} ms is the "
                  f"reference speed)")
            print(f"  fail_ratio  {failed / n:.6g} ({failed}/{n})   "
                  f"wrong_ratio  {wrong / n:.6g} ({wrong}/{n})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # A failed op has no output to judge: it counts in "failed" only.
    correct = wrong == 0 and warm != "wrong"
    print(f"verdict: {'correct' if correct else 'INCORRECT'} "
          f"({n} ops, {failed} failed, {wrong} wrong, warm-up {warm})")
    result = {"correct": correct, "attempted": n, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name][0]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            raise SystemExit(f"error: workload {name} exited "
                             f"{proc.returncode}")
        print("\n".join(lines[:-1]) + "\n")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
