"""One benchmark process: set up one workload, then time whole rounds of it.

Run by `run.py` in a fresh process per workload; it prints one JSON object as
its last line.  The set-up clock starts before numpy is imported, and the
BLAS and OpenMP thread counts are pinned to 1 before that.

The host is shared, and its speed drifts by up to half over tens of seconds,
in process CPU time as much as in wall time.  So each timed operation is
preceded by `probe`, a fixed piece of work that calls no derivsamp code, and
an operation's figure is its time over the probe's, times PROBE_REF_S: its
time at the host speed at which the probe takes PROBE_REF_S.  `wall_s` is
the mean over the run's rounds of the sum of their figures, and `op_p50_ms`
the median of all figures; `op_tail_ms` is taken over the operations of a
round, each represented by the median of its figures.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fractions import Fraction  # noqa: E402

import derivsamp  # noqa: E402  (imports numpy)
import numpy as np  # noqa: E402

from layers import Calls, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

MIN_OPS = 40  # op_tail_ms needs at least ten operations beyond its percentile
MIN_ROUNDS = 3  # so that each operation's median has three repeats or more
PROBE_REF_S = 1.5e-3  # about the probe's time on the 2-vCPU host of README.md
_PROBE_Y = np.arange(64.0)


def probe() -> float:
    """Seconds taken by a fixed mix of the work the workloads do (integer and
    dict code, exact Fraction arithmetic, small numpy calls), none of it in
    derivsamp: the host's speed at this moment."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += (i * i) % 7
    d = {}
    for i in range(1500):
        d[i] = str(i)
    q = Fraction(0)
    for k in range(1, 40):
        q += Fraction(1, k) * Fraction(k + 1, k + 2)
    x = 0.0
    for k in range(150):
        x += float(np.dot(_PROBE_Y, _PROBE_Y + k))
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    calls = Calls(derivsamp, tracer)
    if tracer is not None:
        with tracer.span("bench.setup"):
            workload = WORKLOADS[args.workload](args.seed, derivsamp, calls)
    else:
        workload = WORKLOADS[args.workload](args.seed, derivsamp, calls)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Warm-up calls are untimed and, in a traced run, left out of the trace.
    setup_mark = tracer.mark() if tracer is not None else None
    for op in workload.warmup():
        op.run()
    if tracer is not None:
        tracer.rewind(setup_mark)

    correct, attempted, failed, rounds = True, 0, 0, 0
    times: list[float] = []  # every timed operation, unscaled
    # The same over the probe time just before it, times PROBE_REF_S; one
    # list per position in the round, one entry per round.
    scaled: list[list[float]] = []
    probes: list[float] = []
    host_wait = 0.0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for j, op in enumerate(workload.round()):
            if j == len(scaled):
                scaled.append([])
            gc.collect()
            probes.append(probe())
            attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is not None:
                    with tracer.span(f"op.{op.kind}", op=attempted):
                        out = op.run()
                else:
                    out = op.run()
            except (ValueError, ArithmeticError) as exc:
                out = None
                failed += 1
                print(f"# failed: {op.label}: {exc}", file=sys.stderr)
            t1, c1 = time.perf_counter(), time.process_time()
            times.append(t1 - t0)
            scaled[j].append(PROBE_REF_S * (t1 - t0) / probes[-1])
            host_wait += (t1 - t0) - (c1 - c0)
            if out is None:
                continue
            try:
                if op.check(out):
                    failed += 1
            except CheckError as exc:
                correct = False
                print(f"# wrong: {op.label}: {exc}", file=sys.stderr)
        try:
            workload.end_round()
        except CheckError as exc:
            correct = False
            print(f"# wrong: round: {exc}", file=sys.stderr)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds and rounds >= MIN_ROUNDS:
            break

    if len(scaled) < MIN_OPS:
        print(f"# a round needs at least {MIN_OPS} operations, got {len(scaled)}", file=sys.stderr)
        return 2
    pooled = [x for xs in scaled for x in xs]
    wall_s = sum(pooled) / rounds
    pct, tail_s = tail([statistics.median(xs) for xs in scaled])
    print(
        f"# rounds={rounds} ops={len(pooled)} tail=p{pct:.1f} of {len(scaled)} wall_s={wall_s:.4f} "
        f"unscaled_wall_s={sum(times) / rounds:.4f} probe_ms={1e3 * statistics.median(probes):.4f} "
        f"host_wait_s={host_wait:.4f} setup_s={setup_s:.4f}"
    )
    if tracer is not None:
        for line in tracer.summary_lines():
            print(line)
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path)
        print(f"# spans written to {path.relative_to(Path.cwd())}")
        metrics = {name: (value, "s" if name.endswith("_s") else "count") for name, value in tracer.per_layer_metrics(setup_mark, rounds).items()}
        metrics["bench.host_wait_s"] = (host_wait / rounds, "s")
        metrics["bench.probe_s"] = (statistics.median(probes), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(pooled), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
