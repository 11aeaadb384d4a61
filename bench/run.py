"""Benchmark of derivsamp: run one workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run starts fresh single-threaded
worker processes: one that sets up and times whole rounds of the workload
for about --seconds, and SETUP_PROBES - 1 that only set up, half before it
and half after.  `setup_s` is the median set-up time of all of them.  With
--trace 1 the worker records per-layer spans and prints the per-layer
metrics instead of the end-to-end ones.  The last line of standard output is
one JSON object.

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --steady 5

runs the workload five times, with seeds 1 to 5, and prints the median and
quartiles of each end-to-end metric and their spread (quartile distance over
median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


class RunError(RuntimeError):
    pass


def worker(args: list[str]) -> tuple[list[str], dict]:
    """Run one worker process to completion; returns its info lines and result."""
    # A fixed hash seed takes one source of process-to-process variation out
    # of dict- and set-heavy code; no result depends on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker {' '.join(args)} printed no result")
    return lines[:-1], json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        return worker([*base, "--trace", "1"])
    # Probes before and after the timed worker, so that the median spans the
    # whole run rather than one moment of the host's load.
    before = (SETUP_PROBES - 1) // 2
    setups = [worker([*base, "--setup-only"])[1]["setup_s"] for _ in range(before)]
    info, result = worker(base)
    setups.append(result["metrics"]["setup_s"]["value"])
    setups += [worker([*base, "--setup-only"])[1]["setup_s"] for _ in range(SETUP_PROBES - 1 - before)]
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    info.append("# setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    return info, result


def steady(workload: str, seed: int, seconds: float, k: int) -> dict:
    values: dict[str, list[float]] = {}
    failed_shares = set()
    correct = True
    for s in range(seed, seed + k):
        _, result = run_once(workload, s, seconds, 0)
        correct = correct and result["correct"]
        failed_shares.add(f"{result['failed']}/{result['attempted']}")
        line = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"# seed {s}: " + ", ".join(f"{n}={v:.4f}" for n, v in line.items()), flush=True)
        for name, v in line.items():
            values.setdefault(name, []).append(v)
    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        print(f"# {name:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {(q3 - q1) / med:.4f}")
    return {"workload": workload, "runs": k, "correct": correct, "failed_of_attempted": sorted(failed_shares), "metrics": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("certify", "verify", "reconstruct", "smoothness"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K", help="run K times with seeds seed..seed+K-1 and print spreads")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "derivsamp").is_dir():
        print(f"no derivsamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.steady:
            print(json.dumps(steady(args.workload, args.seed, args.seconds, args.steady)))
            return 0
        info, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
