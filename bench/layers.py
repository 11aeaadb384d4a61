"""Per-layer timing of the benchmark's calls into derivsamp.

A workload reaches derivsamp only through a `Calls` object.  Untraced, its
attributes are the library functions themselves, so the timed path carries
no wrapper.  Traced, each attribute records a span (name, start, end, thread
CPU time, parent span, operation id) and the layer's extra counts; spans are
kept in memory and written out when the run ends.  The program itself is not
instrumented: a call that derivsamp makes internally is not a span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# Public function -> the module (layer) it belongs to.
LAYER_OF = {
    "check_cis": "symbol",
    "inv_symbol_coeffs": "kernel",
    "reproducing_order": "kernel",
    "moment_check_fourier": "kernel",
    "theta_eval": "kernel",
    "frame_bounds": "sampler",
    "verify_sampling_inequality": "sampler",
    "grid_for_window": "sampler",
    "take_samples": "sampler",
    "apply_sw": "sampler",
    "tau_modulus": "smoothness",
}

TOL = 1e-12  # the kernel tolerance every workload requests


def _count_check_cis(counts, args, kwargs, out):
    counts["symbol.check_cis.cis"] += int(out.is_cis)


def _count_inv_symbol_coeffs(counts, args, kwargs, out):
    counts["kernel.inv_symbol_coeffs.radius_sum"] += out.radius
    counts["kernel.inv_symbol_coeffs.tail_over_tol"] += int(out.tail_bound > kwargs.get("tol", TOL))


def _count_theta_eval(counts, args, kwargs, out):
    counts["kernel.theta_eval.points"] += int(np.size(out))


def _count_vsi(counts, args, kwargs, out):
    counts["sampler.verify_sampling_inequality.trials"] += out.n_trials


def _count_take_samples(counts, args, kwargs, out):
    counts["sampler.take_samples.samples"] += int(np.size(out))


def _count_apply_sw(counts, args, kwargs, out):
    counts["sampler.apply_sw.points"] += int(np.size(out))


EXTRA_COUNTS = {
    "check_cis": _count_check_cis,
    "inv_symbol_coeffs": _count_inv_symbol_coeffs,
    "theta_eval": _count_theta_eval,
    "verify_sampling_inequality": _count_vsi,
    "take_samples": _count_take_samples,
    "apply_sw": _count_apply_sw,
}

COUNT_NAMES = (
    "symbol.check_cis.cis",
    "kernel.inv_symbol_coeffs.radius_sum",
    "kernel.inv_symbol_coeffs.tail_over_tol",
    "kernel.theta_eval.points",
    "sampler.verify_sampling_inequality.trials",
    "sampler.take_samples.samples",
    "sampler.apply_sw.points",
    "signals.points_evaluated",
)


def span_name(fn: str) -> str:
    return f"{LAYER_OF[fn]}.{fn}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None
    op: int | None


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, c1 - c0, parent, self._op)

    def mark(self):
        return len(self.spans), dict(self.counts)

    def rewind(self, mark) -> None:
        """Drop the spans and counts recorded since `mark`."""
        n, counts = mark
        del self.spans[n:]
        self.counts.clear()
        self.counts.update(counts)

    def wrap(self, fn_name: str, fn):
        name = span_name(fn_name)
        counter = EXTRA_COUNTS.get(fn_name)

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    def layer_totals(self, start: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name over spans[start:stop]: calls, wall, cpu and self
        time (wall minus the time its child spans cover)."""
        child_wall = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_wall[s.parent] += s.end - s.start
        totals: dict[str, dict[str, float]] = {}
        for idx in range(start, len(self.spans) if stop is None else stop):
            s = self.spans[idx]
            t = totals.setdefault(s.name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0})
            wall = s.end - s.start
            t["calls"] += 1
            t["wall_s"] += wall
            t["cpu_s"] += s.cpu
            t["self_s"] += wall - child_wall[idx]
        return totals

    def per_layer_metrics(self, setup_mark, rounds: int) -> dict[str, float]:
        """Each metric as its set-up part plus its mean per timed round, so that
        a run's figures do not depend on how many rounds fitted in it."""
        n_setup, setup_counts = setup_mark
        setup = self.layer_totals(0, n_setup)
        timed = self.layer_totals(n_setup)
        zero = {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0}
        out: dict[str, float] = {}
        for fn in LAYER_OF:
            a, b = setup.get(span_name(fn), zero), timed.get(span_name(fn), zero)
            for key in ("calls", "wall_s", "cpu_s"):
                out[f"{span_name(fn)}.{key}"] = a[key] + b[key] / rounds
        for name in COUNT_NAMES:
            a = setup_counts.get(name, 0)
            out[name] = a + (self.counts.get(name, 0) - a) / rounds
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"# {'span':<42} {'calls':>6} {'wall_s':>9} {'cpu_s':>9} {'self_s':>9}"]
        for name, t in sorted(self.layer_totals().items()):
            lines.append(
                f"# {name:<42} {t['calls']:>6} {t['wall_s']:>9.4f} {t['cpu_s']:>9.4f} {t['self_s']:>9.4f}"
            )
        for name in COUNT_NAMES:
            lines.append(f"# count {name} = {self.counts.get(name, 0):g}")
        return lines

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class Calls:
    """The derivsamp functions the workloads call, traced or not."""

    def __init__(self, ds, tracer: Tracer | None = None):
        self.tracer = tracer
        for fn_name in LAYER_OF:
            fn = getattr(ds, fn_name)
            setattr(self, fn_name, fn if tracer is None else tracer.wrap(fn_name, fn))


class CountingChannel:
    """A signal channel that counts the points it is evaluated at (traced runs)."""

    def __init__(self, ch, counts):
        self._ch = ch
        self._counts = counts
        self.spec = ch.spec
        self.special_points = ch.special_points

    def __call__(self, t):
        self._counts["signals.points_evaluated"] += int(np.size(t))
        return self._ch(t)
