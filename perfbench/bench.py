"""Benchmark harness: set-up, the timed phase, output checks and metrics.

One caller, one thread, closed loop: each case starts when the previous one
and its check have finished.  Only the call under test is timed; generating a
round's inputs and checking outputs happen between timed calls.

The host is shared, and the speed it gives this process swings by a third
over minutes.  So a fixed stdlib-only reference task is timed before every
case, and every case time is scaled by REFERENCE_S over the median of the
reference times around it: the end-to-end times read as on a host where the
reference takes REFERENCE_S.  The reference does not touch diffsym, so any
change to diffsym shows in full.  Raw times are printed beside them.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer, metric_unit, per_layer_names

SETUP_REPEATS = 5
LARGEST_M = 5
# Time of the reference task on this benchmark's nominal host (2-core x86-64
# virtual machine, Python 3.11) when it is not slowed by other tenants.
REFERENCE_S = 0.002
# Reference samples on each side of a case that set its speed factor.
REFERENCE_WINDOW = 3

_REF_A = tuple(Fraction(i + 1, i + 2) for i in range(20))
_REF_B = tuple(Fraction(2 * i - 7, 3) for i in range(20))


def reference_seconds() -> float:
    """Time one product of two 20-term Fraction vectors (about 2 ms).

    Like diffsym it is allocation-heavy Fraction arithmetic, so it slows down
    with diffsym when the host does.
    """
    start = perf_counter()
    acc = [Fraction(0)] * 39
    for i, x in enumerate(_REF_A):
        for j, y in enumerate(_REF_B):
            acc[i + j] += x * y
    return perf_counter() - start


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


class Diffsym:
    """The diffsym modules of one fresh import, looked up at call time.

    Workloads call through these module objects, so the tracer's patches on
    module attributes take effect without touching the workload code.
    """

    MODULES = ("split", "deriv", "symalg", "matdiff", "parser", "cli", "scalars")

    def __init__(self, src: Path):
        if not (src / "diffsym" / "__init__.py").is_file():
            raise SetupError(f"no diffsym package under {src}")
        if sys.path[0] != str(src):
            sys.path.insert(0, str(src))
        for key in [k for k in sys.modules if k == "diffsym" or k.startswith("diffsym.")]:
            del sys.modules[key]
        package = importlib.import_module("diffsym")
        if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
            raise SetupError(f"diffsym imported from {package.__file__}, not from {src}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"diffsym.{name}"))

    def field(self, m: int):
        """Q(w_m)(t) with d/dt, as the CLI builds it."""
        return self.scalars.RatFuncField(self.scalars.CycloField(m), "t")


def setup(workload, root: Path, seed: int):
    """Import, build shared state and the first round, SETUP_REPEATS times.

    Each repeat starts from a fresh import; the last one is kept.  Returns
    (ctx, first round of cases, median set-up seconds as (adjusted, raw)).
    """
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        ref = statistics.median(reference_seconds() for _ in range(3))
        start = perf_counter()
        ds = Diffsym(root / "src")
        ctx = workload.setup(ds, seed)
        first = workload.cases(ctx, 0)
        raw.append(perf_counter() - start)
        adjusted.append(raw[-1] * REFERENCE_S / ref)
    return ctx, first, (statistics.median(adjusted), statistics.median(raw))


def rounds_for(workload, seconds: float) -> int:
    """Rounds that take about `seconds` at the nominal round time; at least one."""
    return max(1, round(seconds / workload.round_seconds))


@dataclass
class CaseResult:
    m: int
    kind: str
    seconds: float
    error: str | None
    speed: float = 1.0  # REFERENCE_S over the reference times around the case

    @property
    def adjusted(self) -> float:
        return self.seconds * self.speed


def run_case(workload, ctx, case, tracer: Tracer | None = None) -> CaseResult:
    """Run one case, timing only the call under test, then check its output."""
    error = None
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        output = workload.run(ctx, case)
    except Exception as exc:  # counted as a failed case, never raised
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if error is None:
        try:
            workload.check(ctx, case, output)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return CaseResult(case.m, case.kind, seconds, error)


def run_cases(workload, ctx, rounds):
    """Run and check every case of `rounds` (an iterable of case lists).

    A reference time is taken before each case and after the last; each
    result's speed factor comes from the REFERENCE_WINDOW samples on each side.
    """
    results, refs = [], []
    for cases in rounds:
        for case in cases:
            refs.append(reference_seconds())
            results.append(run_case(workload, ctx, case))
    refs.append(reference_seconds())
    for i, r in enumerate(results):
        window = refs[max(0, i + 1 - REFERENCE_WINDOW):i + 1 + REFERENCE_WINDOW]
        r.speed = REFERENCE_S / statistics.median(window)
    return results


def tail(times):
    """The highest percentile with at least 10 cases beyond it: (value, percentile, n)."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def end_to_end(results, setup_s, adjusted: bool = True):
    """The end-to-end metrics as {name: (value, unit)}, and a note on the tail.

    Times are speed-adjusted, or raw with adjusted=False; setup_s is the
    matching number from setup().
    """
    times = [r.adjusted if adjusted else r.seconds for r in results]
    by_m = {}
    for r, t in zip(results, times):
        by_m.setdefault(r.m, []).append(t)
    failed = sum(r.error is not None for r in results)
    tail_s, pct, n = tail(times)
    return {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (len(times) / sum(times), "1/s"),
        "small_m_p50_ms": (statistics.median(by_m[2]) * 1e3, "ms"),
        "large_m_p50_ms": (statistics.median(by_m[LARGEST_M]) * 1e3, "ms"),
        "case_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_share": ((len(times) - failed) / len(times), "ratio"),
    }, f"p{pct:.1f} of {n} cases"


def traced(workload, ctx, rounds, spans_path: Path | None):
    """Per-layer metrics of `rounds`, and the results of both passes.

    Each case runs once on the original functions and then once wrapped, so
    drift in machine speed falls on both sides of trace.overhead_share.
    """
    tracer = Tracer()
    ctx["tracer"] = tracer
    plain, with_trace = [], []
    try:
        for cases in rounds:
            for case in cases:
                plain.append(run_case(workload, ctx, case))
                tracer.case_id = len(with_trace)
                tracer.install()
                try:
                    with_trace.append(run_case(workload, ctx, case, tracer))
                finally:
                    tracer.restore()
    finally:
        ctx["tracer"] = None
    layer = tracer.layer_metrics()
    layer["trace.wall_ms"] = sum(r.seconds for r in with_trace) * 1e3
    layer["trace.overhead_share"] = sum(r.seconds for r in with_trace) / sum(r.seconds for r in plain) - 1
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = {name: (layer.get(name, 0), metric_unit(name)) for name in per_layer_names()}
    return metrics, plain + with_trace
