"""Run one benchmark workload of diffsym and print its metrics.

    python3 perfbench/run.py --workload split-standard --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass (spans go to .perfbench_out/).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 on a completed run (failed cases included), 2 when the program
cannot be set up.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

import bench
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        ctx, first, setup_s = bench.setup(workload, ROOT, args.seed)
    except (bench.SetupError, ImportError) as exc:
        print(f"error: cannot set up diffsym: {exc}", file=sys.stderr)
        return 2
    n_rounds = bench.rounds_for(workload, args.seconds)
    gc.collect()
    if args.trace:
        # two passes over the same inputs, so each gets half the rounds
        rounds = [first] + [workload.cases(ctx, r) for r in range(1, max(1, n_rounds // 2))]
        spans = ROOT / ".perfbench_out" / f"spans-{workload.name}-{args.seed}.jsonl"
        metrics, results = bench.traced(workload, ctx, rounds, spans)
        note = f"{len(rounds)} rounds per pass; spans in {spans.relative_to(ROOT)}"
    else:
        rounds = (first if r == 0 else workload.cases(ctx, r) for r in range(n_rounds))
        results = bench.run_cases(workload, ctx, rounds)
        metrics, note = bench.end_to_end(results, setup_s[0])
        raw, _ = bench.end_to_end(results, setup_s[1], adjusted=False)
        speed = statistics.median(r.speed for r in results)
        note += f"; speed factor {speed:.3f}; raw: " + ", ".join(
            f"{name} {raw[name][0]:.6g}" for name in ("setup_s", "cases_per_s", "small_m_p50_ms",
                                                       "large_m_p50_ms", "case_tail_ms"))

    failed = [r for r in results if r.error is not None]
    for r in failed[:10]:
        print(f"FAILED m={r.m} {r.kind}: {r.error}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} cases={len(results)} failed={len(failed)} "
          f"fail_share={len(failed) / len(results):.4f} ({note})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
