"""Compare fresh benchmark JSONs against the committed baselines.

The perf trajectory lives in ``benchmarks/baselines/BENCH_*.json`` —
one JSON per benchmark, recorded at the CI smoke configuration (the
``REPRO_BENCH_*`` env knobs printed inside each file).  The CI
benchmark-smoke job re-runs each benchmark at the same configuration
and calls this script, which **fails on a >20% regression** of any
tracked throughput metric.

Tracked metrics are *relative* (engine speedups, memory ratios): they
normalize out the absolute speed of the host, so a laptop, this
container, and a shared CI runner can all be compared against the same
committed numbers.  Absolute items/sec values are carried in the JSONs
for the record but not gated (cross-machine noise would make the gate
meaningless); pass ``--absolute`` to gate them too when comparing runs
from the same machine.

Usage::

    python benchmarks/compare_baselines.py \
        --baseline-dir benchmarks/baselines --fresh-dir . \
        [--max-regression 0.20] [--absolute]

Pass ``--update`` to copy the fresh JSONs over the committed baselines
instead of comparing (refused when a fresh result failed its parity
checks or ran in fallback mode — a broken run must never become the
recorded trajectory).  Before overwriting, ``--update`` prints the
same per-metric ratio table against the outgoing baseline — purely
informational (never gating), so nightly logs show the trajectory
each refresh moved.

Fresh files must use the same names as the baselines
(``BENCH_engines.json`` etc.); the script verifies the workload
configuration (items/sites/...) matches before comparing, so a
misconfigured run fails loudly instead of comparing apples to oranges.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

#: Per-benchmark spec: which keys identify the workload configuration
#: and which higher-is-better ratio metrics are gated.
BASELINES: Dict[str, Dict[str, List[str]]] = {
    "BENCH_engines.json": {
        "config": ["items", "sites", "sample_size"],
        "ratios": ["speedup"],
        "absolute": ["batched_items_per_sec"],
    },
    "BENCH_multiquery.json": {
        "config": ["items", "sites", "sample_size", "num_queries"],
        "ratios": ["speedup"],
        "absolute": ["shared_items_per_sec"],
    },
    "BENCH_columnar.json": {
        "config": ["items", "sites", "sample_size"],
        "ratios": ["speedup", "memory_ratio"],
        "absolute": ["columnar_items_per_sec"],
    },
    # hh_speedup is recorded in the JSON but deliberately not gated
    # here: the residual-HH per-item baseline swings ~±20% run to run
    # (its site path was already vectorized pre-PR-4, so the measured
    # margin is small); the in-bench REPRO_BENCH_COLP_HH_MIN_SPEEDUP
    # gate covers real losses.
    "BENCH_columnar_protocols.json": {
        "config": ["items", "sites"],
        "ratios": [
            "swr_speedup",
            "unweighted_speedup",
            "l1_speedup",
            "sliding_window_speedup",
        ],
        "absolute": ["swr_columnar_items_per_sec"],
    },
    # The speedup here is the multiprocess gain over the single-process
    # columnar engine at the SAME batch size — meaningful only when the
    # recording machine had >= workers cores (the JSON's "cpu_count"
    # says; the in-bench REPRO_BENCH_SHARD_MIN_SPEEDUP gate enforces the
    # real 2.5x floor on multicore runners).
    "BENCH_sharded.json": {
        "config": ["items", "sites", "sample_size", "workers", "batch_size"],
        "ratios": ["speedup"],
        "absolute": ["sharded_items_per_sec"],
    },
    # supervision_ratio is unsupervised/supervised wall time on the
    # SAME lockstep sharded run (~1.0 when supervision is free, the
    # in-bench REPRO_BENCH_FAULTS_MAX_OVERHEAD gate enforces the real
    # 2% ceiling); recovery_identical rides along as a parity check.
    "BENCH_faults.json": {
        "config": ["items", "sites", "sample_size", "workers", "batch_size"],
        "ratios": ["supervision_ratio"],
        "absolute": ["supervised_items_per_sec"],
    },
    # fold_speedup is numba-vs-numpy on the fused coordinator fold; a
    # numpy-only environment records 1.0 (the bench skips the compiled
    # tier but still asserts parity), so the committed number is stable
    # wherever numba is absent and meaningful wherever it is present.
    "BENCH_kernels.json": {
        "config": ["pack_size", "sample_size", "rounds"],
        "ratios": ["fold_speedup"],
        "absolute": ["numpy_folds_per_sec"],
    },
}


def update_guard(name: str, fresh: dict) -> List[str]:
    """Why a fresh result must NOT become the committed baseline.

    A baseline records the perf trajectory of the *real* engine paths:
    a run whose parity checks failed or that fell back in-process would
    freeze a broken or meaningless number into the repository, and the
    next healthy run would then "regress" against it.  Refuse loudly.
    """
    problems = []
    for key, value in sorted(fresh.items()):
        if key.endswith("_identical") and value is not True:
            problems.append(
                f"{name}: refusing --update, parity check {key!r} is "
                f"{value!r} in the fresh result"
            )
    for key, value in sorted(fresh.items()):
        if key.endswith("mode") and value == "fallback":
            problems.append(
                f"{name}: refusing --update, {key!r} is 'fallback' — the "
                "fresh run never exercised the engine path it would pin"
            )
    return problems


def compare_file(
    name: str,
    baseline: dict,
    fresh: dict,
    max_regression: float,
    absolute: bool,
) -> List[str]:
    """Return a list of failure messages (empty when healthy)."""
    spec = BASELINES[name]
    failures = []
    for key in spec["config"]:
        if baseline.get(key) != fresh.get(key):
            failures.append(
                f"{name}: config mismatch on {key!r} "
                f"(baseline {baseline.get(key)}, fresh {fresh.get(key)}) — "
                "run the benchmark with the same REPRO_BENCH_* knobs the "
                "baseline was recorded with"
            )
    if failures:
        return failures
    metrics = list(spec["ratios"]) + (spec["absolute"] if absolute else [])
    for metric in metrics:
        base = float(baseline[metric])
        new = float(fresh[metric])
        regression = (base - new) / base if base > 0 else 0.0
        status = "OK" if regression <= max_regression else "REGRESSED"
        print(
            f"  {name}: {metric:24s} baseline={base:<10.3f} "
            f"fresh={new:<10.3f} change={-regression:+.1%}  [{status}]"
        )
        if regression > max_regression:
            failures.append(
                f"{name}: {metric} regressed {regression:.1%} "
                f"({base:.3f} -> {new:.3f}; limit {max_regression:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(__file__), "baselines"),
    )
    parser.add_argument("--fresh-dir", default=".")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop per metric (default 0.20)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate absolute items/sec (same-machine comparisons only)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="restrict the comparison to these baseline file names (e.g. "
        "the nightly job records baselines only for the benchmarks it "
        "runs at full scale)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="instead of comparing, copy the fresh JSONs over the "
        "committed baselines — refused for any fresh result whose "
        "parity checks failed or that ran in fallback mode",
    )
    args = parser.parse_args(argv)

    names = sorted(BASELINES)
    if args.only:
        unknown = [n for n in args.only if n not in BASELINES]
        if unknown:
            # A typo'd --only must fail loudly, not silently compare
            # nothing and report success.
            print(
                f"--only got unknown baseline names {unknown}; "
                f"known: {names}",
                file=sys.stderr,
            )
            return 2
        names = sorted(args.only)

    if args.update:
        failures = []
        updated = 0
        for name in names:
            fresh_path = os.path.join(args.fresh_dir, name)
            if not os.path.exists(fresh_path):
                failures.append(
                    f"missing fresh result {fresh_path} — run the benchmark "
                    f"with REPRO_BENCH_*_JSON={name} before --update"
                )
                continue
            with open(fresh_path) as fh:
                fresh = json.load(fh)
            problems = update_guard(name, fresh)
            if problems:
                failures.extend(problems)
                continue
            baseline_path = os.path.join(args.baseline_dir, name)
            if os.path.exists(baseline_path):
                # Informational trajectory print only: an update is a
                # deliberate re-record, so a regression here must not
                # fail the job — the table just makes it visible.
                with open(baseline_path) as fh:
                    outgoing = json.load(fh)
                print(f"  {name}: change vs outgoing baseline:")
                compare_file(name, outgoing, fresh, float("inf"), True)
            with open(baseline_path, "w") as fh:
                json.dump(fresh, fh, indent=2)
                fh.write("\n")
            print(f"  {name}: baseline updated from {fresh_path}")
            updated += 1
        if failures:
            print("\nbaseline update FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"\nupdated {updated} benchmark baselines")
        return 0

    failures: List[str] = []
    compared = 0
    for name in names:
        baseline_path = os.path.join(args.baseline_dir, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(baseline_path):
            failures.append(f"missing committed baseline {baseline_path}")
            continue
        if not os.path.exists(fresh_path):
            failures.append(
                f"missing fresh result {fresh_path} — run the benchmark "
                f"with REPRO_BENCH_*_JSON={name}"
            )
            continue
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(fresh_path) as fh:
            fresh = json.load(fh)
        failures.extend(
            compare_file(name, baseline, fresh, args.max_regression, args.absolute)
        )
        compared += 1
    if failures:
        print("\nbenchmark baseline comparison FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {compared} benchmark baselines within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
