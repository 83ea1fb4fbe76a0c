"""Kernel-tier benchmark: the compiled fold vs numpy, with parity.

Two claims of the kernel tier (:mod:`repro.kernels`), measured where
they matter:

1. **Microbenchmark** — the fused SWOR coordinator fold
   (``swor_fold_regulars``: threshold mask + top-``s`` merge + kept-set
   selection in one pass) on steady-state packs.  With numba importable
   the compiled backend must be **>= 1.6x** the numpy backend after an
   explicit JIT warmup; numpy-only environments *skip the gate* —
   ``fold_speedup`` records ``1.0`` so the committed baseline is stable
   wherever numba is absent — but still assert **bit parity** of every
   runnable backend (numpy, the numba logic as plain Python, and numba
   itself when present) on the bench columns.
2. **End to end** — ``parent_fold_seconds`` (the sharded engine's
   serial fraction) on the 1M/64-style config, measured with
   ``kernels="numpy"`` and — when numba is importable — with
   ``kernels="numba"``, which must reduce it.  Samples and counters
   must be identical between the two, whatever the backend.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q

Environment knobs (used by the CI smoke and nightly jobs):

* ``REPRO_BENCH_KERN_PACK``        — pack size per fold (default 4096)
* ``REPRO_BENCH_KERN_SAMPLE``      — sample size ``s`` (default 64)
* ``REPRO_BENCH_KERN_ROUNDS``      — distinct packs folded per timing
  rep (default 200)
* ``REPRO_BENCH_KERN_MIN_SPEEDUP`` — numba-vs-numpy gate (default 1.6;
  0 disables; automatically skipped when numba is absent)
* ``REPRO_BENCH_KERN_ITEMS``       — end-to-end stream length
  (default 1000000; 0 skips the end-to-end half)
* ``REPRO_BENCH_KERN_SITES``       — end-to-end sites (default 64)
* ``REPRO_BENCH_KERN_WORKERS``     — end-to-end workers (default 4)
* ``REPRO_BENCH_KERN_BATCH``       — end-to-end batch (default 262144)
* ``REPRO_BENCH_KERN_JSON``        — path to write the result as JSON
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.analysis import format_table
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.kernels import numba_backend, numpy_backend
from repro.runtime import ShardedEngine
from repro.stream.columns import columnar_zipf_stream

PACK = int(os.environ.get("REPRO_BENCH_KERN_PACK", 4096))
SAMPLE = int(os.environ.get("REPRO_BENCH_KERN_SAMPLE", 64))
ROUNDS = int(os.environ.get("REPRO_BENCH_KERN_ROUNDS", 200))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_KERN_MIN_SPEEDUP", 1.6))
ITEMS = int(os.environ.get("REPRO_BENCH_KERN_ITEMS", 1_000_000))
SITES = int(os.environ.get("REPRO_BENCH_KERN_SITES", 64))
WORKERS = int(os.environ.get("REPRO_BENCH_KERN_WORKERS", 4))
BATCH = int(os.environ.get("REPRO_BENCH_KERN_BATCH", 262144))
JSON_PATH = os.environ.get("REPRO_BENCH_KERN_JSON")
REPS = 3  # timing repetitions (best-of)
SEED = 1

NUMBA = numba_backend.NUMBA_AVAILABLE
SPEEDUP_GATED = MIN_SPEEDUP > 0 and NUMBA


def _make_packs():
    """Steady-state fold inputs: a full sample set whose threshold
    rejects most of each pack, the regime the coordinator lives in
    after the first epochs."""
    rng = np.random.default_rng(0)
    threshold = 1.0
    old_keys = rng.uniform(1.0, 1.4, SAMPLE)
    packs = [rng.uniform(0.0, 1.2, PACK) for _ in range(ROUNDS)]
    return threshold, old_keys, packs


def _time_backend(fold, threshold, old_keys, packs):
    """Best-of-REPS wall seconds for folding every pack once."""
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        for keys in packs:
            fold(keys, threshold, old_keys, SAMPLE)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _fold_outputs(fold, threshold, old_keys, keys):
    surv, kept, cut, at_cut = fold(keys, threshold, old_keys, SAMPLE)
    return (surv.tolist(), kept.tolist(), float(cut), int(at_cut))


def _parity(threshold, old_keys, packs):
    """Bit parity of every runnable backend on the bench columns (the
    numba module's loop logic runs as plain Python when numba is
    absent, so the seam is exercised everywhere)."""
    for keys in packs[: min(20, len(packs))]:
        want = _fold_outputs(
            numpy_backend.swor_fold_regulars, threshold, old_keys, keys
        )
        got = _fold_outputs(
            numba_backend.swor_fold_regulars, threshold, old_keys, keys
        )
        if got != want:
            return False
    return True


def _run_sharded(stream, kernels):
    engine = ShardedEngine(batch_size=BATCH, workers=WORKERS, kernels=kernels)
    try:
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.run(stream)  # warmup: pool spawn + kernel JIT
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.run(stream)
        stats = dict(engine.last_run_stats)
    finally:
        engine.close()
    timing = stats.get("timing") or {}
    return (
        proto.sample_with_keys(),
        proto.counters.snapshot(),
        timing.get("parent_fold_seconds"),
        stats.get("mode"),
    )


def _bench(report_fn):
    threshold, old_keys, packs = _make_packs()
    if NUMBA:
        numba_backend.warmup()  # JIT-compile outside the timed region
    parity_identical = _parity(threshold, old_keys, packs)

    numpy_seconds = _time_backend(
        numpy_backend.swor_fold_regulars, threshold, old_keys, packs
    )
    numba_seconds = (
        _time_backend(
            numba_backend.swor_fold_regulars, threshold, old_keys, packs
        )
        if NUMBA
        else None
    )
    fold_speedup = numpy_seconds / numba_seconds if NUMBA else 1.0

    rows = [
        {
            "backend": "numpy",
            "seconds": round(numpy_seconds, 4),
            "folds_per_sec": round(ROUNDS / numpy_seconds),
        }
    ]
    if NUMBA:
        rows.append(
            {
                "backend": "numba",
                "seconds": round(numba_seconds, 4),
                "folds_per_sec": round(ROUNDS / numba_seconds),
            }
        )

    result = {
        "pack_size": PACK,
        "sample_size": SAMPLE,
        "rounds": ROUNDS,
        "numba_available": NUMBA,
        "numpy_seconds": round(numpy_seconds, 4),
        "numpy_folds_per_sec": round(ROUNDS / numpy_seconds),
        "fold_speedup": round(fold_speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "speedup_gated": SPEEDUP_GATED,
        "parity_identical": parity_identical,
    }
    if NUMBA:
        result["numba_seconds"] = round(numba_seconds, 4)
        result["numba_folds_per_sec"] = round(ROUNDS / numba_seconds)

    e2e_note = "end-to-end skipped (REPRO_BENCH_KERN_ITEMS=0)"
    if ITEMS > 0:
        stream = columnar_zipf_stream(ITEMS, SITES, seed=0, alpha=1.2)
        sample_np, counters_np, fold_np, mode_np = _run_sharded(
            stream, "numpy"
        )
        result.update(
            {
                "items": ITEMS,
                "sites": SITES,
                "workers": WORKERS,
                "batch_size": BATCH,
                "sharded_mode": mode_np,
                "parent_fold_seconds_numpy": (
                    None if fold_np is None else round(fold_np, 4)
                ),
            }
        )
        e2e_note = f"parent fold {fold_np:.3f}s (numpy)" if fold_np else ""
        if NUMBA:
            sample_nb, counters_nb, fold_nb, mode_nb = _run_sharded(
                stream, "numba"
            )
            result["parent_fold_seconds_numba"] = (
                None if fold_nb is None else round(fold_nb, 4)
            )
            result["e2e_samples_identical"] = sample_nb == sample_np
            result["e2e_counters_identical"] = counters_nb == counters_np
            if fold_np and fold_nb:
                result["parent_fold_ratio"] = round(fold_np / fold_nb, 3)
                e2e_note += (
                    f", {fold_nb:.3f}s (numba): "
                    f"{result['parent_fold_ratio']:.2f}x smaller serial "
                    "fraction"
                )

    gate_note = (
        f"fold speedup {fold_speedup:.2f}x (target >= {MIN_SPEEDUP}x)"
        if SPEEDUP_GATED
        else f"fold speedup gate SKIPPED "
        f"({'disabled' if NUMBA else 'numba not installed'}; "
        "parity still enforced)"
    )
    report_fn(
        format_table(
            rows,
            title=f"kernel tier: fused SWOR coordinator fold, "
            f"pack={PACK}, s={SAMPLE}, {ROUNDS} packs/rep (best of {REPS})",
            caption=f"{gate_note}; parity identical: {parity_identical}; "
            f"{e2e_note}",
        )
    )
    if JSON_PATH:
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def test_kernel_fold_speedup_and_parity(benchmark, report):
    result = benchmark.pedantic(lambda: _bench(report), rounds=1, iterations=1)
    assert result["parity_identical"], (
        "kernel backends diverged on the microbenchmark columns"
    )
    if ITEMS > 0:
        assert result["sharded_mode"] == "sharded", (
            f"sharded engine fell back in-process: {result['sharded_mode']}"
        )
    if ITEMS > 0 and NUMBA:
        assert result["e2e_samples_identical"], (
            "numba-kernel sharded samples diverged from the numpy kernels"
        )
        assert result["e2e_counters_identical"], (
            "numba-kernel sharded counters diverged from the numpy kernels"
        )
    if SPEEDUP_GATED:
        assert result["fold_speedup"] >= MIN_SPEEDUP, (
            f"compiled coordinator fold only {result['fold_speedup']:.2f}x "
            f"the numpy backend (target >= {MIN_SPEEDUP}x)"
        )
        if ITEMS > 0 and result.get("parent_fold_ratio") is not None:
            assert result["parent_fold_ratio"] > 1.0, (
                "compiled kernels did not reduce parent_fold_seconds "
                f"(ratio {result['parent_fold_ratio']:.2f}x)"
            )
