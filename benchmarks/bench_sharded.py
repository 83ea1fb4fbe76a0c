"""Sharded runtime benchmark: multiprocess site shards vs one process.

The tentpole claims of the sharded engine, pinned at the multi-million-
item scale the ROADMAP's "saturate all cores" target demands:

1. **Throughput** — with at least 4 worker processes on a machine that
   has at least 4 cores, on a 5M-item / 64-site weighted-SWOR run the
   sharded engine must deliver **>= 2.5x** items/sec over the
   single-process columnar engine.  On machines with fewer cores than
   workers the speedup gate is *skipped* (process parallelism cannot
   exceed the hardware — the nightly job provides the multicore
   enforcement) but everything else still runs and is asserted.
2. **Bit-parity** — samples AND message counters identical to the
   columnar engine (same RNG draw order end to end, same word
   accounting), at **<= 1.0x** messages by construction; asserted on
   every run, whatever the core count.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded.py -q

Environment knobs (used by the CI smoke and nightly jobs):

* ``REPRO_BENCH_SHARD_ITEMS``       — stream length (default 5000000)
* ``REPRO_BENCH_SHARD_SITES``       — number of sites (default 64)
* ``REPRO_BENCH_SHARD_WORKERS``     — worker processes (default 4)
* ``REPRO_BENCH_SHARD_BATCH``      — batch size for BOTH engines
  (default 262144: windows are the unit of worker round trips, so the
  sharded engine prefers them large; parity holds at any value)
* ``REPRO_BENCH_SHARD_MIN_SPEEDUP`` — speedup floor (default 2.5; 0
  disables the speedup gate explicitly)
* ``REPRO_BENCH_SHARD_MAX_MSG_RATIO`` — message envelope (default 1.0)
* ``REPRO_BENCH_SHARD_SWEEP``       — comma-separated worker counts to
  additionally measure for the README table (e.g. ``1,2,4,8``; off by
  default)
* ``REPRO_BENCH_SHARD_JSON``        — path to write the result as JSON
"""

from __future__ import annotations

import json
import os
import time

from repro.analysis import format_table
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.runtime import ColumnarEngine, ShardedEngine
from repro.stream.columns import columnar_zipf_stream

ITEMS = int(os.environ.get("REPRO_BENCH_SHARD_ITEMS", 5_000_000))
SITES = int(os.environ.get("REPRO_BENCH_SHARD_SITES", 64))
WORKERS = int(os.environ.get("REPRO_BENCH_SHARD_WORKERS", 4))
BATCH = int(os.environ.get("REPRO_BENCH_SHARD_BATCH", 262144))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SHARD_MIN_SPEEDUP", 2.5))
MAX_MSG_RATIO = float(os.environ.get("REPRO_BENCH_SHARD_MAX_MSG_RATIO", 1.0))
SWEEP = os.environ.get("REPRO_BENCH_SHARD_SWEEP", "")
JSON_PATH = os.environ.get("REPRO_BENCH_SHARD_JSON")
SAMPLE = 16
SEED = 1
REPS = 2  # timing repetitions per engine (best-of)

#: The speedup gate only binds when the hardware can actually run the
#: workers in parallel; the nightly full-scale job (4-core runners)
#: is the enforcing environment.
CPU_COUNT = os.cpu_count() or 1
if MIN_SPEEDUP <= 0:
    GATE_SKIP_REASON = f"REPRO_BENCH_SHARD_MIN_SPEEDUP={MIN_SPEEDUP:g} disables it"
elif CPU_COUNT < WORKERS:
    GATE_SKIP_REASON = f"{CPU_COUNT} cores < {WORKERS} workers"
else:
    GATE_SKIP_REASON = None
SPEEDUP_GATED = GATE_SKIP_REASON is None


def _make_stream():
    return columnar_zipf_stream(ITEMS, SITES, seed=0, alpha=1.2)


def _run_once(stream, engine):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=SEED,
        engine=engine,
    )
    t0 = time.perf_counter()
    proto.run(stream)
    return time.perf_counter() - t0, proto


def _measure(stream, engine):
    """Best-of-REPS timing with one engine instance.

    An explicit warmup run precedes the timed loop: for the sharded
    engine it spawns the persistent worker pool, and when the compiled
    kernel tier is active it pays the first-call JIT compilation — so
    best-of measures steady-state (warm-pool, warm-kernel) throughput,
    the regime a long-lived engine actually runs in.
    """
    _run_once(stream, engine)  # warmup: pool spawn + kernel JIT
    best = None
    for _ in range(REPS):
        elapsed, proto = _run_once(stream, engine)
        if best is None or elapsed < best[0]:
            best = (elapsed, proto)
    return best


def _bench(report_fn):
    stream = _make_stream()
    col_time, col_proto = _measure(stream, ColumnarEngine(batch_size=BATCH))
    engine = ShardedEngine(batch_size=BATCH, workers=WORKERS)
    try:
        sharded_time, sharded_proto = _measure(stream, engine)
        stats = dict(engine.last_run_stats)
        metrics = None
        if JSON_PATH:
            # One extra instrumented run on the warm pool so the JSON
            # artifact embeds the run's full telemetry; the timed runs
            # above stay pristine.
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
            engine.instrument(registry)
            try:
                _run_once(stream, engine)
            finally:
                engine.instrument(None)
            metrics = registry.snapshot()
        return _finish(
            report_fn,
            stream,
            col_time,
            col_proto,
            (sharded_time, sharded_proto, stats),
            metrics,
        )
    finally:
        engine.close()


def _parity(col_proto, proto):
    return (
        col_proto.sample_with_keys() == proto.sample_with_keys(),
        col_proto.counters.snapshot() == proto.counters.snapshot(),
    )


def _finish(report_fn, stream, col_time, col_proto, sharded, metrics=None):
    sharded_time, sharded_proto, stats = sharded
    speedup = col_time / sharded_time
    samples_identical, counters_identical = _parity(col_proto, sharded_proto)
    messages_ratio = sharded_proto.counters.total / col_proto.counters.total

    rows = [
        {
            "engine": "columnar (1 process)",
            "seconds": round(col_time, 4),
            "items_per_sec": round(ITEMS / col_time),
        },
        {
            "engine": f"sharded ({WORKERS} workers)",
            "seconds": round(sharded_time, 4),
            "items_per_sec": round(ITEMS / sharded_time),
        },
    ]
    sweep_rows = []
    if SWEEP:
        for w in [int(x) for x in SWEEP.split(",") if x.strip()]:
            sweep_engine = ShardedEngine(batch_size=BATCH, workers=w)
            try:
                _run_once(stream, sweep_engine)  # warm the pool
                t, _proto = _run_once(stream, sweep_engine)
            finally:
                sweep_engine.close()
            sweep_rows.append(
                {
                    "engine": f"sharded ({w} workers)",
                    "seconds": round(t, 4),
                    "items_per_sec": round(ITEMS / t),
                    "speedup_vs_columnar": round(col_time / t, 2),
                    "mode": sweep_engine.last_run_stats.get("mode"),
                }
            )
    result = {
        "items": ITEMS,
        "sites": SITES,
        "sample_size": SAMPLE,
        "workers": WORKERS,
        "batch_size": BATCH,
        "cpu_count": CPU_COUNT,
        "columnar_seconds": round(col_time, 4),
        "sharded_seconds": round(sharded_time, 4),
        "columnar_items_per_sec": round(ITEMS / col_time),
        "sharded_items_per_sec": round(ITEMS / sharded_time),
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "speedup_gated": SPEEDUP_GATED,
        "gate_skip_reason": GATE_SKIP_REASON,
        "samples_identical": samples_identical,
        "counters_identical": counters_identical,
        "messages_total": sharded_proto.counters.total,
        "messages_ratio": round(messages_ratio, 6),
        "max_messages_ratio": MAX_MSG_RATIO,
        "mode": stats.get("mode"),
        "warm_pool": stats.get("warm_pool"),
        "rollbacks": stats.get("rollbacks"),
        "windows": stats.get("windows"),
        "timing": stats.get("timing"),
    }
    gate_note = (
        f"{speedup:.2f}x (floor >= {MIN_SPEEDUP}x)"
        if SPEEDUP_GATED
        else f"{speedup:.2f}x (gate SKIPPED: {GATE_SKIP_REASON} — parity "
        "still enforced)"
    )
    report_fn(
        format_table(
            rows + sweep_rows,
            title=f"sharded runtime: weighted SWOR, {ITEMS} items, "
            f"k={SITES}, s={SAMPLE}, batch={BATCH}",
            caption=f"{gate_note}; samples identical: {samples_identical}, "
            f"counters identical: {counters_identical}, "
            f"messages ratio {messages_ratio:.3f} (cap {MAX_MSG_RATIO}); "
            f"rollbacks={result['rollbacks']} over {result['windows']} "
            "windows",
        )
    )
    if JSON_PATH:
        if metrics is not None:
            result["metrics"] = metrics
        with open(JSON_PATH, "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def test_sharded_speedup_and_parity(benchmark, report):
    result = benchmark.pedantic(lambda: _bench(report), rounds=1, iterations=1)
    assert result["mode"] == "sharded", (
        f"sharded engine fell back in-process: {result['mode']}"
    )
    assert result["samples_identical"], (
        "sharded samples diverged from the columnar engine"
    )
    assert result["counters_identical"], (
        "sharded message counters diverged from the columnar engine"
    )
    assert result["messages_ratio"] <= MAX_MSG_RATIO, (
        f"sharded engine sent {result['messages_ratio']:.3f}x the columnar "
        f"engine's messages (cap {MAX_MSG_RATIO}x)"
    )
    if SPEEDUP_GATED:
        assert result["speedup"] >= MIN_SPEEDUP, (
            f"sharded engine only {result['speedup']:.2f}x faster than "
            f"columnar at {WORKERS} workers (floor >= {MIN_SPEEDUP}x)"
        )
