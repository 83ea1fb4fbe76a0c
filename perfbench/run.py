"""The repository's benchmark: one workload, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload swor-narrow --seed 1 --seconds 35 --trace 0

The program under test is imported from ``src/`` next to this directory.
One invocation computes the workload's oracle once for the seed, then
repeats set-up and timed run until ``--seconds`` have passed (at least
:data:`MIN_REPS` times). Every run's output is checked against the oracle.

``--trace 0`` prints the end-to-end metrics (:data:`END_TO_END`); the
result line carries those not in :data:`NOT_REGISTERED`.
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics of the traced ones (:data:`layers.PER_LAYER`, medians
over the traced runs) with the tracing overhead: the median traced run's
``items_per_s`` against the median untraced run's.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = [
    ("items_per_s", "items/s", "higher"),
    ("window_ms_p50", "ms", "lower"),
    ("window_ms_p90", "ms", "lower"),
    ("messages_total", "messages", "lower"),
    ("words_total", "words", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END}

#: End-to-end metrics printed but left out of the result line and of
#: ``BENCHMARK.json``, and why.
NOT_REGISTERED = ("items_per_s", "window_ms_p50", "window_ms_p90")
NOT_REGISTERED_WHY = (
    "wall-clock rates follow the host's processor speed, which on a 2-core VM "
    "swings by up to 1.5x over minutes; over ten seeds their spread "
    "(IQR/median) reached 0.28-0.50 on swor-narrow, above the largest bound "
    "a registered metric may have"
)

#: Fewest runs per invocation, however long they take.
MIN_REPS = 3
#: Fewest runs per invocation with ``--trace 1`` (half of them traced).
MIN_TRACED_REPS = 4

_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark; False where Linux offers none."""
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> Optional[float]:
    """Peak resident memory of this process since the last reset, in MiB.

    None when ``/proc/self/status`` cannot be read. Sharded workers are
    separate processes and not included; the shared memory the parent
    maps is.
    """
    try:
        for line in _STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


#: Why ``peak_rss_mb`` is left out when the peak mark cannot be reset or
#: read: the process-lifetime peak would include the oracle run.
NO_RSS_RESET = "the peak-RSS mark could not be reset or read (/proc/self/clear_refs, VmHWM)"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts for shm."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


class Rep:
    """Measurements of one set-up plus timed run."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.error = ""
        self.setup_s = 0.0
        self.generate_s = 0.0
        self.wall_s = 0.0
        self.items_per_s = 0.0
        self.window_ms: list = []
        self.peak_rss_mb: Optional[float] = None
        self.outcome = None
        self.pipeline = None
        self.layers: dict = {}
        self.absent: dict = {}


def one_run(workload, seed: int, oracle, traced: bool) -> Rep:
    """Set up, run and check the workload once."""
    from repro.kernels import reset_kernel_stats
    from repro.obs import MetricsRegistry

    import layers
    from workloads import CheckFailed

    rep = Rep(traced)
    sharded = workload.workers is not None
    prepared = None
    gc.collect()
    rss_reset = reset_peak_rss()
    try:
        t0 = time.perf_counter()
        stream = workload.build_stream(seed)
        t1 = time.perf_counter()
        registry = MetricsRegistry() if traced and workload.queries else None
        prepared = workload.setup(seed, stream, registry)
        t2 = time.perf_counter()
        rep.generate_s, rep.setup_s = t1 - t0, t2 - t0
        tracer = layers.Tracer()
        if traced:
            layers.attach(tracer, prepared, sharded)
        reset_kernel_stats()
        try:
            w0 = time.perf_counter()
            times = prepared.run()
            w1 = time.perf_counter()
        finally:
            tracer.restore()
        rep.peak_rss_mb = peak_rss_mb() if rss_reset else None
        rep.wall_s = w1 - w0
        rep.items_per_s = workload.items / rep.wall_s
        rep.window_ms = [(b - a) * 1e3 for a, b in zip(times, times[1:])]
        if sharded:
            stats = prepared.engine.last_run_stats
            if stats.get("mode") != "sharded" or not stats.get("warm_pool"):
                raise CheckFailed(f"sharded run did not use its warm pool: {stats}")
            rep.pipeline = "pipelined" if stats.get("pipeline") == "on" else "lockstep"
        rep.outcome = prepared.outcome()
        if rep.outcome != oracle:
            raise CheckFailed(f"output {rep.outcome} differs from oracle {oracle}")
        if traced:
            rep.layers, rep.absent = layers.layer_metrics(
                tracer,
                prepared,
                workload,
                rep.wall_s,
                len(rep.window_ms),
                rep.generate_s,
                registry,
            )
    except Exception:  # a failed run is counted and reported, never fatal
        rep.error = traceback.format_exc()
    finally:
        if prepared is not None:
            prepared.close()
    return rep


def measure(workload, seed: int, seconds: float, traced: bool, oracle=None):
    """Run the workload for ``seconds``; return (oracle, reps)."""
    if oracle is None:
        oracle = workload.oracle(seed)
    min_reps = MIN_TRACED_REPS if traced else MIN_REPS
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(one_run(workload, seed, oracle, traced and len(reps) % 2 == 1))
    return oracle, reps


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _window_summary(rep) -> str:
    if len(rep.window_ms) < 2:
        return ""
    return f" (p50 {statistics.median(rep.window_ms):.3f} ms, p90 {_p90(rep.window_ms):.3f} ms)"


def end_to_end(reps) -> dict:
    """End-to-end values over the successful untraced runs.

    Medians over the runs, as the runs of one seed repeat the same work:
    ``items_per_s`` is the median run's, and each window percentile is
    the median over runs of that percentile of the run's own windows, so
    a few runs disturbed by other load on the host do not move it.
    Message and word counts repeat exactly, so any run gives them.
    """
    ok = [r for r in reps if not r.error and not r.traced]
    if not ok:
        return {}
    rss = [r.peak_rss_mb for r in ok]
    values = {
        "items_per_s": _median([r.items_per_s for r in ok]),
        "window_ms_p50": _median([statistics.median(r.window_ms) for r in ok]),
        "window_ms_p90": _median([_p90(r.window_ms) for r in ok]),
        "messages_total": ok[0].outcome.messages_total,
        "words_total": ok[0].outcome.words_total,
        "setup_s": _median([r.setup_s for r in ok]),
    }
    if None not in rss:
        values["peak_rss_mb"] = _median(rss)
    return values


def per_layer(reps):
    """Median per-layer values over the traced runs, absent reasons and overhead."""
    from layers import PER_LAYER

    traced = [r for r in reps if not r.error and r.traced]
    plain = [r for r in reps if not r.error and not r.traced]
    values, absent = {}, {}
    for name, _unit, _better in PER_LAYER:
        if name == "trace.overhead_share":
            continue
        values[name] = _median([r.layers[name] for r in traced])
        for r in traced:
            if name in r.absent:
                absent[name] = r.absent[name]
    traced_ips = _median([r.items_per_s for r in traced])
    plain_ips = _median([r.items_per_s for r in plain])
    values["trace.overhead_share"] = 1.0 - traced_ips / plain_ips if plain_ips else 0.0
    return values, absent, traced_ips, plain_ips


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    import repro.kernels
    from layers import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    traced = bool(args.trace)
    try:
        oracle, reps = measure(workload, args.seed, args.seconds, traced)
    finally:
        stop_resource_tracker()

    pipelines = sorted({r.pipeline for r in reps if r.pipeline})
    manifest = {
        "workload": workload.name,
        "seed": args.seed,
        "items": workload.items,
        "sites": workload.sites,
        "sample_size": workload.sample_size,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": repro.kernels.active().name,
        "git_sha": git_sha(ROOT),
        "peak_rss_reset": all(r.peak_rss_mb is not None for r in reps if not r.error),
        "sharded_pipeline": (
            "+".join(pipelines)
            if pipelines
            else "not run: workload does not use the sharded engine"
        ),
    }
    print(f"perfbench {workload.name}: {workload.why}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(
        f"oracle ({workload.oracle_engine}): messages={oracle.messages_total} "
        f"words={oracle.words_total} fingerprint={oracle.fingerprint[:16]}"
    )
    for i, r in enumerate(reps, 1):
        status = "ok" if not r.error else "FAILED"
        print(
            f"run {i}{' traced' if r.traced else ''}: setup {r.setup_s:.3f} s, "
            f"run {r.wall_s:.3f} s, {r.items_per_s:.4g} items/s, "
            f"{len(r.window_ms)} windows{_window_summary(r)}, {status}"
        )
        if r.error:
            print(r.error, file=sys.stderr)
    failed = sum(1 for r in reps if r.error)
    print(f"metric failed_share {failed / len(reps):.4g} fraction ({failed} of {len(reps)} runs)")

    if traced:
        values, absent, traced_ips, plain_ips = per_layer(reps)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, _unit, _better in PER_LAYER:
            note = f"  absent: {absent[name]}" if name in absent else ""
            print(f"layer {name} {values[name]:.6g} {units[name]}{note}")
        print(
            f"trace overhead: traced {traced_ips:.4g} items/s against untraced "
            f"{plain_ips:.4g} items/s ({values['trace.overhead_share']:+.1%})"
        )
        print("absent " + json.dumps(absent, sort_keys=True))
    else:
        values = end_to_end(reps)
        units = END_TO_END_UNITS
        ok = [r for r in reps if not r.error and not r.traced]
        windows = len(ok[0].window_ms) if ok else 0
        for name, unit, _better in END_TO_END:
            if name in values:
                note = (
                    f" (median over {len(ok)} runs of {windows} windows each)"
                    if name.startswith("window_ms")
                    else ""
                )
                print(f"metric {name} {values[name]:.6g} {unit}{note}")
            elif name == "peak_rss_mb" and ok:
                print(f"metric {name} absent: {NO_RSS_RESET}")
        print(f"not registered: {', '.join(NOT_REGISTERED)} -- {NOT_REGISTERED_WHY}")
        values = {n: v for n, v in values.items() if n not in NOT_REGISTERED}
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
