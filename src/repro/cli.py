"""Command-line interface: run the paper's protocols from a shell.

Examples::

    python -m repro swor --sites 32 --sample 16 --items 50000
    python -m repro swr  --sites 8  --sample 16 --items 20000
    python -m repro hh   --sites 16 --eps 0.1 --items 40000
    python -m repro l1   --sites 16 --eps 0.2 --items 30000
    python -m repro query --sites 16 --items 50000
    python -m repro bounds --sites 1000 --sample 64 --weight 1e12

Each subcommand synthesizes a seeded workload, runs the protocol, and
prints a result table (sample / report / estimate plus message counts
against the relevant closed-form bound).  ``query`` runs a whole
catalog of estimation queries concurrently over one shared stream pass
(see :mod:`repro.query`).

Every subcommand accepts ``--engine {reference,batched,columnar,sharded}``
(``--batch-size N`` for the batching engines, ``--workers N``,
``--worker-timeout SECONDS``, ``--max-worker-restarts N``, and the
debug-only ``--fault-plan PLAN`` for the sharded engine,
``--kernels {auto,numba,numpy}`` for the columnar-plane engines — see
:mod:`repro.kernels`) to pick the execution runtime; see
:mod:`repro.runtime`.
Every protocol has a native columnar fast path, so ``--engine columnar``
is bit-identical to ``batched`` on each subcommand, just faster —
and ``--engine sharded`` runs the site passes across worker processes,
bit-identical to ``columnar`` at any worker count.  ``--seed`` may be
given either globally (``repro --seed 7 swor``) or per subcommand; the
subcommand's value wins when both are present.

``--profile`` profiles the parent process: under ``--engine sharded``
that is the coordinator fold and transport (the interesting hot path);
worker processes are spawned fresh and are not traced.
``--profile-out FILE`` writes the full profile to a file instead
(implies profiling even without ``--profile``).

Every run-driving subcommand also accepts ``--metrics-out FILE``: the
run executes with a live :class:`~repro.obs.MetricsRegistry` attached
and the telemetry is written at exit — Prometheus text for ``.prom`` /
``.txt`` paths, a JSON snapshot otherwise.  ``repro stats`` runs a
seeded SWOR workload and dumps the exposition straight to stdout.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .analysis import bounds, format_table
from .core import DistributedWeightedSWOR, DistributedWeightedSWR, SworConfig
from .heavy_hitters import ResidualHeavyHitterTracker
from .l1 import DeterministicCounterTracker, HyzStyleTracker, L1Tracker
from .runtime import ENGINES, get_engine
from .runtime.batched import DEFAULT_BATCH_SIZE, DEFAULT_INITIAL_BATCH_SIZE
from .stream import (
    round_robin,
    two_phase_residual_stream,
    unit_stream,
    zipf_stream,
)

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """Installed distribution version, falling back to the module's."""
    try:
        from importlib.metadata import version

        return version("repro-weighted-reservoir")
    except Exception:  # not installed (PYTHONPATH=src use)
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weighted reservoir sampling from distributed streams "
        "(PODS 2019) - protocol runner",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        dest="global_seed",
        help="root seed applied to every subcommand (a subcommand's own "
        "--seed overrides it; default 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def engine_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            choices=sorted(ENGINES),
            default="reference",
            help="execution engine (reference = synchronous round model, "
            "batched = vectorized chunked fast path, columnar = zero-object "
            "pack fast path, bit-identical to batched, sharded = columnar "
            "site passes across worker processes, bit-identical to "
            "columnar; default: reference)",
        )
        p.add_argument(
            "--batch-size",
            type=int,
            default=None,
            help="steady-state batch size for --engine batched/columnar/"
            f"sharded (default: {DEFAULT_BATCH_SIZE}, ramping up from "
            f"{DEFAULT_INITIAL_BATCH_SIZE})",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker process count for --engine sharded "
            "(default: all CPU cores)",
        )
        p.add_argument(
            "--kernels",
            choices=("auto", "numba", "numpy"),
            default=None,
            help="kernel backend for --engine columnar/sharded: the "
            "compiled tier behind the hottest fold and site loops "
            "(numba when installed, numpy always; bit-identical either "
            "way; default: the REPRO_KERNELS env var, else auto)",
        )
        p.add_argument(
            "--worker-timeout",
            type=float,
            default=None,
            help="seconds the sharded supervisor waits for a worker "
            "message before classifying it as hung (--engine sharded "
            "only; default: 60)",
        )
        p.add_argument(
            "--max-worker-restarts",
            type=int,
            default=None,
            help="worker respawns the sharded supervisor may perform "
            "per run before degrading to a slower engine rung "
            "(--engine sharded only; default: 2)",
        )
        p.add_argument(
            "--fault-plan",
            metavar="PLAN",
            default=None,
            help="inject deterministic faults into the sharded engine's "
            "chaos seams: comma-separated kind:worker:window entries, "
            "e.g. 'kill:1:2,corrupt:0:3' (debug/test only)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="profile the run with cProfile and dump the top 20 "
            "functions to stderr (plus the sharded engine's window/"
            "rollback/timing breakdown when --engine sharded ran)",
        )
        p.add_argument(
            "--profile-sort",
            choices=("cumulative", "tottime"),
            default="cumulative",
            help="sort order for the profile dumps: cumulative time "
            "(callers inclusive) or tottime (self time — the view that "
            "surfaces the hot inner loops); default: cumulative",
        )
        p.add_argument(
            "--profile-out",
            metavar="FILE",
            default=None,
            help="write the full cProfile output to FILE (implies "
            "profiling; combine with --profile to also get the stderr "
            "summary)",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            default=None,
            help="run with a live metrics registry and write the "
            "telemetry to FILE at exit (.prom/.txt: Prometheus text; "
            "anything else: JSON snapshot)",
        )

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sites", type=int, default=16, help="number of sites k")
        p.add_argument("--items", type=int, default=20000, help="stream length")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="root seed (default: the global --seed, else 0)",
        )
        engine_opts(p)

    p_swor = sub.add_parser("swor", help="weighted SWOR (Theorem 3)")
    common(p_swor)
    p_swor.add_argument("--sample", type=int, default=16, help="sample size s")
    p_swor.add_argument(
        "--alpha", type=float, default=1.2, help="Zipf tail index of weights"
    )

    p_swr = sub.add_parser("swr", help="weighted SWR (Corollary 1)")
    common(p_swr)
    p_swr.add_argument("--sample", type=int, default=16)
    p_swr.add_argument("--alpha", type=float, default=1.2)

    p_hh = sub.add_parser("hh", help="residual heavy hitters (Theorem 4)")
    common(p_hh)
    p_hh.add_argument("--eps", type=float, default=0.1)
    p_hh.add_argument("--delta", type=float, default=0.05)

    p_l1 = sub.add_parser("l1", help="L1 tracking (Theorem 6) vs baselines")
    common(p_l1)
    p_l1.add_argument("--eps", type=float, default=0.2)
    p_l1.add_argument("--delta", type=float, default=0.2)

    p_query = sub.add_parser(
        "query",
        help="run a catalog of estimation queries concurrently over one "
        "shared stream pass (subset sums, quantiles, group-bys, heavy "
        "hitters, total weight)",
    )
    common(p_query)
    p_query.add_argument(
        "--sample", type=int, default=64, help="sample size s per SWOR-backed query"
    )
    p_query.add_argument(
        "--alpha", type=float, default=1.2, help="Zipf tail index of weights"
    )

    p_stats = sub.add_parser(
        "stats",
        help="run a seeded SWOR workload with a live metrics registry "
        "and dump the telemetry to stdout (Prometheus text or JSON)",
    )
    common(p_stats)
    p_stats.add_argument("--sample", type=int, default=16, help="sample size s")
    p_stats.add_argument(
        "--alpha", type=float, default=1.2, help="Zipf tail index of weights"
    )
    p_stats.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="exposition format printed to stdout (default: prometheus)",
    )

    p_bounds = sub.add_parser(
        "bounds", help="print every closed-form bound at given parameters"
    )
    p_bounds.add_argument("--sites", type=int, default=16)
    p_bounds.add_argument("--sample", type=int, default=16)
    p_bounds.add_argument("--eps", type=float, default=0.1)
    p_bounds.add_argument("--delta", type=float, default=0.05)
    p_bounds.add_argument("--weight", type=float, default=1e9)
    engine_opts(p_bounds)  # accepted for flag uniformity; bounds runs no stream
    return parser


def _check_engine_flags(args: argparse.Namespace) -> None:
    """Shared flag validation for every subcommand."""
    if args.batch_size is not None and args.engine not in (
        "batched",
        "columnar",
        "sharded",
    ):
        raise SystemExit(
            "--batch-size requires --engine batched, columnar, or sharded"
        )
    if args.workers is not None and args.engine != "sharded":
        raise SystemExit("--workers requires --engine sharded")
    if args.kernels is not None and args.engine not in (
        "columnar",
        "sharded",
    ):
        raise SystemExit("--kernels requires --engine columnar or sharded")
    if args.worker_timeout is not None and args.engine != "sharded":
        raise SystemExit("--worker-timeout requires --engine sharded")
    if args.max_worker_restarts is not None and args.engine != "sharded":
        raise SystemExit("--max-worker-restarts requires --engine sharded")
    if args.fault_plan is not None and args.engine != "sharded":
        raise SystemExit("--fault-plan requires --engine sharded")


def _engine_of(args: argparse.Namespace):
    """Resolve the subcommand's engine selection (stashed on ``args``
    so ``--profile`` can print the engine's run stats afterwards).
    ``--metrics-out`` (and the ``stats`` subcommand) attach a live
    registry here, so every engine-driven run exports telemetry."""
    _check_engine_flags(args)
    engine = get_engine(
        args.engine,
        batch_size=args.batch_size,
        workers=args.workers,
        kernels=args.kernels,
        worker_timeout=args.worker_timeout,
        max_worker_restarts=args.max_worker_restarts,
        fault_plan=args.fault_plan,
    )
    args._engine = engine
    if getattr(args, "metrics_out", None) or args.command == "stats":
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
        engine.instrument(registry)
        args._registry = registry
    return engine


def _resolve_seed(args: argparse.Namespace) -> None:
    """Fold the global ``--seed`` into the subcommand's (default 0)."""
    local = getattr(args, "seed", None)
    if local is None:
        local = args.global_seed if args.global_seed is not None else 0
    args.seed = local


def _cmd_swor(args: argparse.Namespace) -> str:
    rng = random.Random(args.seed)
    items = zipf_stream(args.items, rng, alpha=args.alpha)
    stream = round_robin(items, args.sites)
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=args.sites, sample_size=args.sample),
        seed=args.seed,
        engine=_engine_of(args),
    )
    counters = proto.run(stream)
    w = stream.total_weight()
    bound = bounds.swor_message_bound(args.sites, args.sample, w)
    rows = [
        {"ident": item.ident, "weight": item.weight, "key": key}
        for item, key in proto.sample_with_keys()
    ]
    table = format_table(rows, title="weighted SWOR sample (top keys first)")
    summary = (
        f"W={w:.4g}  messages={counters.total} "
        f"(bound {bound:.0f}, ratio {counters.total / bound:.2f})"
    )
    return table + summary


def _cmd_swr(args: argparse.Namespace) -> str:
    rng = random.Random(args.seed)
    items = zipf_stream(args.items, rng, alpha=args.alpha)
    stream = round_robin(items, args.sites)
    proto = DistributedWeightedSWR(
        args.sites, args.sample, seed=args.seed, engine=_engine_of(args)
    )
    counters = proto.run(stream)
    w = stream.total_weight()
    bound = bounds.swr_message_bound(args.sites, args.sample, w)
    rows = [
        {"slot": i, "ident": item.ident, "weight": item.weight}
        for i, item in enumerate(proto.sample())
    ]
    table = format_table(rows, title="weighted SWR sample (one item per slot)")
    summary = (
        f"W={w:.4g}  messages={counters.total} "
        f"(bound {bound:.0f}, ratio {counters.total / bound:.2f})"
    )
    return table + summary


def _cmd_hh(args: argparse.Namespace) -> str:
    rng = random.Random(args.seed)
    items = two_phase_residual_stream(
        args.items,
        rng,
        num_giants=4,
        giant_weight=1e7,
        residual_heavy=5,
        residual_fraction=min(0.15, args.eps * 1.5),
    )
    stream = round_robin(items, args.sites)
    tracker = ResidualHeavyHitterTracker(
        args.sites, args.eps, delta=args.delta, seed=args.seed,
        engine=_engine_of(args),
    )
    counters = tracker.run(stream)
    rows = [
        {"ident": item.ident, "weight": item.weight}
        for item in tracker.heavy_hitters()
    ]
    table = format_table(
        rows, title=f"residual heavy hitters (eps={args.eps}, s={tracker.sample_size})"
    )
    return table + f"messages={counters.total}"


def _cmd_l1(args: argparse.Namespace) -> str:
    items = unit_stream(args.items)
    truth = float(args.items)
    engine = _engine_of(args)
    rows = []
    trackers = [
        (
            "this work",
            L1Tracker(
                args.sites, args.eps, args.delta, seed=args.seed, engine=engine
            ),
        ),
        (
            "deterministic [14]",
            DeterministicCounterTracker(args.sites, args.eps, engine=engine),
        ),
        (
            "hyz-style [23]",
            HyzStyleTracker(args.sites, args.eps, seed=args.seed, engine=engine),
        ),
    ]
    for name, tracker in trackers:
        counters = tracker.run(round_robin(items, args.sites))
        estimate = tracker.estimate()
        rows.append(
            {
                "tracker": name,
                "estimate": estimate,
                "rel_err": abs(estimate - truth) / truth,
                "messages": counters.total,
            }
        )
    return format_table(
        rows, title=f"L1 tracking (W={truth:.0f}, eps={args.eps})"
    )


def _cmd_query(args: argparse.Namespace) -> str:
    from .query import (
        CountQuery,
        GroupByQuery,
        HeavyHittersQuery,
        MultiQueryDriver,
        QuantileQuery,
        QueryCatalog,
        SlidingWindowQuery,
        SubsetSumQuery,
        TotalWeightQuery,
    )

    _check_engine_flags(args)
    if (
        args.workers is not None
        or args.worker_timeout is not None
        or args.max_worker_restarts is not None
        or args.fault_plan is not None
    ):
        raise SystemExit(
            "repro query runs its fused multi-query pass in-process; "
            "--workers/--worker-timeout/--max-worker-restarts/"
            "--fault-plan do not apply (engine 'sharded' selects "
            "the columnar data plane)"
        )
    rng = random.Random(args.seed)
    items = zipf_stream(args.items, rng, alpha=args.alpha)
    stream = round_robin(items, args.sites)
    s = args.sample
    window = max(1, args.items // 4)  # shared by the query and its truth row
    catalog = QueryCatalog(
        [
            SubsetSumQuery("total_weight", sample_size=s),
            SubsetSumQuery(
                "even_idents",
                predicate=lambda item: item.ident % 2 == 0,
                sample_size=s,
            ),
            QuantileQuery("weight_quantiles", qs=(0.5, 0.9), sample_size=s),
            GroupByQuery(
                "by_ident_mod4", key=lambda item: item.ident % 4, sample_size=s
            ),
            CountQuery("item_count", sample_size=s),
            HeavyHittersQuery("heavy_hitters", eps=0.1),
            TotalWeightQuery("l1_total", eps=0.25, delta=0.1),
            SlidingWindowQuery("recent_weight", window=window, sample_size=s),
        ]
    )
    registry = None
    if getattr(args, "metrics_out", None):
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
        args._registry = registry
    driver = MultiQueryDriver(
        catalog,
        num_sites=args.sites,
        seed=args.seed,
        engine=args.engine,
        batch_size=args.batch_size,
        registry=registry,
    )
    # The driver builds its engines internally (kernels=None), so a
    # --kernels request scopes the process default around the run.
    from .kernels import use_kernels

    with use_kernels(args.kernels):
        result = driver.run(stream)

    w = stream.total_weight()
    truths = {
        "total_weight": w,
        "even_idents": sum(i.weight for i in items if i.ident % 2 == 0),
        "item_count": float(len(items)),
        "l1_total": w,
        "recent_weight": sum(i.weight for i in items[-window:]),
    }
    rows = []
    for query in catalog:
        answer = result.answers[query.name]
        row = {"query": query.name, "spec": query.describe()}
        if hasattr(answer, "value"):
            row["estimate"] = answer.value
            row["ci95"] = f"[{answer.ci_low:.4g}, {answer.ci_high:.4g}]"
            truth = truths.get(query.name)
            if truth is not None:
                row["truth"] = truth
                row["rel_err"] = answer.rel_error(truth)
        elif isinstance(answer, dict):
            parts = ", ".join(
                f"{key}={est.value:.4g}" for key, est in sorted(answer.items())
            )
            row["estimate"] = parts
        else:  # heavy-hitter item list
            row["estimate"] = f"{len(answer)} items, top={answer[0].ident}"
        rows.append(row)
    table = format_table(
        rows,
        title=f"concurrent queries over one pass (k={args.sites}, "
        f"n={args.items}, engine={args.engine})",
    )
    messages = sum(c.total for c in result.counters.values())
    return table + (
        f"queries={len(catalog)}  items={result.items_processed}  "
        f"total_messages={messages}"
    )


def _cmd_stats(args: argparse.Namespace) -> str:
    """Run a seeded SWOR workload under a live registry and return the
    exposition: the quickest way to *see* the telemetry plane (and a
    handy smoke test that every layer exports)."""
    from .obs import render_json, render_prometheus

    engine = _engine_of(args)  # attaches args._registry (stats command)
    registry = args._registry
    rng = random.Random(args.seed)
    items = zipf_stream(args.items, rng, alpha=args.alpha)
    stream = round_robin(items, args.sites)
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=args.sites, sample_size=args.sample),
        seed=args.seed,
        engine=engine,
    )
    proto.run(stream)
    print(engine.format_stats(), file=sys.stderr)
    if args.format == "json":
        return render_json(registry)
    return render_prometheus(registry)


def _cmd_bounds(args: argparse.Namespace) -> str:
    _engine_of(args)  # no stream to run, but validate the flags uniformly
    k, s, eps, delta, w = (
        args.sites,
        args.sample,
        args.eps,
        args.delta,
        args.weight,
    )
    rows = [
        {"bound": "swor upper (Thm 3)", "value": bounds.swor_message_bound(k, s, w)},
        {"bound": "swor lower (Cor 2)", "value": bounds.swor_lower_bound(k, s, w)},
        {"bound": "swr upper (Cor 1)", "value": bounds.swr_message_bound(k, s, w)},
        {"bound": "naive per-site top-s", "value": bounds.naive_per_site_top_s_bound(k, s, w)},
        {"bound": "hh upper (Thm 4)", "value": bounds.hh_upper_bound(k, eps, delta, w)},
        {"bound": "hh lower (Thm 5)", "value": bounds.hh_lower_bound(k, eps, w)},
        {"bound": "l1 upper this work (Thm 6)", "value": bounds.l1_upper_this_work(k, eps, delta, w)},
        {"bound": "l1 upper [14]+folklore", "value": bounds.l1_upper_cmyz_folklore(k, eps, w)},
        {"bound": "l1 upper [23]", "value": bounds.l1_upper_hyz(k, eps, delta, w)},
        {"bound": "l1 lower [23]", "value": bounds.l1_lower_hyz(k, eps, w)},
        {"bound": "l1 lower this work (Thm 7)", "value": bounds.l1_lower_this_work(k, w)},
    ]
    return format_table(
        rows,
        title=f"closed-form bounds at k={k}, s={s}, eps={eps}, delta={delta}, W={w:.3g}",
    )


_COMMANDS = {
    "swor": _cmd_swor,
    "swr": _cmd_swr,
    "hh": _cmd_hh,
    "l1": _cmd_l1,
    "query": _cmd_query,
    "stats": _cmd_stats,
    "bounds": _cmd_bounds,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_seed(args)
    command = _COMMANDS[args.command]
    profile_out = getattr(args, "profile_out", None)
    if getattr(args, "profile", False) or profile_out:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        output = command(args)
        profiler.disable()
        sort_key = getattr(args, "profile_sort", "cumulative")
        if profile_out:
            with open(profile_out, "w", encoding="utf-8") as fh:
                pstats.Stats(profiler, stream=fh).sort_stats(
                    sort_key
                ).print_stats()
            print(f"profile written to {profile_out}", file=sys.stderr)
        if getattr(args, "profile", False):
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats(sort_key).print_stats(20)
            engine = getattr(args, "_engine", None)
            if hasattr(engine, "format_stats"):
                print(engine.format_stats(), file=sys.stderr)
    else:
        output = command(args)
    metrics_out = getattr(args, "metrics_out", None)
    registry = getattr(args, "_registry", None)
    if metrics_out and registry is not None:
        from .obs import write_metrics

        written = write_metrics(registry, metrics_out)
        print(f"metrics written to {metrics_out} ({written})", file=sys.stderr)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
