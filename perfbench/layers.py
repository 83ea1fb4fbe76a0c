"""Outside-in layer trace: time the calls into each layer's public callables.

A :class:`Tracer` replaces a named callable -- a module attribute the
engine looks up, or a method on one of the program's instances -- with a
pass-through that counts calls and accumulates wall time, and puts every
original back in :meth:`Tracer.restore`. Spans nest: a span entered while
another is open is a child, and only outermost spans count towards
``Tracer.top_s``, from which a layer's self time is derived.

Only the callables named in :data:`PER_LAYER` are wrapped.
``Network.deliver_upstream`` / ``deliver_downstream`` are never rebound:
``Network.deliver_pack`` would then expand every pack into single
messages, a different program. On the sharded engine nothing of the
network is wrapped either -- its sites are pickled into the workers, and
a wrapped ``deliver_pack`` makes the engine fall back to the in-process
path -- so its layers are read from ``last_run_stats`` instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import repro.runtime.batched as _batched_module
import repro.runtime.columnar as _columnar_module
from repro.kernels import KERNEL_NAMES, kernel_stats

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("stream.generate_s", "s", "lower"),
    ("runtime.windows", "count", "lower"),
    ("runtime.window_order_s", "s", "lower"),
    ("runtime.window_order_calls", "count", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("site.prepare_window_s", "s", "lower"),
    ("site.on_columns_s", "s", "lower"),
    ("site.on_columns_calls", "count", "lower"),
    ("site.items_in", "items", "higher"),
    ("site.msgs_out", "messages", "lower"),
    ("site.pass_ratio", "ratio", "lower"),
    ("site.on_control_s", "s", "lower"),
    ("site.on_control_calls", "count", "lower"),
    ("net.deliver_pack_s", "s", "lower"),
    ("net.deliver_pack_calls", "count", "lower"),
    ("net.record_pack_s", "s", "lower"),
    ("net.upstream", "messages", "lower"),
    ("net.downstream", "messages", "lower"),
    ("net.words", "words", "lower"),
    ("coordinator.on_message_pack_s", "s", "lower"),
    ("coordinator.regular_received", "messages", "lower"),
    ("coordinator.regular_accepted", "messages", "higher"),
    ("coordinator.accept_ratio", "ratio", "higher"),
    ("coordinator.early_received", "messages", "lower"),
    ("coordinator.tie_fallbacks", "count", "lower"),
]
for _kernel in KERNEL_NAMES:
    PER_LAYER += [
        (f"kernels.{_kernel}.calls", "count", "lower"),
        (f"kernels.{_kernel}.s", "s", "lower"),
    ]
PER_LAYER += [
    ("sharded.worker_compute_s", "s", "lower"),
    ("sharded.transport_wait_s", "s", "lower"),
    ("sharded.parent_fold_s", "s", "lower"),
    ("sharded.windows", "count", "lower"),
    ("sharded.rollbacks", "count", "lower"),
    ("sharded.rollback_ratio", "ratio", "lower"),
    ("sharded.pool_spawn_s", "s", "lower"),
    ("query.fold_s.fused_swor", "s", "lower"),
    ("query.fold_s.heavy", "s", "lower"),
    ("query.answer_s", "s", "lower"),
    ("query.answer_calls", "count", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
]

#: Label of the driver's fused SWOR group in ``repro_query_fold_seconds_total``
#: is the member names joined with ``+``; it is reported as ``fused_swor``.
FUSED_LABEL = "fused_swor"


class Tracer:
    """Pass-through wrappers with call counts, wall time and nesting."""

    def __init__(self) -> None:
        self.spans: Dict[str, List] = {}
        self.counts: Dict[str, int] = {}
        self.top_s = 0.0
        self._depth = 0
        self._undo: List[Tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Time every call of ``owner.attr`` under ``span``.

        ``count(counts, args, result)`` may add to :attr:`counts`.
        """
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        original = getattr(owner, attr)
        cell = self.spans.setdefault(span, [0, 0.0])
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._depth += 1
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._depth -= 1
                cell[0] += 1
                cell[1] += dt
                if self._depth == 0:
                    self.top_s += dt
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._undo:
            owner, attr, had, previous = self._undo.pop()
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def calls(self, span: str) -> int:
        return self.spans.get(span, [0, 0.0])[0]

    def seconds(self, span: str) -> float:
        return self.spans.get(span, [0, 0.0])[1]


def _count_site_columns(counts, args, result) -> None:
    counts["items_in"] = counts.get("items_in", 0) + len(args[1])
    counts["msgs_out"] = counts.get("msgs_out", 0) + len(result)


def attach(tracer: Tracer, prepared, sharded: bool) -> None:
    """Wrap the layer callables a prepared run will call."""
    if sharded:
        return
    # The columnar engine calls ``window_order`` through its own module;
    # the driver reaches it through ``site_runs`` in the batched module.
    tracer.wrap(_columnar_module, "window_order", "window_order")
    tracer.wrap(_batched_module, "window_order", "window_order")
    for network in prepared.networks:
        sites = network.sites
        tracer.wrap(sites[0], "prepare_window", "prepare_window")
        for site in sites:
            tracer.wrap(site, "on_columns", "on_columns", _count_site_columns)
            tracer.wrap(site, "on_control", "on_control")
        tracer.wrap(network, "deliver_pack", "deliver_pack")
        tracer.wrap(network.counters, "record_upstream_pack", "record_pack")
        tracer.wrap(network.coordinator, "on_message_pack", "on_message_pack")
    if prepared.driver is not None:
        for compiled in prepared.driver.compiled:
            tracer.wrap(compiled, "answer", "answer")


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(
    tracer: Tracer,
    prepared,
    workload,
    wall_s: float,
    windows: int,
    generate_s: float,
    registry=None,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer values of one traced run, and the reasons for absent ones.

    Every name in :data:`PER_LAYER` except ``trace.overhead_share`` gets
    a value; an absent metric reads 0 and has its reason in the second
    dict.
    """
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}

    def put(name: str, value, reason: str = "") -> None:
        if value is None:
            values[name] = 0.0
            absent[name] = reason
        else:
            values[name] = value

    sharded = workload.workers is not None
    networks = prepared.networks
    in_workers = "runs in the sharded worker processes, outside the trace"

    def spanned(prefix: str, span: str, reason: str, calls: bool = True) -> None:
        n = tracer.calls(span)
        why = reason if sharded else f"{span} was not called on this workload"
        put(f"{prefix}_s", tracer.seconds(span) if n else None, why)
        if calls:
            put(f"{prefix}_calls", n)

    put("stream.generate_s", generate_s)
    put("runtime.windows", windows)
    spanned("runtime.window_order", "window_order", in_workers)
    if sharded:
        timing = prepared.engine.last_run_stats.get("timing", {})
        children = timing.get("transport_wait_seconds", 0.0) + timing.get(
            "parent_fold_seconds", 0.0
        )
    elif prepared.driver is not None:
        fold = _query_fold(registry)
        children = (
            tracer.seconds("window_order")
            + tracer.seconds("answer")
            + sum(fold.values())
        )
    else:
        children = tracer.top_s
    put("runtime.self_s", wall_s - children)

    spanned("site.prepare_window", "prepare_window", in_workers, calls=False)
    spanned("site.on_columns", "on_columns", in_workers)
    items_in = tracer.counts.get("items_in")
    msgs_out = tracer.counts.get("msgs_out")
    no_columns = in_workers if sharded else "on_columns was not called on this workload"
    put("site.items_in", items_in, no_columns)
    put("site.msgs_out", msgs_out, no_columns)
    put("site.pass_ratio", _ratio(msgs_out or 0, items_in or 0), no_columns)
    spanned("site.on_control", "on_control", in_workers)

    no_pack = (
        "the sharded parent folds packs itself; wrapping Network.deliver_pack "
        "would make the engine fall back to the in-process path"
    )
    spanned("net.deliver_pack", "deliver_pack", no_pack)
    pickled = (
        "the sharded engine pickles the network for recovery checkpoints, "
        "so its objects are not wrapped; see sharded.parent_fold_s"
    )
    spanned("net.record_pack", "record_pack", pickled, calls=False)
    put("net.upstream", sum(n.counters.upstream for n in networks))
    put("net.downstream", sum(n.counters.downstream for n in networks))
    put("net.words", sum(n.counters.words for n in networks))

    spanned("coordinator.on_message_pack", "on_message_pack", pickled, calls=False)
    coordinators = [n.coordinator for n in networks]
    received = sum(c.regular_received for c in coordinators)
    accepted = sum(c.regular_accepted for c in coordinators)
    put("coordinator.regular_received", received)
    put("coordinator.regular_accepted", accepted)
    put(
        "coordinator.accept_ratio",
        _ratio(accepted, received),
        "no regular message reached the coordinator",
    )
    put("coordinator.early_received", sum(c.early_received for c in coordinators))
    put(
        "coordinator.tie_fallbacks",
        sum(c.sample_set.tie_fallbacks for c in coordinators),
    )

    per_kernel: Dict[str, List] = {}
    for (kernel, _backend), (calls, seconds) in kernel_stats().items():
        cell = per_kernel.setdefault(kernel, [0, 0.0])
        cell[0] += calls
        cell[1] += seconds
    for kernel in KERNEL_NAMES:
        calls, seconds = per_kernel.get(kernel, (0, 0.0))
        put(f"kernels.{kernel}.calls", calls)
        put(
            f"kernels.{kernel}.s",
            seconds if calls else None,
            f"{kernel} was not called in the benchmark process on this workload",
        )

    _sharded_metrics(put, prepared, sharded)
    _query_metrics(put, tracer, registry, prepared.driver is not None)
    return values, absent


def _sharded_metrics(put, prepared, sharded: bool) -> None:
    names = (
        "sharded.worker_compute_s",
        "sharded.transport_wait_s",
        "sharded.parent_fold_s",
        "sharded.windows",
        "sharded.rollbacks",
        "sharded.rollback_ratio",
        "sharded.pool_spawn_s",
    )
    if not sharded:
        for name in names:
            put(name, None, "workload does not run the sharded engine")
        return
    stats = prepared.engine.last_run_stats
    timing = stats.get("timing", {})
    mode = "pipelined" if stats.get("pipeline") == "on" else "lockstep"
    for name, key in (
        ("sharded.worker_compute_s", "worker_compute_seconds"),
        ("sharded.transport_wait_s", "transport_wait_seconds"),
        ("sharded.parent_fold_s", "parent_fold_seconds"),
    ):
        put(name, timing.get(key), f"{mode} sharding records no {key}")
    windows = stats.get("windows")
    rollbacks = stats.get("rollbacks")
    put("sharded.windows", windows, "run recorded no window count")
    put("sharded.rollbacks", rollbacks, "run recorded no rollback count")
    put(
        "sharded.rollback_ratio",
        _ratio(rollbacks or 0, windows or 0),
        "run recorded no window count",
    )
    put("sharded.pool_spawn_s", prepared.pool_spawn_s)


def _query_fold(registry) -> Dict[str, float]:
    """Seconds per driver consumer from ``repro_query_fold_seconds_total``."""
    fold: Dict[str, float] = {}
    if registry is None:
        return fold
    entry = registry.snapshot()["metrics"].get("repro_query_fold_seconds_total")
    for sample in entry["samples"] if entry else ():
        label = sample["labels"]["query"]
        name = FUSED_LABEL if "+" in label else label
        fold[name] = fold.get(name, 0.0) + sample["value"]
    return fold


def _query_metrics(put, tracer: Tracer, registry, driver: bool) -> None:
    no_driver = "workload does not run MultiQueryDriver"
    fold = _query_fold(registry)
    for name in ("query.fold_s.fused_swor", "query.fold_s.heavy"):
        put(name, fold.get(name.rsplit(".", 1)[1]), no_driver)
    calls = tracer.calls("answer")
    put("query.answer_s", tracer.seconds("answer") if calls else None, no_driver)
    put("query.answer_calls", calls if driver else None, no_driver)
