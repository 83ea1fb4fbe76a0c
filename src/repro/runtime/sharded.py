"""The sharded engine: shard-parallel site passes in worker processes.

The paper's protocols are distributed by construction — sites compute
independently and only exchange O(1)-word messages with the coordinator
— yet every other engine runs all ``k`` sites in one interpreter.
:class:`ShardedEngine` partitions the sites into contiguous shards, one
worker *process* per shard, and keeps only the coordinator (plus the
message accounting) in the parent:

* each worker owns its shard's protocol sites and a compacted
  :class:`~repro.stream.columns.ShardSliceView` of the stream columns
  (32 B per shard row).  The parent ships the stream in bounded chunks
  through one fixed-size :mod:`multiprocessing.shared_memory` staging
  segment, and each worker compacts its rows out of every chunk, so the
  parent never holds a second copy of the stream.  Workers cache their
  shard, and a repeat run over the same columns ships nothing;
* per batch window the worker runs the same per-site grouping and
  ``on_columns`` site pass the columnar engine would, and ships each
  (site, batch) :class:`~repro.net.messages.MessagePack` back as flat
  columns (:meth:`~repro.net.messages.MessagePack.to_arrays`) through a
  per-worker shared-memory ring the parent reads zero-copy — falling
  back to inline pickling over the pipe for packs too big for the ring.
  The pipe otherwise carries only commands, acks and descriptors;
* the parent folds the packs through the **same** coordinator bulk path
  (:meth:`~repro.runtime.interfaces.CoordinatorAlgorithm.on_message_pack`)
  in the **same** deterministic ascending-(batch, site) order the
  columnar engine uses, with identical counter accounting.

Workers are spawned once per engine instance and *reused* across
``run()`` calls (each run re-ships the site states and stream shard),
so a long-lived engine amortizes process start-up away — the regime the
"saturate all cores at 100M+ items" target actually cares about.  Call
:meth:`ShardedEngine.close` to tear the pool down eagerly; a dropped
engine cleans up via ``weakref.finalize``.

Why this is bit-identical to the columnar engine
------------------------------------------------
Per-site RNG streams are derived independently
(:class:`~repro.common.rng.RandomSource` substreams plus per-site
``BatchRandom``), each site's per-window ident/weight slices are
bitwise equal to the columnar engine's (stable argsort over a
position-compacted shard — see ``ShardSliceView``), and the
coordinator runs *in the parent*, consuming its own RNG in fold order.
The one genuinely new piece is control flow: the columnar engine
delivers a mid-window broadcast to the *later* sites of the same
window before they compute, while shard workers compute a whole window
optimistically against the control state of the previous window.  The
engine therefore runs a **lockstep window protocol** with rollback:

1. workers compute window ``t``'s packs against the control state as of
   window ``t - 1`` and send them;
2. the parent folds them site-ascending; when a fold emits control
   traffic that could affect a *later* site of the same window (a
   threshold/epoch broadcast, a saturated level), it tells the affected
   workers to **roll back**: restore the pre-window site snapshot,
   re-apply the window's control messages to exactly the sites that
   come after each message's trigger site, recompute, and resend;
3. once the window folds clean, the parent **commits**: workers apply
   whatever control messages their sites have not seen yet and proceed
   to window ``t + 1``.

Re-computation is deterministic (same restored RNG state, same input
slices, same control prefix), so replayed sites reproduce their packs
bit for bit and the divergent suffix is recomputed exactly as the
columnar engine would have computed it after the broadcast.  Broadcasts
are logarithmically rare, so rollbacks cost a bounded number of extra
window computations per run.  Samples **and**
:class:`~repro.net.counters.MessageCounters` match the columnar engine
bit for bit at every batch size and worker count —
``benchmarks/bench_sharded.py`` pins this at the multi-million-item
scale.

``last_run_stats`` records rollback and control counts and a per-window
timing breakdown (worker compute, transport wait, parent fold);
``repro ... --profile --engine sharded`` prints it.

Fault tolerance: supervision, recovery, and the degradation ladder
------------------------------------------------------------------
Every worker receive is supervised (``supervision="on"``, the
default): deadline-bounded waits classify silence as a **hang**, a
dead pipe or process exit as a **crash**, and a descriptor rejected by
the wire validation in :mod:`repro.net.messages` as **poison** — while
a worker that ships its own traceback stays fail-stop
(:class:`ShardedWorkerError`, ``fault_class="error"``), since
replaying a deterministic user-code exception would just raise it
again.  A classified fault triggers **deterministic window-boundary
recovery**: the dead shard's worker is reaped and respawned on the
same pool slot (bounded retries, capped backoff), its run-start site
states are re-shipped and fast-forwarded through the committed control
history (bit-identical replay — same RNG positions), survivors rewind
the in-flight window to their pre-window snapshots, the parent's
coordinator/counters rewind to the window-start snapshot, and the
window retries.  A recovered run's samples **and** message counters
are bit-identical to a fault-free one.  When recovery is exhausted
(``max_worker_restarts``) or structurally unavailable (a mid-commit
fault, a coordinator that cannot rewind), the run takes the
**degradation ladder** down to the in-process columnar engine,
restoring the run-start network checkpoint first; ``last_run_stats``
records the fault log, restart count, recovery seconds, and the rung
taken (``mode="degraded"``).  The chaos seams threaded through the
worker loop (:mod:`repro.faults`) inject crashes, hangs, drops,
corrupt/truncated packs, and respawn failures deterministically;
``tests/test_chaos.py`` drives them across the whole grid and asserts
bit-identity or explicit degradation — never a hang, leaked process,
or leaked shared-memory segment.

Fallbacks: numpy-free installs, non-int64 ident streams, ``workers=1``
(or one site), instrumented networks (a
:class:`~repro.net.tracing.MessageTrace` wrapping the delivery
methods), sites that declare themselves non-shardable
(:attr:`~repro.runtime.interfaces.SiteAlgorithm.shardable`),
platforms without :mod:`multiprocessing.shared_memory`, and any
worker-setup failure (spawn unavailable, unpicklable sites, a segment
that cannot be created) all run the in-process :class:`ColumnarEngine`
path instead, so the engine is always safe to select;
``last_run_stats`` records which mode ran.  Sites whose bulk hooks
return *lazy* message iterators are materialized at the worker before
shipping (the batched engine streams them instead); all shipped
protocols return materialized lists.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

try:  # the shard-parallel path is numpy-only; gated, not required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None  # type: ignore[assignment]

try:  # shared memory may be missing on exotic builds; runs then fall back
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform-dependent
    _shared_memory = None  # type: ignore[assignment]

from ..common.errors import ConfigurationError, ProtocolViolationError
from ..faults import (
    FaultPlan,
    block_forever,
    chaos_exit,
    corrupt_descriptors,
    fault_action,
    parse_fault_plan,
)
from ..kernels import active as _active_kernels
from ..kernels import set_default_kernels, use_kernels
from ..net.messages import MessagePack, PackWireError
from ..obs import (
    WORKER_METRIC_NAMES,
    merge_worker_deltas,
    observe_degradation,
    observe_fault,
    observe_heartbeat_age,
    observe_recovery,
    observe_sharded_stats,
)
from .batched import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INITIAL_BATCH_SIZE,
    batch_windows,
)
from .columnar import ColumnarEngine
from .interfaces import BROADCAST

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.counters import MessageCounters
    from .network import Network

__all__ = ["ShardedEngine", "ShardedWorkerError", "WorkerSupervisor"]

#: Floor for the per-worker result ring (one window's packs always fit
#: unless the batch is enormous; oversized windows fall back to inline
#: pickling per pack, never to failure).
_MIN_RING_BYTES = 1 << 20

#: Size of the staging segment a cold stream shipment moves through,
#: one chunk of rows at a time; the parent's shipping footprint.
_STAGING_BYTES = 4 << 20

#: Stream column dtypes (assignment, weights, idents) as staged: 24 B/row.
_STREAM_DTYPES = ("<i8", "<f8", "<i8")
_ROW_BYTES = 24

#: Seconds to wait for a spawned worker's ready message before treating
#: setup as failed (and falling back in-process).
_READY_TIMEOUT = 120.0

#: Default per-message supervision deadline (seconds of worker silence
#: before the supervisor classifies a hang).  Generous: a deadline only
#: has to beat "forever", not a window compute.
_DEFAULT_WORKER_TIMEOUT = 60.0

#: Respawn attempts per recovery, with capped exponential backoff.
_RESPAWN_RETRIES = 3
_RESPAWN_BACKOFF = 0.05
_RESPAWN_BACKOFF_CAP = 1.0

#: Seconds to wait for a politely-asked worker to exit before force.
_JOIN_TIMEOUT = 5.0


class ShardedWorkerError(RuntimeError):
    """A shard worker died, hung, raised, or sent a malformed pack.

    The parent raises this only after recovery is exhausted or disabled
    and the worker pool is torn down (processes joined or killed,
    shared-memory segments unlinked), so a failing site never leaks
    orphans.  Structured context rides along for programmatic handling:

    ``worker``
        The worker's pool index, or None when no single worker is at
        fault (setup failures).
    ``shard``
        The worker's ``(site_lo, site_hi)`` site range.
    ``window``
        The batch-window index being folded when the fault surfaced
        (None outside the window loop).
    ``fault_class``
        The supervisor's classification: ``"crash"`` (process exit /
        dead pipe), ``"hang"`` (deadline missed), ``"poison"``
        (malformed pack rejected by wire validation), or ``"error"``
        (the worker shipped its own traceback).
    """

    def __init__(
        self,
        message: str,
        worker_traceback: Optional[str] = None,
        *,
        worker: Optional[int] = None,
        shard: Optional[Tuple[int, int]] = None,
        window: Optional[int] = None,
        fault_class: Optional[str] = None,
    ):
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.worker = worker
        self.shard = shard
        self.window = window
        self.fault_class = fault_class

    @classmethod
    def from_fault(
        cls,
        handle,
        fault_class: str,
        detail: str,
        window: Optional[int] = None,
        worker_traceback: Optional[str] = None,
    ) -> "ShardedWorkerError":
        at = "" if window is None else f" at window {window}"
        return cls(
            f"shard worker {handle.index} (sites [{handle.site_lo}, "
            f"{handle.site_hi})){at} [{fault_class}]: {detail}",
            worker_traceback,
            worker=handle.index,
            shard=(handle.site_lo, handle.site_hi),
            window=window,
            fault_class=fault_class,
        )


class _WorkerFault(Exception):
    """Internal: one classified worker fault (crash/hang/poison) with
    enough context to recover in place or degrade.  Converted to
    :class:`ShardedWorkerError` via :meth:`to_error` when it must
    surface to the caller."""

    def __init__(self, handle, fault_class, detail, window=None) -> None:
        super().__init__(detail)
        self.handle = handle
        self.fault_class = fault_class
        self.detail = detail
        self.window = window

    def to_error(self) -> ShardedWorkerError:
        return ShardedWorkerError.from_fault(
            self.handle, self.fault_class, self.detail, self.window
        )


class _LadderFault(Exception):
    """Internal: a fault that window-boundary recovery cannot (or may
    no longer) handle — the run must take the degradation ladder."""

    def __init__(self, fault: _WorkerFault) -> None:
        super().__init__(fault.detail)
        self.fault = fault


def _attach_shm(name: str):
    """Attach an existing shared-memory segment.

    Ownership stays with the parent (which unlinks at shutdown); the
    resource tracker is shared across the spawn tree and de-duplicates
    the attach-side registration, so no unregister gymnastics are
    needed here.
    """
    return _shared_memory.SharedMemory(name=name)


def _prefix_len(controls, site_id: int) -> int:
    """Number of window controls a site must see *before* computing:
    exactly those triggered by an earlier site's fold.  Triggers are
    non-decreasing in fold order, so this is a prefix."""
    n = 0
    for trigger, _, _ in controls:
        if trigger >= site_id:
            break
        n += 1
    return n


def _adopt_site_state(dst, src) -> None:
    """Transplant a worker site's final state onto the parent's mirror.

    After a sharded run the parent's site objects have only mirrored
    control traffic; the workers hold the real per-site state (RNG
    positions, ``items_seen``, resource counters).  Copying the worker
    state back keeps facade-level introspection (``resource_report``)
    and *subsequent* ``run()`` calls on the same network bit-compatible
    with a columnar run.  The mirror's original shared ``config``
    object is kept so identity relationships survive.
    """
    if not hasattr(dst, "__dict__") or not hasattr(src, "__dict__"):
        return  # slots-only sites keep their (control-mirrored) state
    config = dst.__dict__.get("config")
    dst.__dict__.clear()
    dst.__dict__.update(src.__dict__)
    if config is not None and "config" in dst.__dict__:
        dst.__dict__["config"] = config


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _stream_chunks(conn, n, shm, cap):
    """Yield the parent's stream chunks ``(lo, assignment, weights,
    idents)`` up to row ``n``, acking each once the consumer is done
    with it: the parent overwrites the staging segment ``shm`` only
    after every worker has acked."""
    done = 0
    while done < n:
        message = conn.recv()
        if message[0] != "chk":
            raise ProtocolViolationError(
                f"shard worker got {message[0]!r} mid stream shipment"
            )
        lo, rows = message[1], message[2]
        yield (lo, *(
            _np.frombuffer(shm.buf, dtype=dtype, count=rows, offset=k * 8 * cap)
            for k, dtype in enumerate(_STREAM_DTYPES)
        ))
        conn.send(("ack",))
        done = lo + rows


class _WorkerShard:
    """Worker-side state for one run: sites, stream view, ring cursor."""

    def __init__(self, payload, ring, ring_bytes, stream_cache, conn) -> None:
        set_default_kernels(payload.get("kernels", "auto"), strict=False)
        self.site_lo: int = payload["site_lo"]
        self.site_hi: int = payload["site_hi"]
        self.sites: List = payload["sites"]
        stream = payload["stream"]
        if stream[0] == "cached":
            if stream_cache.get("token") != stream[1]:
                raise ProtocolViolationError(
                    "parent referenced a stream this worker has not cached"
                )
        else:  # "chunks": drop the old shard before receiving the new one
            from ..stream.columns import ShardSliceView

            stream_cache.clear()
            _, token, rows, (name, cap) = stream
            shm = _attach_shm(name)
            try:
                stream_cache["view"] = ShardSliceView.from_chunks(
                    _stream_chunks(conn, payload["n"], shm, cap),
                    rows,
                    self.site_lo,
                    self.site_hi,
                )
            finally:
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - failed chunk
                    pass
            stream_cache["token"] = token
        self.view = stream_cache["view"]
        self.ring_view = memoryview(ring.buf)
        self.ring_off = 0
        self.ring_limit = ring_bytes
        self.windows = list(
            batch_windows(
                payload["n"],
                payload["batch_size"],
                payload["initial_batch_size"],
                payload["marks"],
            )
        )
        #: Telemetry deltas accumulated between sends (``None`` when the
        #: parent's registry is disabled — every message then keeps the
        #: exact wire shape of an uninstrumented build).
        self.metrics = (
            dict.fromkeys(WORKER_METRIC_NAMES, 0.0)
            if payload.get("metrics")
            else None
        )
        #: Supervision / recovery fields (absent pre-supervisor payloads
        #: keep working: every key defaults to the unsupervised shape).
        self.worker: int = payload.get("worker", 0)
        self.supervised: bool = bool(payload.get("supervised"))
        #: Chaos seams: planned ``(kind, window)`` faults for this
        #: worker (test-only; empty/None in production).
        self.faults = payload.get("faults") or ()
        #: Deterministic recovery: fast-forward the first ``resume``
        #: windows from ``history`` (their committed control lists)
        #: without shipping anything, then rejoin the live protocol.
        self.resume: int = payload.get("resume", 0)
        self.history: List[list] = payload.get("history") or []
        #: Seconds of window compute since the last result send (the
        #: recovery replay is not counted).
        self.compute_seconds = 0.0

    def drain_metrics(self):
        """Return-and-reset the accumulated telemetry as the flat
        :data:`~repro.obs.WORKER_METRIC_NAMES`-ordered value vector
        (``None`` when metrics are disabled) — the column the worker
        appends to its result messages."""
        metrics = self.metrics
        if metrics is None:
            return None
        values = tuple(metrics.values())
        for key in metrics:
            metrics[key] = 0.0
        return values

    def compute_window(
        self,
        lo: int,
        hi: int,
        min_site: Optional[int] = None,
        encode: bool = True,
    ):
        """Run the shard's site passes for global window ``[lo, hi)``.

        Mirrors the columnar engine's inner loop exactly: ascending
        site ids, per-site slices in global arrival order, shared
        once-per-window ``prepare_window`` context when every shard
        site shares class and config (pack contents are invariant to
        the sharing — sites verify the context's mask — so shard-local
        sharing is parity-safe).

        ``min_site`` restricts the pass to sites with a *larger* id —
        the rollback suffix.  Pack contents are also invariant to the
        shared-prep shortcut, so the suffix pass simply skips it.
        ``encode=False`` runs the pass purely for its state effects
        (RNG advances, per-site accounting) without serializing
        anything — the recovery replay of already-committed windows.
        """
        i0, i1 = self.view.window_bounds(lo, hi)
        if i0 == i1:
            return []
        t_start = time.perf_counter()
        metrics = self.metrics
        if metrics is not None and min_site is None:
            metrics["windows" if encode else "replay_windows"] += 1
        site_ids, starts, ends, idents_sorted, weights_sorted = (
            self.view.window_order(i0, i1)
        )
        window_prep = None
        if min_site is None:
            site0 = self.sites[0]
            cls0, cfg0 = type(site0), getattr(site0, "config", None)
            share_prep = (
                hasattr(site0, "prepare_window")
                and cfg0 is not None
                and all(
                    type(s) is cls0 and getattr(s, "config", None) is cfg0
                    for s in self.sites
                )
            )
            if share_prep:
                window_prep = site0.prepare_window(weights_sorted)
        self.ring_off = 0
        out = []
        for site_id, start, end in zip(site_ids, starts, ends):
            if min_site is not None and site_id <= min_site:
                continue
            result = self.sites[site_id - self.site_lo].on_columns(
                idents_sorted[start:end],
                weights_sorted[start:end],
                prep=(
                    None if window_prep is None else (window_prep, start, end)
                ),
            )
            if not encode:
                if not isinstance(result, MessagePack):
                    list(result)  # drive lazy hooks for their state effects
                continue
            descriptor = self._encode(site_id, result)
            if descriptor is not None:
                out.append(descriptor)
        elapsed = time.perf_counter() - t_start
        if encode:
            self.compute_seconds += elapsed
        if metrics is not None:
            metrics["compute_seconds"] += elapsed
        return out

    def _encode(self, site_id: int, result):
        """Serialize one site's window result for the ring/pipe.

        Packs go as flat columns — into the shared-memory ring when
        they fit (the parent rebuilds zero-copy views), inline over the
        pipe otherwise; scalar fallbacks (single-item site batches) go as
        pickled message lists, materialized here because a lazy
        iterator cannot cross the process boundary.
        """
        metrics = self.metrics
        if isinstance(result, MessagePack):
            if len(result) == 0:
                return None
            if metrics is not None:
                metrics["packs"] += 1
                metrics["pack_entries"] += len(result)
            encoded = result.write_into(
                self.ring_view, self.ring_off, self.ring_limit
            )
            if encoded is not None:
                kind, spec, end = encoded
                if metrics is not None:
                    metrics["ring_bytes"] += end - self.ring_off
                self.ring_off = end
                return (site_id, "p", kind, spec)
            kind, columns = result.to_arrays()
            return (site_id, "q", kind, columns)
        messages = list(result)
        if not messages:
            return None
        if metrics is not None:
            metrics["packs"] += 1
            metrics["pack_entries"] += len(messages)
        return (site_id, "m", messages)

    def close(self) -> None:
        """Release this run's ring cursor (the cached view persists so
        the next run over the same stream skips the compaction)."""
        self.ring_view = None
        self.view = None


def _snapshot_sites(sites):
    """Window-boundary snapshot of a shard's sites.

    Prefers the sites' cheap :meth:`snapshot_state` hooks (a few
    microseconds per site); any site without one degrades the whole
    shard to pickling, which is always correct.
    """
    states = []
    for site in sites:
        state = site.snapshot_state()
        if state is None:
            return (
                "pickle",
                pickle.dumps(sites, protocol=pickle.HIGHEST_PROTOCOL),
            )
        states.append(state)
    return ("fast", states)


def _restore_sites(shard: "_WorkerShard", snapshot) -> None:
    kind, data = snapshot
    if kind == "pickle":
        shard.sites = pickle.loads(data)
    else:
        for site, state in zip(shard.sites, data):
            site.restore_state(state)


def _apply_commit(shard: _WorkerShard, applied, controls) -> None:
    """Commit a window: apply the controls each site has not seen yet."""
    for idx, site in enumerate(shard.sites):
        for _, dest, ctrl in controls[applied[idx] :]:
            if dest == BROADCAST or dest == shard.site_lo + idx:
                site.on_control(ctrl)


def _apply_roll(
    shard: _WorkerShard, lo, hi, snapshot, applied, from_site, controls
):
    """Serve one rollback for window ``[lo, hi)``; return replacement
    descriptors for the invalidated suffix (sites after ``from_site``).

    ``snapshot`` and ``applied`` are the window's pre-compute state and
    per-site control cursor, mutated in place across repeated rolls of
    the same window.
    """
    if shard.metrics is not None:
        shard.metrics["rolls_served"] += 1
    if snapshot is None:
        # No arrivals this window: nothing to replay, just advance
        # each site's control prefix incrementally.
        for idx, site in enumerate(shard.sites):
            site_id = shard.site_lo + idx
            n_pre = _prefix_len(controls, site_id)
            for _, dest, ctrl in controls[applied[idx] : n_pre]:
                if dest == BROADCAST or dest == site_id:
                    site.on_control(ctrl)
            applied[idx] = n_pre
        return []
    if snapshot[0] == "fast":
        # Per-site snapshots are independent: rewind and replay ONLY
        # the invalidated suffix (sites after the trigger); prefix
        # sites keep their state and their already-folded packs.
        # Every control's trigger is <= from_site, so the whole list
        # applies to every suffix site.
        states = snapshot[1]
        for idx, site in enumerate(shard.sites):
            site_id = shard.site_lo + idx
            if site_id <= from_site:
                continue
            site.restore_state(states[idx])
            for _, dest, ctrl in controls:
                if dest == BROADCAST or dest == site_id:
                    site.on_control(ctrl)
            applied[idx] = len(controls)
        return shard.compute_window(lo, hi, min_site=from_site)
    # Pickled snapshot: the site list is restored wholesale, so the
    # prefix must be replayed too (deterministically identical) and
    # its packs dropped from the resend.
    _restore_sites(shard, snapshot)
    for idx, site in enumerate(shard.sites):
        site_id = shard.site_lo + idx
        n_pre = _prefix_len(controls, site_id)
        for _, dest, ctrl in controls[:n_pre]:
            if dest == BROADCAST or dest == site_id:
                site.on_control(ctrl)
        applied[idx] = n_pre
    results = shard.compute_window(lo, hi)
    return [d for d in results if d[0] > from_site]


def _send_state(shard: _WorkerShard, conn) -> None:
    pickled = pickle.dumps(shard.sites, protocol=pickle.HIGHEST_PROTOCOL)
    if shard.metrics is None:
        conn.send(("sta", shard.site_lo, pickled))
    else:
        # Leftover telemetry (post-commit work since the last result
        # send) rides with the final state message.
        conn.send(("sta", shard.site_lo, pickled, shard.drain_metrics()))


def _replay_history(shard: _WorkerShard) -> None:
    """Fast-forward a respawned worker through its shard's already
    committed windows, without shipping anything.

    Per window the live protocol leaves each site in the state
    "pre-window state, then the controls triggered by *earlier* sites
    (rolls pre-apply them before the site's final compute), then the
    compute, then the remaining controls (applied at commit)".  The
    replay reproduces exactly that placement from the committed control
    lists, so end-of-window site states — including RNG positions —
    are bit-identical to the run that faulted.
    """
    for t in range(shard.resume):
        lo, hi = shard.windows[t]
        controls = shard.history[t] if t < len(shard.history) else []
        if controls:
            for idx, site in enumerate(shard.sites):
                site_id = shard.site_lo + idx
                for _, dest, ctrl in controls[: _prefix_len(controls, site_id)]:
                    if dest == BROADCAST or dest == site_id:
                        site.on_control(ctrl)
        shard.compute_window(lo, hi, encode=False)
        if controls:
            for idx, site in enumerate(shard.sites):
                site_id = shard.site_lo + idx
                for _, dest, ctrl in controls[_prefix_len(controls, site_id):]:
                    if dest == BROADCAST or dest == site_id:
                        site.on_control(ctrl)


def _send_results(shard: _WorkerShard, conn, t: int, results) -> None:
    """Ship one window's descriptors and the compute seconds behind
    them, through the chaos seams: a planned wire fault mangles the
    descriptors; a planned process fault kills/hangs/drops instead of
    sending.  With no plan (every production run) this is exactly the
    plain send."""
    seconds, shard.compute_seconds = shard.compute_seconds, 0.0
    if shard.faults:
        wire = fault_action(shard.faults, t, ("corrupt", "truncate"))
        if wire is not None:
            results = corrupt_descriptors(list(results), wire)
        action = fault_action(shard.faults, t, ("kill", "hang", "drop"))
        if action == "kill":
            chaos_exit()
        elif action == "hang":
            block_forever()
        elif action == "drop":
            return
    if shard.metrics is None:
        conn.send(("res", results, seconds))
    else:
        conn.send(("res", results, seconds, shard.drain_metrics()))


def _worker_run(shard: _WorkerShard, conn) -> None:
    """The window protocol, worker side, for one run.

    Per window: compute optimistically against last-committed control
    state, send, then serve ``roll`` (restore the pre-window snapshot,
    re-apply each control message to exactly the sites after its
    trigger, recompute, resend the suffix) until the parent ``com``mits
    — at which point every site applies the control messages it has not
    seen yet and the next window starts.  Under supervision two more
    commands exist: a respawned worker starts with a
    :func:`_replay_history` fast-forward, and ``rwd`` rewinds the
    current (uncommitted) window to its pre-window snapshot so the
    parent can retry it after another worker's fault.
    """
    if shard.resume:
        _replay_history(shard)
    for t in range(shard.resume, len(shard.windows)):
        lo, hi = shard.windows[t]
        i0, i1 = shard.view.window_bounds(lo, hi)
        # Pre-window state, captured BEFORE the compute so rollback
        # replays from exactly this point (same RNG positions).
        # Skipped when the shard has no arrivals (nothing mutates) —
        # except under supervision, where a post-fault ``rwd`` must be
        # able to undo controls a roll applied mid-window.
        snapshot = (
            _snapshot_sites(shard.sites)
            if i0 != i1 or shard.supervised
            else None
        )
        if snapshot is not None and shard.metrics is not None:
            shard.metrics["snapshots"] += 1
        results = shard.compute_window(lo, hi)
        applied = [0] * len(shard.sites)
        _send_results(shard, conn, t, results)
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "com":
                _apply_commit(shard, applied, message[1])
                break
            if tag == "roll":
                from_site, controls = message[1], message[2]
                replacements = _apply_roll(
                    shard, lo, hi, snapshot, applied, from_site, controls
                )
                _send_results(shard, conn, t, replacements)
                continue
            if tag == "rwd":
                if message[1] != t:
                    raise ProtocolViolationError(
                        f"rwd for window {message[1]} but worker is at {t}"
                    )
                if snapshot is not None:
                    _restore_sites(shard, snapshot)
                applied = [0] * len(shard.sites)
                results = shard.compute_window(lo, hi)
                conn.send(("rwdok",))
                _send_results(shard, conn, t, results)
                continue
            raise ProtocolViolationError(
                f"shard worker got unexpected command {tag!r}"
            )
    message = conn.recv()
    if message[0] != "fin":
        raise ProtocolViolationError(
            f"shard worker got unexpected command {message[0]!r} at run end"
        )
    _send_state(shard, conn)


def _worker_main(ring_name, ring_bytes, conn) -> None:
    """Process entry point: serve runs until told to go (or cut off).

    The process persists across ``run()`` calls — per-run state arrives
    with each ``run`` command — so a long-lived engine pays the spawn
    cost once.  Failures ship the original traceback to the parent.
    """
    ring = None
    try:
        ring = _attach_shm(ring_name)
        stream_cache: dict = {}
        conn.send(("rdy",))
        while True:
            command = conn.recv()
            if command[0] == "bye":
                break
            if command[0] != "run":
                raise ProtocolViolationError(
                    f"shard worker got unexpected command {command[0]!r}"
                )
            shard = _WorkerShard(
                command[1], ring, ring_bytes, stream_cache, conn
            )
            try:
                _worker_run(shard, conn)
            finally:
                shard.close()
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (shutdown or its own failure): just exit
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already closed
            pass
    finally:
        if ring is not None:
            try:
                ring.close()
            except BufferError:  # pragma: no cover - views die with us
                pass
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed
            pass


# ---------------------------------------------------------------------------
# Parent engine
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side record of one spawned shard worker."""

    __slots__ = ("index", "process", "conn", "site_lo", "site_hi", "ring")

    def __init__(self, index, process, conn, ring) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.site_lo = 0  # set per run
        self.site_hi = 0
        self.ring = ring


def _unlink_segments(shms) -> None:
    """Close and unlink owned shared-memory segments, best effort."""
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            # Live pack views still reference the mapping (a fault can
            # surface mid-fold with decoded descriptors in flight).
            # Drop our handles instead: the mmap is released when the
            # last view dies, and ``__del__`` then has nothing left to
            # close — a second ``close()`` would raise the same
            # BufferError unraisably at garbage collection.
            shm._buf = None
            shm._mmap = None
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _reap_handle(handle) -> None:
    """Impolite teardown of one (dead, hung, or poisoned) worker: close
    the pipe, then terminate -> kill.  Its ring segment is deliberately
    kept — a replacement worker re-attaches the same name."""
    try:
        handle.conn.close()
    except Exception:
        pass
    process = handle.process
    try:
        if process.is_alive():
            process.terminate()
        process.join(timeout=_JOIN_TIMEOUT)
        if process.is_alive():  # pragma: no cover - unkillable
            process.kill()
            process.join(timeout=_JOIN_TIMEOUT)
    except Exception:  # pragma: no cover - reap is best-effort
        pass


def _start_worker(ctx, index, ring, ring_bytes) -> _WorkerHandle:
    """Spawn the worker for pool slot ``index``, attached to ``ring``;
    the caller awaits its ready message."""
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main,
        args=(ring.name, ring_bytes, child_conn),
        daemon=True,
        name=f"repro-shard-{index}",
    )
    process.start()
    child_conn.close()
    return _WorkerHandle(index, process, parent_conn, ring)


def _shutdown_pool(pool) -> None:
    """Tear a worker pool down: polite bye, then force, then unlink.

    Module-level (not a method) so ``weakref.finalize`` can run it
    after the engine is gone.  Idempotent on its own via the ``closed``
    flag (recovery paths call it directly, and a failed spawn may have
    called it before ``close()`` does), and the shared-memory unlink
    runs in a ``finally`` so ``/dev/shm`` segments are released even
    when a worker refuses to die within the join timeouts.
    """
    if pool.get("closed"):
        return
    pool["closed"] = True
    try:
        for handle in pool["handles"]:
            try:
                if handle.process.is_alive():
                    handle.conn.send(("bye",))
            except Exception:
                pass
        for handle in pool["handles"]:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for handle in pool["handles"]:
            process = handle.process
            try:
                process.join(timeout=_JOIN_TIMEOUT)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=_JOIN_TIMEOUT)
                if process.is_alive():  # pragma: no cover - unkillable
                    process.kill()
                    process.join(timeout=_JOIN_TIMEOUT)
            except Exception:  # pragma: no cover - reap is best-effort
                pass
    finally:
        _unlink_segments(pool["rings"])


def _checkpoint_network(network):
    """Run-start checkpoint of everything the parent would need to
    restart the run from scratch on a lower ladder rung: site states
    (pickled wholesale — workers get slices of this on redispatch),
    the coordinator state, and the message counters."""
    coordinator_state = network.coordinator.snapshot_state()
    if coordinator_state is None:
        coordinator_state = (
            "pickle",
            pickle.dumps(
                network.coordinator, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
    else:
        coordinator_state = ("fast", coordinator_state)
    return {
        "sites": pickle.dumps(
            network.sites, protocol=pickle.HIGHEST_PROTOCOL
        ),
        "coordinator": coordinator_state,
        "counters": network.counters.snapshot_state(),
        "items_processed": network.items_processed,
    }


def _restore_network(network, checkpoint) -> None:
    """Rewind a network to its run-start checkpoint (degradation
    ladder: the next rung replays the whole run deterministically)."""
    for mirror, saved in zip(
        network.sites, pickle.loads(checkpoint["sites"])
    ):
        _adopt_site_state(mirror, saved)
    kind, state = checkpoint["coordinator"]
    if kind == "fast":
        network.coordinator.restore_state(state)
    else:
        network.coordinator = pickle.loads(state)
    network.counters.restore_state(checkpoint["counters"])
    network.items_processed = checkpoint["items_processed"]


class _WindowAttempt:
    """Parent-side fold progress for one supervised window.

    A post-fault retry refolds the window from its start; the refold is
    bit-identical to the faulted attempt (same restored coordinator,
    same recomputed packs, same order), so downstream delivery number
    ``i`` of the retry *is* delivery number ``i`` of the original.
    ``delivered`` counts deliveries whose site-mirror ``on_control``
    already ran (mirrors are not snapshotted — unlike the coordinator
    and counters, which rewind); the retry skips re-applying those
    while still re-recording their (rewound) counter traffic.
    """

    __slots__ = ("window", "folded", "delivered", "seen")

    def __init__(self, window: int) -> None:
        self.window = window
        self.folded = False  # any coordinator fold ran this window
        self.delivered = 0  # mirror deliveries that must not re-apply
        self.seen = 0  # deliveries seen so far in the current attempt


def _deliver_guarded(network, attempt, dest, response) -> None:
    """Deliver one coordinator response downstream, skipping the
    site-mirror re-application for deliveries a pre-fault fold of the
    same window already made (see :class:`_WindowAttempt`)."""
    if attempt is not None:
        attempt.seen += 1
        if attempt.seen <= attempt.delivered:
            counters = network.counters
            if dest == BROADCAST:
                counters.record_downstream(
                    response, copies=network.num_sites
                )
            else:
                counters.record_downstream(response, copies=1)
            return
        attempt.delivered += 1
    network.deliver_downstream(dest, response)


class WorkerSupervisor:
    """Parent-side supervision state for one sharded run.

    Owns fault classification bookkeeping (the fault log, restart
    budget, capped-backoff respawns), per-worker heartbeats, the
    run-start network checkpoint the degradation ladder restores, and
    the per-run clone of the engine's chaos :class:`FaultPlan`.
    Created per ``run()`` when ``supervision="on"`` (the default).
    """

    def __init__(self, timeout, max_restarts, plan, registry) -> None:
        self.timeout = float(timeout)
        self.max_restarts = int(max_restarts)
        self.plan: Optional[FaultPlan] = (
            plan.clone() if plan is not None else None
        )
        self.registry = registry
        self.restarts = 0
        self.fault_log: List[dict] = []
        self.recovery_seconds = 0.0
        self.checkpoint = None  # run-start network checkpoint (or None)
        self.last_seen: dict = {}  # worker index -> perf_counter stamp
        #: One-shot deadline extensions: a freshly respawned worker
        #: replays every committed window before its first result.
        self.boost: dict = {}

    def deadline(self, handle) -> float:
        return self.boost.get(handle.index, 0.0) + self.timeout

    def heartbeat(self, handle) -> None:
        self.boost.pop(handle.index, None)
        self.last_seen[handle.index] = time.perf_counter()

    def export_heartbeats(self) -> None:
        if not self.registry.enabled or not self.last_seen:
            return
        now = time.perf_counter()
        for worker in sorted(self.last_seen):
            observe_heartbeat_age(
                self.registry, worker, now - self.last_seen[worker]
            )

    def record_fault(self, fault, window) -> None:
        self.fault_log.append(
            {
                "worker": fault.handle.index,
                "window": window,
                "fault_class": fault.fault_class,
                "detail": fault.detail,
            }
        )
        if self.plan is not None:
            self.plan.mark_fired(fault.handle.index, window)
        observe_fault(self.registry, fault.fault_class)

    def wire_faults(self, worker: int):
        if self.plan is None:
            return None
        return self.plan.wire_for(worker) or None

    def take_respawn_failure(self, worker: int) -> bool:
        return self.plan is not None and self.plan.take_respawn_failure(
            worker
        )


class ShardedEngine(ColumnarEngine):
    """Columnar data plane, shard-parallel site passes.

    Parameters
    ----------
    batch_size / initial_batch_size:
        The batched schedule, exactly as in
        :class:`~repro.runtime.batched.BatchedEngine` (the schedules
        must coincide for the bit-parity contract to be structural).
        Larger batches amortize the per-window worker round trip.
    workers:
        Worker process count; defaults to ``os.cpu_count()``.  Clamped
        to the site count; ``1`` runs the in-process columnar path.
    worker_timeout:
        Supervision deadline in seconds: how long a worker may stay
        silent while the parent waits on it before the supervisor
        classifies a hang.  Defaults to 60s.
    max_worker_restarts:
        In-place window-boundary recoveries allowed per run before the
        supervisor stops respawning and takes the degradation ladder
        down to the in-process columnar engine instead.
    fault_plan:
        Chaos injection (testing only): a :class:`~repro.faults.FaultPlan`
        or its ``"kind:worker:window,..."`` string form.  Cloned per
        run; ``None`` (production) leaves every seam inert.
    supervision:
        ``"on"`` (default) or ``"off"``.  Off restores the fail-stop
        behavior: any worker fault tears the pool down and raises
        :class:`ShardedWorkerError`.
    """

    name = "sharded"

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        initial_batch_size: int = DEFAULT_INITIAL_BATCH_SIZE,
        workers: Optional[int] = None,
        kernels=None,
        worker_timeout: Optional[float] = None,
        max_worker_restarts: int = 2,
        fault_plan=None,
        supervision: str = "on",
    ) -> None:
        super().__init__(
            batch_size=batch_size,
            initial_batch_size=initial_batch_size,
            kernels=kernels,
        )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if worker_timeout is None:
            worker_timeout = _DEFAULT_WORKER_TIMEOUT
        if worker_timeout <= 0:
            raise ConfigurationError(
                f"worker_timeout must be > 0, got {worker_timeout}"
            )
        if max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        if supervision not in ("on", "off"):
            raise ConfigurationError(
                f"supervision must be 'on' or 'off', got {supervision!r}"
            )
        if isinstance(fault_plan, str):
            fault_plan = parse_fault_plan(fault_plan)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan or its string form, "
                f"got {fault_plan!r}"
            )
        self.workers = int(workers)
        self.worker_timeout = float(worker_timeout)
        self.max_worker_restarts = int(max_worker_restarts)
        self.fault_plan = fault_plan
        self.supervision = supervision
        #: Observability: how the last ``run`` executed (mode,
        #: window/rollback counts, per-window timing, stream shipment,
        #: warm-pool reuse).
        self.last_run_stats: dict = {}
        self._pool = None
        self._finalizer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(batch_size={self.batch_size}, "
            f"workers={self.workers})"
        )

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent).

        Runs automatically when the engine is garbage-collected or the
        interpreter exits; call it eagerly to release the worker
        processes and their shared-memory rings sooner.
        """
        if self._finalizer is not None:
            self._finalizer()  # invokes _shutdown_pool at most once
            self._finalizer = None
        self._pool = None

    # -- top level ------------------------------------------------------

    def run(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        with use_kernels(self._kernels) as kernels:
            counters = self._run_sharded(
                network,
                stream,
                on_step=on_step,
                checkpoints=checkpoints,
                on_checkpoint=on_checkpoint,
            )
        if self.last_run_stats:
            self.last_run_stats.setdefault("kernels", kernels.name)
        return counters

    def _run_sharded(
        self,
        network: "Network",
        stream,
        on_step: Optional[Callable[[int], None]] = None,
        checkpoints: Optional[Iterable[int]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "MessageCounters":
        t_run = time.perf_counter()
        if checkpoints is not None:
            # Materialize once: marks are computed here AND the
            # fallback engine iterates again — a one-shot iterator must
            # survive both.
            checkpoints = list(checkpoints)
        arrays = stream.arrays() if hasattr(stream, "arrays") else None
        n = len(stream)
        workers = max(1, min(self.workers, network.num_sites))
        reason = None
        if _np is None:
            reason = "numpy unavailable"
        elif _shared_memory is None:
            reason = "shared memory unavailable"
        elif arrays is None or arrays[2] is None:
            reason = "stream has no int64 column view"
        elif n == 0:
            reason = "empty stream"
        elif workers < 2:
            reason = "single worker"
        elif _network_instrumented(network):
            reason = "network delivery is instrumented"
        elif not all(
            getattr(site, "shardable", True) for site in network.sites
        ):
            reason = "non-shardable site"
        marks: List[int] = []
        pool = None
        supervisor = None
        if reason is None:
            base = network.items_processed
            if checkpoints is not None and on_checkpoint is not None:
                marks = sorted(
                    t - base for t in set(checkpoints) if base < t <= base + n
                )
            if self.supervision == "on":
                supervisor = WorkerSupervisor(
                    self.worker_timeout,
                    self.max_worker_restarts,
                    self.fault_plan,
                    self.registry,
                )
                try:
                    supervisor.checkpoint = _checkpoint_network(network)
                except Exception:
                    # Unpicklable network: supervise (classify faults,
                    # enforce deadlines) without recovery or ladder.
                    supervisor.checkpoint = None
            try:
                pool, warm = self._get_pool(workers)
                self._dispatch_run(
                    pool, network, arrays, n, marks, supervisor=supervisor
                )
            except Exception as exc:
                self.close()
                pool = None
                reason = f"worker setup failed: {exc!r}"
        if reason is not None:
            self.last_run_stats = {"mode": "fallback", "reason": reason}
            if self.registry.enabled:
                self.registry.counter(
                    "repro_shard_fallbacks_total",
                    "sharded runs served by the in-process columnar path",
                    labels=("reason",),
                ).labels(reason=reason.split(":")[0]).inc()
            return ColumnarEngine.run(
                self,
                network,
                stream,
                on_step=on_step,
                checkpoints=checkpoints,
                on_checkpoint=on_checkpoint,
            )
        try:
            try:
                counters = self._run_windows(
                    network,
                    pool,
                    n,
                    marks,
                    set(marks),
                    on_step,
                    on_checkpoint,
                    supervisor,
                )
            except (_WorkerFault, _LadderFault) as exc:
                fault = exc.fault if isinstance(exc, _LadderFault) else exc
                if supervisor is not None and isinstance(exc, _WorkerFault):
                    # Ladder faults were logged where they were
                    # classified; bare faults get logged here.
                    supervisor.record_fault(fault, fault.window)
                _reap_handle(fault.handle)
                self.close()
                if supervisor is None or supervisor.checkpoint is None:
                    raise fault.to_error() from None
                # Degradation ladder: restore the run-start checkpoint
                # and rerun in-process on the columnar engine.
                _restore_network(network, supervisor.checkpoint)
                observe_degradation(self.registry, "columnar")
                self.last_run_stats = {
                    "mode": "degraded",
                    "reason": (
                        f"fault recovery exhausted "
                        f"({fault.fault_class}: {fault.detail})"
                    ),
                    "rung": "columnar",
                    "degraded_to": "columnar",
                }
                counters = ColumnarEngine.run(
                    self,
                    network,
                    stream,
                    on_step=on_step,
                    checkpoints=checkpoints,
                    on_checkpoint=on_checkpoint,
                )
            stats = self.last_run_stats
            if stats.get("mode") == "sharded":
                stats["warm_pool"] = warm
                seconds = time.perf_counter() - t_run
                stats["engine"] = self.name
                stats["items"] = n
                stats["seconds"] = seconds
            if supervisor is not None:
                stats["supervision"] = {
                    "worker_timeout": supervisor.timeout,
                    "max_worker_restarts": supervisor.max_restarts,
                }
                if supervisor.fault_log:
                    stats["faults"] = supervisor.fault_log
                    stats["worker_restarts"] = supervisor.restarts
                    stats["recovery_seconds"] = supervisor.recovery_seconds
            if self.registry.enabled and stats.get("mode") == "sharded":
                self._export_run(
                    network, n, seconds, windows=stats.get("windows")
                )
                observe_sharded_stats(self.registry, stats)
            return counters
        except BaseException:
            # The pool's protocol state is unknown after a failure —
            # never reuse it.  Teardown also reaps any orphans.
            self.close()
            raise

    # -- pool lifecycle -------------------------------------------------

    def _get_pool(self, workers: int):
        """Return (pool, was_warm): reuse the live pool when its shape
        matches, else replace it."""
        pool = self._pool
        if (
            pool is not None
            and pool["workers"] == workers
            and all(h.process.is_alive() for h in pool["handles"])
        ):
            return pool, True
        self.close()
        pool = self._spawn_pool(workers)
        self._pool = pool
        self._finalizer = weakref.finalize(self, _shutdown_pool, pool)
        return pool, False

    def _spawn_pool(self, workers: int):
        from multiprocessing import get_context

        ctx = get_context("spawn")
        ring_bytes = max(_MIN_RING_BYTES, 48 * self.batch_size + 4096)
        pool = {
            "workers": workers,
            "handles": [],
            "rings": [],
            "ring_bytes": ring_bytes,
            "closed": False,
        }
        try:
            for index in range(workers):
                ring = _shared_memory.SharedMemory(create=True, size=ring_bytes)
                pool["rings"].append(ring)
                pool["handles"].append(
                    _start_worker(ctx, index, ring, ring_bytes)
                )
            for handle in pool["handles"]:
                self._await_ready(handle)
        except BaseException:
            _shutdown_pool(pool)
            raise
        return pool

    def _await_ready(self, handle) -> None:
        if not handle.conn.poll(_READY_TIMEOUT):
            raise ShardedWorkerError(
                f"shard worker {handle.index} not ready within "
                f"{_READY_TIMEOUT:.0f}s"
            )
        message = self._recv(handle)
        if message[0] != "rdy":
            raise ShardedWorkerError(
                f"shard worker {handle.index} sent {message[0]!r} "
                "instead of ready"
            )

    def _dispatch_run(
        self, pool, network, arrays, n, marks, supervisor=None
    ) -> None:
        """Ship each worker its shard for this run: site states, the
        stream columns, and the window schedule.

        The stream shipment is cached on the workers: a repeat run over
        the SAME column arrays (identity-checked via weakrefs; the
        engine assumes stream columns are immutable, which every stream
        in this package honors) just references their cached shard
        views — the steady state for repeated analyses over one
        dataset.  A cold run ships the columns in bounded chunks
        (:meth:`_ship_stream`); the pool keeps only weakrefs, so no
        copy of the stream outlives the shipment.
        """
        from ..stream.columns import ShardSliceView

        num_sites = network.num_sites
        workers = pool["workers"]
        cache = pool.get("stream")
        cached = (
            cache is not None
            and cache["num_sites"] == num_sites
            and all(
                ref() is array
                for ref, array in zip(cache["refs"], arrays)
            )
        )
        if not cached:
            pool["stream"] = {
                "refs": [weakref.ref(array) for array in arrays],
                "num_sites": num_sites,
                "token": 1 if cache is None else cache["token"] + 1,
            }
        pool["run"] = {
            "n": n,
            "marks": marks,
            "metrics": bool(self.registry.enabled),
            "shipment": {"cached": cached, "chunks": 0, "bytes": 0, "seconds": 0.0},
        }
        payloads = []
        for handle in pool["handles"]:
            handle.site_lo, handle.site_hi = ShardSliceView.shard_range(
                num_sites, workers, handle.index
            )
            sites = network.sites[handle.site_lo : handle.site_hi]
            payloads.append(
                (handle, self._payload(pool, handle, sites, supervisor))
            )
        self._ship_stream(pool, payloads, None if cached else arrays, supervisor)

    def _payload(self, pool, handle, sites, supervisor):
        """One worker's ``run`` payload (the stream spec is added by
        :meth:`_ship_stream`)."""
        run = pool["run"]
        return {
            "site_lo": handle.site_lo,
            "site_hi": handle.site_hi,
            "sites": sites,
            "n": run["n"],
            "batch_size": self.batch_size,
            "initial_batch_size": self.initial_batch_size,
            "marks": run["marks"],
            # The parent's resolved kernel backend by name; workers
            # re-resolve with strict=False so a backend the worker
            # interpreter cannot import degrades to auto, not a
            # crash (the numpy tier is bit-identical anyway).
            "kernels": _active_kernels().name,
            # When truthy, workers append a flat telemetry column
            # (WORKER_METRIC_NAMES order) to result messages; when
            # falsy the wire shape is untouched.
            "metrics": run["metrics"],
            "worker": handle.index,
            "supervised": supervisor is not None,
            "faults": (
                supervisor.wire_faults(handle.index)
                if supervisor is not None
                else None
            ),
        }

    def _ship_stream(
        self, pool, payloads, arrays, supervisor=None, window=None
    ) -> None:
        """Send each ``(handle, payload)`` its ``run`` command, then —
        unless ``arrays`` is None and the workers' cached shards serve —
        the stream columns in bounded chunks.

        The one shipment routine for cold dispatch and respawns.  Each
        chunk of rows is copied into a fixed-size shared staging segment
        and announced as ``("chk", lo, rows)``; every worker compacts its
        shard's rows out of it into columns preallocated from the row
        count in its payload, and acks before the next chunk overwrites
        the buffer.  The parent's footprint is one chunk at any length.
        """
        token = pool["stream"]["token"]
        if arrays is None:
            for handle, payload in payloads:
                payload["stream"] = ("cached", token)
                self._send(handle, ("run", payload), window)
            return
        t_start = time.perf_counter()
        n = len(arrays[0])
        cap = max(1, min(n, _STAGING_BYTES // _ROW_BYTES))
        counts = _np.bincount(arrays[0])
        staging = _shared_memory.SharedMemory(create=True, size=cap * _ROW_BYTES)
        try:
            columns = [
                _np.ndarray(cap, dtype, staging.buf, k * 8 * cap)
                for k, dtype in enumerate(_STREAM_DTYPES)
            ]
            for handle, payload in payloads:
                payload["stream"] = (
                    "chunks",
                    token,
                    int(counts[handle.site_lo : handle.site_hi].sum()),
                    (staging.name, cap),
                )
                self._send(handle, ("run", payload), window)
            for lo in range(0, n, cap):
                rows = min(cap, n - lo)
                for column, array in zip(columns, arrays):
                    column[:rows] = array[lo : lo + rows]
                for handle, _ in payloads:
                    self._send(handle, ("chk", lo, rows), window)
                for handle, _ in payloads:
                    reply = self._recv(handle, supervisor, window)
                    if reply[0] != "ack":  # pragma: no cover - protocol bug
                        raise ShardedWorkerError(
                            f"shard worker {handle.index} sent "
                            f"{reply[0]!r} instead of a chunk ack"
                        )
        finally:
            columns = None  # release the buffer exports before unlinking
            _unlink_segments([staging])
        shipment = pool["run"]["shipment"]
        shipment["chunks"] += -(-n // cap)
        shipment["bytes"] += n * _ROW_BYTES
        shipment["seconds"] += time.perf_counter() - t_start

    # -- the window fold -----------------------------------------------

    def _run_windows(
        self,
        network,
        pool,
        n,
        marks,
        mark_set,
        on_step,
        on_checkpoint,
        supervisor=None,
    ) -> "MessageCounters":
        handles = pool["handles"]
        windows = list(
            batch_windows(n, self.batch_size, self.initial_batch_size, marks)
        )
        rollbacks = 0
        controls_total = 0
        compute_total = 0.0
        wait_total = 0.0
        fold_total = 0.0
        per_window = []
        history: List[list] = []
        coordinator = network.coordinator
        counters = network.counters
        t_idx = 0
        attempt: Optional[_WindowAttempt] = None
        while t_idx < len(windows):
            lo, hi = windows[t_idx]
            snap = None
            if supervisor is not None:
                # Window-start snapshot of what the parent mutates
                # while folding; a mid-window fault rewinds to it.
                snap = (
                    coordinator.snapshot_state(),
                    counters.snapshot_state(),
                )
                if attempt is None or attempt.window != t_idx:
                    attempt = _WindowAttempt(t_idx)
                attempt.seen = 0
                attempt.folded = False
            guard = attempt if supervisor is not None else None
            attempt_rollbacks = 0
            try:
                t0 = time.perf_counter()
                pending = {}
                compute = [0.0] * len(handles)
                worker_deltas = []
                for handle in handles:
                    self._collect(
                        handle, supervisor, t_idx, pending, compute,
                        worker_deltas,
                    )
                t1 = time.perf_counter()
                controls: List[Tuple[int, int, object]] = []
                order = sorted(pending)
                i = 0
                while i < len(order):
                    site_id = order[i]
                    handle, descriptor = pending.pop(site_id)
                    if guard is not None:
                        attempt.folded = True
                    responses = self._fold(
                        network,
                        site_id,
                        self._decode(handle, descriptor, t_idx),
                        guard,
                    )
                    if responses:
                        controls.extend(
                            (site_id, dest, message)
                            for dest, message in responses
                        )
                        needs_roll = any(
                            dest == BROADCAST or dest > site_id
                            for dest, _ in responses
                        )
                        affected = [
                            h for h in handles if h.site_hi - 1 > site_id
                        ]
                        if needs_roll and affected:
                            attempt_rollbacks += 1
                            for h in affected:
                                self._send(
                                    h, ("roll", site_id, controls), t_idx
                                )
                            for stale in [s for s in pending if s > site_id]:
                                del pending[stale]
                            for h in affected:
                                self._collect(
                                    h, supervisor, t_idx, pending, compute,
                                    worker_deltas,
                                )
                            order = order[: i + 1] + sorted(
                                s for s in pending if s > site_id
                            )
                    i += 1
            except _WorkerFault as fault:
                if supervisor is None:
                    raise
                self._recover_window(
                    supervisor, network, pool, t_idx, history, fault,
                    snap, attempt,
                )
                continue
            # Commit phase.  A fault here is NOT window-recoverable —
            # a worker that already received the com advances its sites
            # irreversibly — so it goes straight to the ladder.
            try:
                for handle in handles:
                    self._send(handle, ("com", controls), t_idx)
            except _WorkerFault as fault:
                if supervisor is None:
                    raise
                supervisor.record_fault(fault, t_idx)
                raise _LadderFault(fault) from None
            for worker, deltas in worker_deltas:
                merge_worker_deltas(self.registry, worker, deltas)
            t2 = time.perf_counter()
            rollbacks += attempt_rollbacks
            controls_total += len(controls)
            history.append(controls)
            # Workers compute in parallel: the window's compute time is
            # the slowest worker's (first pass plus roll recomputes).
            window_compute = max(compute)
            compute_total += window_compute
            wait_total += t1 - t0
            fold_total += t2 - t1
            per_window.append(
                {
                    "window": len(per_window),
                    "worker_compute_seconds": window_compute,
                    "transport_wait_seconds": t1 - t0,
                    "parent_fold_seconds": t2 - t1,
                    "controls": len(controls),
                }
            )
            if supervisor is not None:
                supervisor.export_heartbeats()
            network.items_processed += hi - lo
            t = network.items_processed
            if on_step is not None:
                on_step(t)
            if hi in mark_set:
                on_checkpoint(t)
            t_idx += 1
        for handle in handles:
            self._send(handle, ("fin",))
        for handle in handles:
            message = self._recv(handle, supervisor)
            if message[0] != "sta":  # pragma: no cover - protocol bug guard
                raise ShardedWorkerError(
                    f"shard worker {handle.index} sent {message[0]!r} "
                    "instead of final state"
                )
            if len(message) > 3 and message[3]:
                merge_worker_deltas(self.registry, handle.index, message[3])
            for offset, final in enumerate(pickle.loads(message[2])):
                _adopt_site_state(network.sites[message[1] + offset], final)
        self.last_run_stats = {
            "mode": "sharded",
            "workers": pool["workers"],
            "windows": len(windows),
            "rollbacks": rollbacks,
            "controls": controls_total,
            "timing": {
                "worker_compute_seconds": compute_total,
                "transport_wait_seconds": wait_total,
                "parent_fold_seconds": fold_total,
            },
            "per_window": per_window,
            "shipment": pool["run"]["shipment"],
            "shm_segments": [shm.name for shm in pool["rings"]],
        }
        return network.counters

    def _collect(
        self, handle, supervisor, t_idx, pending, compute, worker_deltas
    ) -> None:
        """Receive one worker's window results: file its descriptors
        by site, add its compute seconds, and keep its telemetry
        column for the commit."""
        message = self._recv(handle, supervisor, t_idx)
        for descriptor in message[1]:
            pending[descriptor[0]] = (handle, descriptor)
        compute[handle.index] += message[2]
        if len(message) > 3 and message[3]:
            worker_deltas.append((handle.index, message[3]))

    # -- window-boundary recovery (supervised) -------------------------

    def _recover_window(
        self, supervisor, network, pool, t_idx, history, fault, snap, attempt
    ) -> None:
        """Recover from one classified worker fault without losing the
        run: reap and respawn the dead shard's worker, fast-forward it
        through the committed windows, rewind the survivors (and the
        parent's coordinator/counters) to the window boundary, and let
        the window loop retry.  The retry is bit-identical to a
        fault-free run.  Raises :class:`_LadderFault` when recovery is
        out of budget or structurally impossible.
        """
        t_start = time.perf_counter()
        supervisor.record_fault(fault, t_idx)
        if supervisor.restarts >= supervisor.max_restarts:
            raise _LadderFault(fault) from None
        supervisor.restarts += 1
        if supervisor.checkpoint is None:
            # No run-start site states -> cannot rebuild the dead shard.
            raise _LadderFault(fault) from None
        if attempt.folded and snap[0] is None:
            # Partial folds reached a coordinator that cannot rewind.
            raise _LadderFault(fault) from None
        dead = fault.handle
        try:
            handle = self._respawn_worker(pool, dead, supervisor)
            self._redispatch_worker(pool, handle, t_idx, history, supervisor)
            for other in pool["handles"]:
                if other is not handle:
                    self._send(other, ("rwd", t_idx), t_idx)
            for other in pool["handles"]:
                if other is handle:
                    continue
                # Drain until the rewind confirmation; anything queued
                # before it (stale results of the faulted attempt) is
                # superseded by the resend that follows the rwdok.
                while True:
                    message = self._recv(other, supervisor, t_idx)
                    if message[0] == "rwdok":
                        break
        except _WorkerFault as exc:
            supervisor.record_fault(exc, t_idx)
            raise _LadderFault(exc) from None
        if attempt.folded:
            network.coordinator.restore_state(snap[0])
            network.counters.restore_state(snap[1])
        seconds = time.perf_counter() - t_start
        supervisor.recovery_seconds += seconds
        observe_recovery(self.registry, dead.index, seconds)
        # The respawned worker replays t_idx committed windows before
        # its first result lands: scale its first deadline with that.
        supervisor.boost[handle.index] = supervisor.timeout * (1 + t_idx)

    def _respawn_worker(self, pool, dead, supervisor):
        """Replace one reaped worker with a fresh process on the same
        pool slot (same index, same ring segment), with bounded retries
        and capped exponential backoff."""
        from multiprocessing import get_context

        _reap_handle(dead)
        ctx = get_context("spawn")
        delay = _RESPAWN_BACKOFF
        last_exc: Optional[BaseException] = None
        for _ in range(_RESPAWN_RETRIES):
            process = None
            try:
                if supervisor.take_respawn_failure(dead.index):
                    raise ShardedWorkerError(
                        f"injected respawn failure for worker {dead.index}"
                    )
                handle = _start_worker(
                    ctx, dead.index, dead.ring, pool["ring_bytes"]
                )
                process = handle.process
                self._await_ready(handle)
                handle.site_lo, handle.site_hi = dead.site_lo, dead.site_hi
                pool["handles"][dead.index] = handle
                return handle
            except Exception as exc:
                last_exc = exc
                if process is not None:
                    try:
                        process.terminate()
                        process.join(timeout=_JOIN_TIMEOUT)
                    except Exception:  # pragma: no cover - best effort
                        pass
                time.sleep(delay)
                delay = min(delay * 2, _RESPAWN_BACKOFF_CAP)
        raise _WorkerFault(
            dead,
            "crash",
            f"respawn failed after {_RESPAWN_RETRIES} attempts: {last_exc!r}",
        ) from last_exc

    def _redispatch_worker(
        self, pool, handle, resume, history, supervisor
    ) -> None:
        """Ship a respawned worker its shard, rebuilt for deterministic
        recovery: run-start site states (sliced from the supervisor's
        checkpoint), the committed control history to fast-forward
        through, and a fresh chunked stream shipment — its cache died
        with the old process — through the same :meth:`_ship_stream`
        routine a cold dispatch uses."""
        arrays = [ref() for ref in pool["stream"]["refs"]]
        if any(array is None for array in arrays):
            raise _WorkerFault(
                handle,
                "crash",
                "stream columns were collected; cannot re-ship the "
                "shard to a respawned worker",
            )
        sites = pickle.loads(supervisor.checkpoint["sites"])[
            handle.site_lo : handle.site_hi
        ]
        payload = self._payload(pool, handle, sites, supervisor)
        payload["resume"] = resume
        payload["history"] = list(history)
        self._ship_stream(pool, [(handle, payload)], arrays, supervisor, resume)

    def format_stats(self) -> str:
        """A human-readable breakdown of :attr:`last_run_stats` (used
        by ``repro ... --profile --engine sharded``)."""
        stats = self.last_run_stats
        if not stats:
            return "sharded engine: no run recorded yet"
        if stats.get("mode") == "degraded":
            return (
                f"sharded engine: degraded to the "
                f"{stats.get('rung', '?')} rung "
                f"({stats.get('reason', 'unknown reason')}); "
                f"{len(stats.get('faults', ()))} faults logged"
            )
        if stats.get("mode") != "sharded":
            return (
                f"sharded engine: ran in fallback mode "
                f"({stats.get('reason', 'unknown reason')})"
            )
        lines = [
            f"sharded engine breakdown ({stats['workers']} workers):",
            (
                f"  windows {stats['windows']}, rollbacks "
                f"{stats['rollbacks']}, controls {stats['controls']}"
            ),
        ]
        timing = stats.get("timing")
        if timing is not None:
            parts = []
            for label, key in (
                ("worker compute", "worker_compute_seconds"),
                ("transport wait", "transport_wait_seconds"),
                ("parent fold", "parent_fold_seconds"),
            ):
                if key in timing:
                    parts.append(f"{label} {timing[key]:.3f}s")
            lines.append("  time: " + ", ".join(parts))
        if stats.get("faults"):
            lines.append(
                f"  faults: {len(stats['faults'])} classified, "
                f"{stats.get('worker_restarts', 0)} worker restarts, "
                f"recovery {stats.get('recovery_seconds', 0.0):.3f}s"
            )
        shipment = stats.get("shipment")
        if shipment is not None:
            lines.append(
                f"  stream shipment: "
                f"{'cached' if shipment['cached'] else 'cold'}, "
                f"{shipment['chunks']} chunks, "
                f"{shipment['bytes'] / (1 << 20):.1f} MiB, "
                f"{shipment['seconds']:.3f}s"
            )
        if "kernels" in stats:
            lines.append(f"  kernels: {stats['kernels']} backend")
        return "\n".join(lines)

    @staticmethod
    def _send(handle, message, window=None) -> None:
        """Send a command to a worker; a dead pipe raises a classified
        ``crash`` :class:`_WorkerFault` (the supervised paths recover
        or degrade; unsupervised boundaries convert it to
        :class:`ShardedWorkerError` via ``to_error``)."""
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerFault(
                handle,
                "crash",
                f"pipe closed mid-send "
                f"(exitcode {handle.process.exitcode}): {exc!r}",
                window=window,
            ) from None

    def _recv(self, handle, supervisor=None, window=None):
        """Receive one worker message; classify failures.

        With a supervisor the receive is deadline-bounded (``hang``
        fault on expiry) and stamps the worker's heartbeat.  A dead
        pipe is a ``crash`` fault either way; a worker-shipped
        traceback is fail-stop (:class:`ShardedWorkerError` with
        ``fault_class="error"``) — the worker's own code raised, and
        deterministic replay would just raise it again.
        """
        if supervisor is not None:
            deadline = supervisor.deadline(handle)
            if not handle.conn.poll(deadline):
                raise _WorkerFault(
                    handle,
                    "hang",
                    f"no message within {deadline:.1f}s "
                    f"(process alive: {handle.process.is_alive()})",
                    window=window,
                )
        try:
            message = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerFault(
                handle,
                "crash",
                f"exited unexpectedly "
                f"(exitcode {handle.process.exitcode}): {exc!r}",
                window=window,
            ) from None
        if message[0] == "err":
            raise ShardedWorkerError.from_fault(
                handle,
                "error",
                f"worker raised; original traceback:\n{message[1]}",
                window=window,
                worker_traceback=message[1],
            )
        if supervisor is not None:
            supervisor.heartbeat(handle)
        return message

    def _decode(self, handle, descriptor, window=None):
        """Rebuild one site's window payload from its wire descriptor.

        All three wire forms are validated at this boundary
        (:class:`~repro.net.messages.PackWireError` and friends); a
        malformed descriptor is classified as a ``poison``
        :class:`_WorkerFault` instead of crashing the coordinator fold.
        """
        try:
            tag = descriptor[1]
            if tag == "m":
                payload = descriptor[2]
                if not isinstance(payload, list):
                    raise PackWireError(
                        f"scalar descriptor carries "
                        f"{type(payload).__name__}, not a message list"
                    )
                return payload
            if tag == "q":
                return MessagePack.from_arrays(descriptor[2], descriptor[3])
            if tag == "p":
                return MessagePack.read_from(
                    handle.ring.buf, descriptor[2], descriptor[3]
                )
            raise PackWireError(f"unknown descriptor tag {tag!r}")
        except (
            ValueError,
            TypeError,
            KeyError,
            IndexError,
            AttributeError,
        ) as exc:
            raise _WorkerFault(
                handle,
                "poison",
                f"undecodable pack descriptor: {exc}",
                window=window,
            ) from None

    @staticmethod
    def _fold(network, site_id: int, payload, attempt=None):
        """Deliver one site's window output to the coordinator, exactly
        as :meth:`Network.deliver_pack` / ``deliver_upstream`` would
        (same counter calls, same response fan-out), but returning the
        coordinator's responses so the window loop can see broadcasts.
        Only called on uninstrumented networks (checked at ``run``
        start), where this *is* the delivery path, verbatim.
        ``attempt`` (supervised runs only) guards downstream
        deliveries across window-recovery refolds.
        """
        counters = network.counters
        coordinator = network.coordinator
        if isinstance(payload, MessagePack):
            if len(payload) == 0:  # pragma: no cover - filtered at encode
                return []
            counters.record_upstream_pack(payload)
            responses = coordinator.on_message_pack(site_id, payload)
            for dest, response in responses:
                _deliver_guarded(network, attempt, dest, response)
            return responses
        out = []
        for message in payload:
            counters.record_upstream(message)
            responses = coordinator.on_message(site_id, message)
            for dest, response in responses:
                _deliver_guarded(network, attempt, dest, response)
            out.extend(responses)
        return out


def _network_instrumented(network) -> bool:
    """Mirror :meth:`Network.deliver_pack`'s tracing check: wrapped or
    overridden delivery methods mean an observer wants to see every
    message in causal order — the sharded fold would bypass it, so the
    engine falls back to the in-process columnar path instead."""
    from .network import (
        _BASE_DELIVER_DOWNSTREAM,
        _BASE_DELIVER_UPSTREAM,
        Network,
    )

    cls = type(network)
    return (
        "deliver_upstream" in network.__dict__
        or "deliver_downstream" in network.__dict__
        or "deliver_pack" in network.__dict__
        or cls.deliver_upstream is not _BASE_DELIVER_UPSTREAM
        or cls.deliver_downstream is not _BASE_DELIVER_DOWNSTREAM
        or cls.deliver_pack is not Network.deliver_pack
    )
