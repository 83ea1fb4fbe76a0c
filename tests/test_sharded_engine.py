"""Multiprocess sharded engine: bit-parity, wire forms, failure paths.

What is covered:

1. **Bit-parity** — samples AND message counters identical to the
   columnar engine across (batch_size, workers) combinations,
   including batch size 1 (pure scalar-message descriptors),
   rollback-heavy runs, checkpoints, and reused networks
   (two consecutive ``run`` calls continue the RNG streams exactly).
   A broadcast-storm stream drives dozens of mid-window rollbacks
   through the same grid, and the coordinator/counter
   ``snapshot_state``/``restore_state`` hooks behind window recovery
   round-trip exactly.
2. **Fallbacks** — workers=1, numpy-free installs, platforms without
   shared memory, instrumented (traced) networks, and non-shardable
   sites all take the in-process columnar path; the engine is always
   safe to select.
3. **Worker failure** — a site raising mid-run surfaces the original
   traceback in the parent and leaves no orphaned processes or
   shared-memory segments.
4. **Wire form** — ``MessagePack.to_arrays``/``from_arrays`` round-trip
   (hypothesis property), with exact counter-accounting parity; the
   worker's ring (``"p"``) and inline (``"q"``) pack descriptors decode
   to equal packs; malformed columns and descriptors raise
   ``PackWireError``.
5. **Shard slice views** — per-window grouping matches the columnar
   engine's stable argsort slices, and chunked compaction matches
   whole-column compaction.

Chunked stream shipment is covered in section 1: multi-chunk streams
stay bit-identical, warm reruns ship nothing, and after a 1M+ item run
the parent's shared memory is the rings alone.
"""

from __future__ import annotations

import glob
import multiprocessing
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.net.counters import MessageCounters
from repro.net.messages import (
    EARLY,
    REGULAR,
    SWR_SAMPLE,
    Message,
    MessagePack,
    PackWireError,
)
from repro.net.tracing import MessageTrace
from repro.runtime import (
    ColumnarEngine,
    ShardedEngine,
    ShardedWorkerError,
    get_engine,
)
from repro.runtime.interfaces import SiteAlgorithm
from repro.stream import round_robin, zipf_stream
from repro.stream.columns import ColumnarStream, ShardSliceView
from repro.stream.item import Item

np = pytest.importorskip("numpy")

SITES = 8
SAMPLE = 4
SEED = 3


def _stream(n=20000, seed=0, sites=SITES):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=1.2), sites)


def _run(stream, engine, seed=SEED, sites=SITES, **kwargs):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=SAMPLE),
        seed=seed,
        engine=engine,
        **kwargs,
    )
    proto.run(stream)
    return proto


def _fingerprint(proto):
    return (
        [(item.ident, item.weight, key) for item, key in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


# ---------------------------------------------------------------------------
# 1. Bit-parity with the columnar engine
# ---------------------------------------------------------------------------


class TestShardedParity:
    @pytest.fixture(scope="class")
    def shared_stream(self):
        return _stream()

    @pytest.fixture(scope="class")
    def columnar_1024(self, shared_stream):
        return _fingerprint(_run(shared_stream, ColumnarEngine(batch_size=1024)))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_bit_parity_across_workers(
        self, shared_stream, columnar_1024, workers
    ):
        engine = ShardedEngine(batch_size=1024, workers=workers)
        proto = _run(shared_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar_1024
        # Control broadcasts landed mid-window: the rollback protocol —
        # the one genuinely new piece of the engine — actually ran.
        assert engine.last_run_stats["rollbacks"] > 0

    def test_bit_parity_default_batch_size(self, shared_stream):
        columnar = _fingerprint(_run(shared_stream, "columnar"))
        engine = ShardedEngine(workers=2)
        proto = _run(shared_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar

    def test_bit_parity_on_columnar_stream(self, shared_stream, columnar_1024):
        columnar_stream = ColumnarStream.from_distributed(shared_stream)
        engine = ShardedEngine(batch_size=1024, workers=3)
        proto = _run(columnar_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar_1024

    def test_batch_size_one_scalar_transport(self):
        # Every (site, window) result is a scalar message list — the
        # pack-free half of the wire protocol, bit-identical too.
        stream = _stream(n=900, seed=7, sites=6)
        columnar = _fingerprint(
            _run(stream, ColumnarEngine(batch_size=1), sites=6)
        )
        engine = ShardedEngine(batch_size=1, workers=2)
        proto = _run(stream, engine, sites=6)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar

    def test_checkpoints_and_steps_match_columnar(self):
        stream = _stream(n=6000, seed=11)
        checkpoints = [100, 2500, 2501, 6000]

        def run(engine):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=SITES, sample_size=SAMPLE),
                seed=SEED,
                engine=engine,
            )
            hits, steps = [], []
            proto.run(
                stream,
                checkpoints=checkpoints,
                on_checkpoint=lambda t: hits.append(
                    (t, tuple(i.ident for i in proto.sample()))
                ),
                on_step=steps.append,
            )
            return hits, steps, _fingerprint(proto)

        assert run(ColumnarEngine(batch_size=512)) == run(
            ShardedEngine(batch_size=512, workers=3)
        )

    def test_reused_network_continues_rng_streams(self):
        # The second run must pickle the *advanced* site states back in
        # — worker finals are transplanted onto the parent's mirrors.
        items = zipf_stream(3000, random.Random(2), alpha=1.3)
        first = round_robin(items[:1500], 6)
        second = round_robin(items[1500:], 6)

        def run_twice(engine):
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=6, sample_size=SAMPLE),
                seed=SEED,
                engine=engine,
            )
            proto.run(first)
            proto.run(second)
            return _fingerprint(proto), proto.resource_report()

        assert run_twice(ColumnarEngine(batch_size=512)) == run_twice(
            ShardedEngine(batch_size=512, workers=3)
        )

    def test_swr_parity_via_pickle_snapshots(self):
        # SWR sites implement no fast snapshot hooks, so the worker
        # falls back to pickling whole shards — the other rollback
        # path — and ROUND_UPDATE broadcasts drive the lockstep.
        from repro.core.swr import DistributedWeightedSWR

        stream = _stream(n=8000, seed=21)

        def run(engine):
            proto = DistributedWeightedSWR(
                SITES, SAMPLE, seed=SEED, engine=engine
            )
            proto.run(stream)
            return (
                proto.counters.snapshot(),
                [
                    None if slot is None else (slot.ident, slot.weight)
                    for slot in proto.coordinator._slots
                ],
            )

        columnar = run(ColumnarEngine(batch_size=1024))
        engine = ShardedEngine(batch_size=1024, workers=3)
        sharded = run(engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert sharded == columnar

    def test_warm_pool_reuse_across_protocols(self, shared_stream, columnar_1024):
        # One engine instance, two independent protocol runs: the
        # second reuses the spawned worker pool (fresh site states are
        # re-shipped) and stays bit-identical.
        engine = ShardedEngine(batch_size=1024, workers=2)
        try:
            first = _run(shared_stream, engine)
            assert engine.last_run_stats["warm_pool"] is False
            second = _run(shared_stream, engine)
            assert engine.last_run_stats["warm_pool"] is True
            assert _fingerprint(first) == columnar_1024
            assert _fingerprint(second) == columnar_1024
        finally:
            engine.close()

    def test_close_is_idempotent_and_unlinks_segments(self):
        from multiprocessing import shared_memory

        engine = ShardedEngine(batch_size=512, workers=2)
        _run(_stream(n=2000), engine)
        segments = engine.last_run_stats["shm_segments"]
        # One result ring per worker; the stream's staging segment was
        # unlinked when its shipment ended.
        assert len(segments) == 2
        engine.close()
        engine.close()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_resource_report_transplanted(self, shared_stream, columnar_1024):
        columnar = _run(shared_stream, ColumnarEngine(batch_size=1024))
        engine = ShardedEngine(batch_size=1024, workers=3)
        sharded = _run(shared_stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert sharded.resource_report() == columnar.resource_report()
        assert sum(s.items_seen for s in sharded.sites) == len(shared_stream)


#: Staging rows per chunk in the multi-chunk tests: the 10,000-item
#: stream below ships as three full chunks plus a partial 1,000-row one.
CHUNK_ROWS = 3000


@pytest.fixture
def small_staging(monkeypatch):
    """Shrink the staging segment so test-sized streams span chunks."""
    from repro.runtime import sharded

    monkeypatch.setattr(
        sharded, "_STAGING_BYTES", CHUNK_ROWS * sharded._ROW_BYTES
    )


def _rss_shmem_kib():
    """This process's resident shared memory (``RssShmem``), or None
    where ``/proc/self/status`` is unreadable or lacks the field."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class TestChunkedShipment:
    @pytest.fixture(scope="class")
    def chunked_stream(self):
        return _stream(n=10_000, seed=4)

    @pytest.fixture(scope="class")
    def columnar_512(self, chunked_stream):
        return _fingerprint(
            _run(chunked_stream, ColumnarEngine(batch_size=512))
        )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_multi_chunk_parity(
        self, small_staging, chunked_stream, columnar_512, workers
    ):
        # Three workers over eight sites get unequal shards (2/3/3).
        engine = ShardedEngine(batch_size=512, workers=workers)
        try:
            proto = _run(chunked_stream, engine)
            st = engine.last_run_stats
        finally:
            engine.close()
        assert st["mode"] == "sharded"
        assert len(chunked_stream) % CHUNK_ROWS != 0  # a partial last chunk
        assert st["shipment"] == {
            "cached": False,
            "chunks": 4,
            "bytes": 24 * len(chunked_stream),
            "seconds": st["shipment"]["seconds"],
        }
        assert _fingerprint(proto) == columnar_512

    def test_warm_rerun_ships_nothing_and_new_stream_reships(
        self, small_staging, chunked_stream, columnar_512
    ):
        other = _stream(n=7_000, seed=6)
        engine = ShardedEngine(batch_size=512, workers=3)
        try:
            _run(chunked_stream, engine)
            rerun = _run(chunked_stream, engine)
            cached = engine.last_run_stats["shipment"]
            swapped = _run(other, engine)
            reshipped = engine.last_run_stats["shipment"]
        finally:
            engine.close()
        assert cached["cached"] is True
        assert cached["chunks"] == cached["bytes"] == 0
        assert _fingerprint(rerun) == columnar_512
        assert reshipped["cached"] is False
        assert reshipped["chunks"] == 3  # 7,000 rows: 3,000 + 3,000 + 1,000
        assert _fingerprint(swapped) == _fingerprint(
            _run(other, ColumnarEngine(batch_size=512))
        )

    def test_parent_shared_memory_does_not_grow_with_stream(self):
        # The real staging size: 1.2M rows ship as several 4 MiB
        # chunks, and once the run ends the parent maps only the result
        # rings — not a second copy of the stream (24 B/row, 27 MiB).
        from multiprocessing import shared_memory

        from repro.runtime import sharded
        from repro.stream.columns import columnar_zipf_stream

        before = _rss_shmem_kib()
        if before is None:
            pytest.skip("RssShmem not readable from /proc/self/status")
        n = 1_200_000
        stream = columnar_zipf_stream(n, SITES, seed=8)
        engine = ShardedEngine(batch_size=65536, workers=2)
        try:
            proto = _run(stream, engine)
            grown_kib = _rss_shmem_kib() - before
            st = engine.last_run_stats
            segments = st["shm_segments"]
            ring_bytes = 0
            for name in segments:
                ring = shared_memory.SharedMemory(name=name)
                ring_bytes += ring.size
                ring.close()
        finally:
            engine.close()
        assert st["mode"] == "sharded"
        assert len(segments) == 2  # the rings, one per worker, only
        cap = sharded._STAGING_BYTES // sharded._ROW_BYTES
        assert st["shipment"]["chunks"] == -(-n // cap) >= 3
        assert n % cap != 0
        bound = ring_bytes + sharded._STAGING_BYTES
        assert bound < 24 * n  # the bound does not scale with the stream
        assert grown_kib * 1024 <= bound
        assert _fingerprint(proto) == _fingerprint(
            _run(stream, ColumnarEngine(batch_size=65536))
        )


#: Shrinks saturation_size to round(0.75 * r * s) = 6 items per level
#: set (r = 2 here), so level sets saturate — and broadcast — within a
#: window or two of filling.
STORM_FACTOR = 0.75


def _storm(n=6000, seed=0, sites=SITES):
    """Adversarial stream: a cycling level ladder plus a rising spine.

    Four of five items cycle weights through ``2^0..2^7`` so every
    level set fills (and with STORM_FACTOR, saturates) continuously;
    every fifth item sits on an exponentially rising spine
    ``2^(4..24)`` that drags the sample threshold across epoch
    brackets throughout the run.  Both control families — LEVEL_SATURATED
    and EPOCH_UPDATE — therefore fire dozens of times, and each one
    rolls back the in-flight window.
    """
    rng = random.Random(seed)
    items = []
    for i in range(n):
        if i % 5 == 0:
            weight = 2.0 ** (4.0 + 20.0 * i / n) * (1.0 + rng.random())
        else:
            weight = 2.0 ** (i % 8) * (1.0 + rng.random())
        items.append(Item(i, weight))
    return round_robin(items, sites)


def _storm_proto(engine):
    return DistributedWeightedSWOR(
        SworConfig(
            num_sites=SITES, sample_size=SAMPLE, level_set_factor=STORM_FACTOR
        ),
        seed=SEED,
        engine=engine,
    )


def _storm_run(stream, engine):
    proto = _storm_proto(engine)
    proto.run(stream)
    return proto


class TestBroadcastStormParity:
    @pytest.fixture(scope="class")
    def storm_stream(self):
        return _storm()

    @pytest.fixture(scope="class")
    def columnar_256(self, storm_stream):
        return _fingerprint(
            _storm_run(storm_stream, ColumnarEngine(batch_size=256))
        )

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parity_and_rollback_accounting(
        self, storm_stream, columnar_256, workers
    ):
        engine = ShardedEngine(batch_size=256, workers=workers)
        proto = _storm_run(storm_stream, engine)
        st = engine.last_run_stats
        assert st["mode"] == "sharded"
        assert _fingerprint(proto) == columnar_256
        # The storm must actually storm: control broadcasts land
        # mid-window dozens of times (38 observed at this config).
        assert st["rollbacks"] >= 24

    @pytest.mark.parametrize("batch_size,n", [(1, 800), (64, 4000), (512, 6000)])
    def test_parity_across_batch_sizes(self, batch_size, n):
        stream = _storm(n=n, seed=5)
        columnar = _fingerprint(
            _storm_run(stream, ColumnarEngine(batch_size=batch_size))
        )
        engine = ShardedEngine(batch_size=batch_size, workers=2)
        proto = _storm_run(stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert _fingerprint(proto) == columnar

    def test_reused_network_continues_through_storm(self):
        # Two consecutive runs on one protocol: the worker finals from
        # run 1 must transplant back so run 2 continues the RNG streams
        # exactly.
        first = _storm(n=3000, seed=9)
        second = _storm(n=3000, seed=10)

        def run_twice(engine):
            proto = _storm_proto(engine)
            proto.run(first)
            proto.run(second)
            return _fingerprint(proto)

        assert run_twice(ColumnarEngine(batch_size=256)) == run_twice(
            ShardedEngine(batch_size=256, workers=3)
        )

    def test_checkpoints_and_steps_match_columnar(self):
        # Checkpoints force window splits at arbitrary items; the
        # rollback/commit cycle must not disturb their timing.
        stream = _storm(n=6000, seed=11)
        checkpoints = [100, 2500, 2501, 6000]

        def run(engine):
            proto = _storm_proto(engine)
            hits, steps = [], []
            proto.run(
                stream,
                checkpoints=checkpoints,
                on_checkpoint=lambda t: hits.append(
                    (t, tuple(i.ident for i in proto.sample()))
                ),
                on_step=steps.append,
            )
            return hits, steps, _fingerprint(proto)

        assert run(ColumnarEngine(batch_size=512)) == run(
            ShardedEngine(batch_size=512, workers=3)
        )

    @pytest.mark.parametrize("limit,tags", [(0, {"q"}), (160, {"p", "q"})])
    def test_packs_past_the_ring_limit_ship_inline(
        self, storm_stream, columnar_256, shard_ring_limit, monkeypatch,
        limit, tags,
    ):
        # Workers fill their ring only up to ``limit`` bytes a window;
        # later packs ride inline over the pipe as "q" descriptors,
        # resends after rollbacks included, and the run stays
        # bit-identical.
        shard_ring_limit(limit)
        seen = set()
        decode = ShardedEngine._decode

        def spy(self, handle, descriptor, window=None):
            seen.add(descriptor[1])
            return decode(self, handle, descriptor, window)

        monkeypatch.setattr(ShardedEngine, "_decode", spy)
        engine = ShardedEngine(batch_size=256, workers=3)
        try:
            proto = _storm_run(storm_stream, engine)
            st = engine.last_run_stats
        finally:
            engine.close()
        assert st["mode"] == "sharded"
        assert st["rollbacks"] >= 24
        assert seen - {"m"} == tags
        assert _fingerprint(proto) == columnar_256

    def test_stats_shape(self, storm_stream):
        engine = ShardedEngine(batch_size=256, workers=2)
        _storm_run(storm_stream, engine)
        st = engine.last_run_stats
        assert st["timing"].keys() == {
            "worker_compute_seconds",
            "transport_wait_seconds",
            "parent_fold_seconds",
        }
        assert all(v >= 0.0 for v in st["timing"].values())
        # The workers really computed something, and it was shipped.
        assert st["timing"]["worker_compute_seconds"] > 0.0
        assert len(st["per_window"]) == st["windows"]
        for entry in st["per_window"]:
            assert entry.keys() == {
                "window",
                "worker_compute_seconds",
                "transport_wait_seconds",
                "parent_fold_seconds",
                "controls",
            }
            assert entry["worker_compute_seconds"] >= 0.0
        assert sum(
            e["worker_compute_seconds"] for e in st["per_window"]
        ) == pytest.approx(st["timing"]["worker_compute_seconds"])
        assert st["shipment"].keys() == {"cached", "chunks", "bytes", "seconds"}
        assert st["shipment"]["cached"] is False
        assert st["shipment"]["chunks"] == 1
        assert st["shipment"]["bytes"] == 24 * len(storm_stream)
        assert st["shipment"]["seconds"] > 0.0
        # format_stats renders without raising and names every phase.
        text = engine.format_stats()
        assert "2 workers" in text
        assert "worker compute" in text
        assert "stream shipment: cold, 1 chunks" in text

    def test_single_worker_fallback_dict(self, storm_stream, columnar_256):
        engine = ShardedEngine(batch_size=256, workers=1)
        proto = _storm_run(storm_stream, engine)
        stats = engine.last_run_stats
        # The fallback marker survives the run-stats refresh (which adds
        # engine/items/seconds/windows to every completed run).
        assert stats["mode"] == "fallback"
        assert stats["reason"] == "single worker"
        assert stats["engine"] == "sharded"
        assert _fingerprint(proto) == columnar_256


def _warm_coordinator():
    """A coordinator mid-run, with a populated sample set and epoch."""
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE), seed=SEED
    )
    proto.run(round_robin(zipf_stream(2000, random.Random(0), alpha=1.2), SITES))
    return proto.coordinator, proto.network.counters


def _regular_pack(keys):
    keys = np.asarray(keys, dtype="float64")
    return MessagePack(
        regular_idents=900_000 + np.arange(len(keys), dtype="int64"),
        regular_weights=np.ones(len(keys), dtype="float64"),
        regular_keys=keys,
    )


class TestRecoverySnapshots:
    """The window-boundary rewind points lockstep recovery uses."""

    def test_snapshot_restore_roundtrip(self):
        coord, _ = _warm_coordinator()
        saved = coord.snapshot_state()
        thr = coord.sample_set.threshold
        mutating = _regular_pack([thr * 1.001, thr * 1.002, thr * 1.003])
        coord.on_message_pack(0, mutating)
        assert coord.snapshot_state() != saved
        coord.restore_state(saved)
        assert coord.snapshot_state() == saved
        assert coord.sample_set.threshold == thr

    def test_snapshot_is_detached_from_live_state(self):
        # Folding after a snapshot must not reach back into it: the
        # saved tuple is the rewind point, not a view of the live sets.
        coord, _ = _warm_coordinator()
        saved = coord.snapshot_state()
        copy = coord.snapshot_state()
        thr = coord.sample_set.threshold
        coord.on_message_pack(0, _regular_pack([thr * 1.001, thr * 1.002]))
        assert saved == copy

    def test_refold_after_restore_is_identical(self):
        # Recovery retries a window's fold from its rewind point; the
        # retry must land on exactly the state the first fold reached.
        coord, _ = _warm_coordinator()
        thr = coord.sample_set.threshold
        pack = _regular_pack([thr * 1.001, thr * 1.002, thr * 0.5])
        start = coord.snapshot_state()
        first = coord.on_message_pack(0, pack)
        end = coord.snapshot_state()
        coord.restore_state(start)
        assert coord.on_message_pack(0, pack) == first
        assert coord.snapshot_state() == end

    def test_restore_rewinds_early_key_draws(self):
        # Early items draw coordinator RNG in fold order, so a retried
        # fold only matches if the RNG position is rewound too.
        coord, _ = _warm_coordinator()
        pack = MessagePack(
            early_idents=np.array([7, 8], dtype="int64"),
            early_weights=np.array([2.0, 3.0], dtype="float64"),
            early_levels=np.array([1, 1], dtype="int64"),
        )
        start = coord.snapshot_state()
        first = coord.on_message_pack(0, pack)
        end = coord.snapshot_state()
        assert end != start
        coord.restore_state(start)
        assert coord.on_message_pack(0, pack) == first
        assert coord.snapshot_state() == end

    def test_restore_rewinds_epoch_crossing_fold(self):
        # A pack that drags the threshold across epoch brackets fires an
        # EPOCH_UPDATE broadcast; rewinding must undo the epoch too, and
        # the retry must fire the same broadcast again.
        coord, _ = _warm_coordinator()
        epoch = coord.epochs.epoch
        big = coord.epochs.r ** (epoch + 3)
        pack = _regular_pack([big, big * 2, big * 3, big * 4])
        start = coord.snapshot_state()
        first = coord.on_message_pack(0, pack)
        assert first  # the crossing broadcast
        assert coord.epochs.epoch > epoch
        end = coord.snapshot_state()
        coord.restore_state(start)
        assert coord.epochs.epoch == epoch
        assert coord.on_message_pack(0, pack) == first
        assert coord.snapshot_state() == end

    def test_counters_snapshot_restore_roundtrip(self):
        _, counters = _warm_coordinator()
        saved_state = counters.snapshot_state()
        saved_view = counters.snapshot()
        counters.record_upstream(Message(EARLY, (1, 2.0)))
        counters.record_upstream_pack(_regular_pack([1.0, 2.0]))
        assert counters.snapshot() != saved_view
        counters.restore_state(saved_state)
        assert counters.snapshot() == saved_view


# ---------------------------------------------------------------------------
# 2. Fallbacks
# ---------------------------------------------------------------------------


class _UnshardableSite(SiteAlgorithm):
    shardable = False

    def on_item(self, item):
        return []

    def on_control(self, message):
        pass


class TestShardedFallbacks:
    def test_single_worker_runs_in_process(self):
        stream = _stream(n=3000)
        engine = ShardedEngine(batch_size=512, workers=1)
        proto = _run(stream, engine)
        stats = engine.last_run_stats
        # The fallback marker survives the run-stats refresh (PR 7 adds
        # engine/items/seconds/windows to every completed run).
        assert stats["mode"] == "fallback"
        assert stats["reason"] == "single worker"
        assert stats["engine"] == "sharded" and stats["items"] == 3000
        assert _fingerprint(proto) == _fingerprint(
            _run(stream, ColumnarEngine(batch_size=512))
        )

    def test_numpy_free_fallback_matches_batched_fallback(self, monkeypatch):
        import repro.core.site as site_mod
        import repro.runtime.batched as batched_mod
        import repro.runtime.columnar as columnar_mod
        import repro.runtime.sharded as sharded_mod
        import repro.stream.item as item_mod

        stream = _stream(n=3000, seed=5)
        for mod in (site_mod, batched_mod, columnar_mod, sharded_mod, item_mod):
            monkeypatch.setattr(mod, "_np", None)
        batched = _fingerprint(_run(stream, "batched"))
        engine = ShardedEngine(workers=4)
        proto = _run(stream, engine)
        assert engine.last_run_stats["reason"] == "numpy unavailable"
        assert _fingerprint(proto) == batched

    def test_missing_shared_memory_falls_back_to_columnar(self, monkeypatch):
        import repro.runtime.sharded as sharded_mod

        stream = _stream(n=3000, seed=6)
        monkeypatch.setattr(sharded_mod, "_shared_memory", None)
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = _run(stream, engine)
        assert engine.last_run_stats["mode"] == "fallback"
        assert engine.last_run_stats["reason"] == "shared memory unavailable"
        assert engine._pool is None  # no worker was spawned
        assert _fingerprint(proto) == _fingerprint(
            _run(stream, ColumnarEngine(batch_size=512))
        )

    def test_traced_network_falls_back_and_traces_identically(self):
        stream = _stream(n=3000, seed=9)
        reference_proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=ColumnarEngine(batch_size=512),
        )
        reference_trace = MessageTrace.attach(reference_proto.network)
        reference_proto.run(stream)
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        trace = MessageTrace.attach(proto.network)
        proto.run(stream)
        assert engine.last_run_stats["reason"] == (
            "network delivery is instrumented"
        )
        assert trace.events == reference_trace.events
        assert _fingerprint(proto) == _fingerprint(reference_proto)

    def test_non_shardable_site_falls_back(self):
        stream = _stream(n=500)
        engine = ShardedEngine(batch_size=256, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[2] = _UnshardableSite()
        proto.run(stream)
        assert engine.last_run_stats["reason"] == "non-shardable site"

    def test_get_engine_workers_validation(self):
        engine = get_engine("sharded", batch_size=2048, workers=3)
        assert isinstance(engine, ShardedEngine)
        assert (engine.batch_size, engine.workers) == (2048, 3)
        with pytest.raises(ConfigurationError, match="does not take workers"):
            get_engine("columnar", workers=2)
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            get_engine(ShardedEngine(), workers=2)
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            ShardedEngine(workers=0)


# ---------------------------------------------------------------------------
# 3. Worker failure: tracebacks surface, nothing leaks
# ---------------------------------------------------------------------------


class FaultySite(SiteAlgorithm):
    """Picklable stub that works for a while, then raises mid-window."""

    def __init__(self, fail_after: int) -> None:
        self.fail_after = fail_after
        self.seen = 0

    def on_item(self, item):
        return []

    def on_columns(self, idents, weights, prep=None):
        self.seen += len(weights)
        if self.seen > self.fail_after:
            raise RuntimeError("faulty-site-exploded")
        return ()

    def on_control(self, message):
        pass


class TestWorkerFailure:
    def _leaked_segments(self):
        return set(glob.glob("/dev/shm/psm_*"))

    def test_worker_exception_surfaces_traceback_without_orphans(self):
        stream = _stream(n=4000)
        before = self._leaked_segments()
        engine = ShardedEngine(batch_size=512, workers=2)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        # Site 6 sees n / k = 500 arrivals; fail partway through them.
        proto.network.sites[6] = FaultySite(fail_after=250)
        with pytest.raises(ShardedWorkerError) as excinfo:
            proto.run(stream)
        # The original worker traceback (site line included) made it up.
        assert "faulty-site-exploded" in str(excinfo.value)
        assert "on_columns" in excinfo.value.worker_traceback
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []
        assert self._leaked_segments() <= before

    def test_failure_in_first_window_still_cleans_up(self):
        stream = _stream(n=2000)
        before = self._leaked_segments()
        engine = ShardedEngine(batch_size=256, workers=3)
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[0] = FaultySite(fail_after=0)
        with pytest.raises(ShardedWorkerError):
            proto.run(stream)
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []
        assert self._leaked_segments() <= before


# ---------------------------------------------------------------------------
# 4. MessagePack wire form round trip
# ---------------------------------------------------------------------------


def _counter_fingerprint(pack):
    counters = MessageCounters()
    counters.record_upstream_pack(pack)
    return counters.snapshot()


class TestPackWireForm:
    @given(
        early=st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40),
                st.floats(
                    min_value=1e-3,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(0, 60),
            ),
            max_size=8,
        ),
        regular=st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40),
                st.floats(
                    min_value=1e-3,
                    max_value=1e12,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.floats(
                    min_value=1e-6,
                    max_value=1e15,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(0, 15),
            ),
            max_size=8,
        ),
        kind=st.sampled_from([REGULAR, SWR_SAMPLE]),
        with_extra=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_to_arrays_round_trip(self, early, regular, kind, with_extra):
        pack = MessagePack(
            early_idents=(
                np.array([e[0] for e in early], dtype=np.int64)
                if early
                else None
            ),
            early_weights=(
                np.array([e[1] for e in early], dtype=np.float64)
                if early
                else None
            ),
            early_levels=(
                np.array([e[2] for e in early], dtype=np.int64)
                if early
                else None
            ),
            regular_idents=(
                np.array([r[0] for r in regular], dtype=np.int64)
                if regular
                else None
            ),
            regular_weights=(
                np.array([r[1] for r in regular], dtype=np.float64)
                if regular
                else None
            ),
            regular_keys=(
                np.array([r[2] for r in regular], dtype=np.float64)
                if regular
                else None
            ),
            regular_kind=kind,
            regular_extra=(
                np.array([r[3] for r in regular], dtype=np.int64)
                if regular and with_extra
                else None
            ),
        )
        back = MessagePack.from_arrays(*pack.to_arrays())
        assert back.messages() == pack.messages()
        assert back.regular_kind == pack.regular_kind
        assert _counter_fingerprint(back) == _counter_fingerprint(pack)

    def test_from_arrays_rejects_unknown_columns(self):
        with pytest.raises(ValueError, match="unknown MessagePack columns"):
            MessagePack.from_arrays(REGULAR, {"bogus": np.zeros(1)})

    def test_from_arrays_rejects_ragged_halves(self):
        with pytest.raises(ValueError, match="lengths disagree"):
            MessagePack.from_arrays(
                REGULAR,
                {
                    "early_idents": np.zeros(2, dtype=np.int64),
                    "early_weights": np.zeros(3),
                    "early_levels": np.zeros(2, dtype=np.int64),
                },
            )

    def test_from_arrays_rejects_incomplete_halves(self):
        with pytest.raises(ValueError, match="incomplete regular half"):
            MessagePack.from_arrays(
                REGULAR,
                {"regular_idents": [1], "regular_weights": [1.0]},
            )
        with pytest.raises(ValueError, match="incomplete early half"):
            MessagePack.from_arrays(
                REGULAR,
                {"early_idents": [1], "early_weights": [1.0]},
            )
        with pytest.raises(ValueError, match="regular_extra requires"):
            MessagePack.from_arrays(SWR_SAMPLE, {"regular_extra": [0]})

    @pytest.mark.parametrize(
        "columns",
        [
            {
                "regular_idents": np.zeros((2, 2), dtype=np.int64),
                "regular_weights": np.ones((2, 2)),
                "regular_keys": np.ones((2, 2)),
            },
            {
                "early_idents": [[1], [2]],
                "early_weights": [[1.0], [2.0]],
                "early_levels": [[0], [0]],
            },
            {
                "regular_idents": [1, 2],
                "regular_weights": [1.0, 2.0],
                "regular_keys": [3.0, 4.0],
                "regular_extra": [[0, 1], [1, 0]],
            },
        ],
        ids=["regular", "early", "extra"],
    )
    def test_from_arrays_rejects_columns_that_are_not_1d(self, columns):
        with pytest.raises(PackWireError, match="not 1-D"):
            MessagePack.from_arrays(REGULAR, columns)

    def test_decode_classifies_a_2d_inline_pack_as_poison(self):
        # Before reaching a coordinator fold (where a 2-D REGULAR pack
        # crashes with a bare TypeError), the wire boundary rejects it
        # and the supervisor gets a classified fault.
        from repro.runtime.sharded import _WorkerFault

        handle = SimpleNamespace(index=0, site_lo=0, site_hi=4, ring=None)
        square = {
            "regular_idents": np.zeros((2, 2), dtype=np.int64),
            "regular_weights": np.ones((2, 2)),
            "regular_keys": np.ones((2, 2)),
        }
        with pytest.raises(_WorkerFault) as excinfo:
            ShardedEngine(workers=2)._decode(handle, (1, "q", REGULAR, square), 5)
        assert excinfo.value.fault_class == "poison"
        assert excinfo.value.window == 5

    @pytest.mark.parametrize(
        "entry",
        [(0, "zz", 1), (0, "<i8", 1.5), (0.5, "<i8", 1), (0, "<i8")],
        ids=[
            "unknown-dtype",
            "fractional-count",
            "fractional-offset",
            "short-entry",
        ],
    )
    def test_read_from_rejects_malformed_spec_entries(self, entry):
        spec = {
            "regular_idents": entry,
            "regular_weights": (8, "<f8", 1),
            "regular_keys": (16, "<f8", 1),
        }
        with pytest.raises(PackWireError, match="regular_idents"):
            MessagePack.read_from(bytearray(64), REGULAR, spec)

    @pytest.mark.parametrize(
        "ring_off,tag", [(0, "p"), (400, "q")], ids=["ring", "inline"]
    )
    def test_worker_encode_parent_decode_round_trip(self, ring_off, tag):
        # A pack that fits the ring's remaining space goes as a ring
        # descriptor ("p"); one that does not rides inline ("q").
        # Either way the parent decodes a pack equal to the original.
        from multiprocessing import shared_memory

        from repro.runtime.sharded import _WorkerShard, _unlink_segments

        pack = MessagePack(
            early_idents=np.array([7, 8, 9], dtype=np.int64),
            early_weights=np.array([2.0, 3.0, 5.0]),
            early_levels=np.array([1, 1, 2], dtype=np.int64),
            regular_idents=np.arange(5, dtype=np.int64),
            regular_weights=np.linspace(1.0, 2.0, 5),
            regular_keys=np.linspace(10.0, 20.0, 5),
        )
        ring = shared_memory.SharedMemory(create=True, size=512)
        try:
            shard = object.__new__(_WorkerShard)
            shard.metrics = None
            shard.ring_view = memoryview(ring.buf)
            shard.ring_off = ring_off
            shard.ring_limit = 512  # 112 bytes left at 400 < the pack's 192
            descriptor = shard._encode(3, pack)
            assert descriptor[:2] == (3, tag)
            assert shard.ring_off == (192 if tag == "p" else ring_off)
            handle = SimpleNamespace(index=0, site_lo=0, site_hi=4, ring=ring)
            back = ShardedEngine(workers=2)._decode(handle, descriptor)
            assert back.messages() == pack.messages()
            assert _counter_fingerprint(back) == _counter_fingerprint(pack)
            del back
            shard.ring_view = None
        finally:
            _unlink_segments([ring])

    def test_from_arrays_coerces_lists(self):
        pack = MessagePack.from_arrays(
            REGULAR,
            {
                "regular_idents": [1, 2],
                "regular_weights": [0.5, 2.0],
                "regular_keys": [3.0, 4.0],
            },
        )
        assert pack.regular_idents.dtype == np.int64
        assert len(pack.messages()) == 2


# ---------------------------------------------------------------------------
# 5. Shard slice views
# ---------------------------------------------------------------------------


class TestShardSliceView:
    def test_window_order_matches_columnar_grouping(self):
        from repro.runtime.batched import window_order

        rng = np.random.default_rng(5)
        assignment = rng.integers(0, 7, size=500)
        weights = rng.random(500) + 0.5
        idents = np.arange(500, dtype=np.int64)
        view = ShardSliceView.from_columns(assignment, weights, idents, 2, 5)
        lo, hi = 100, 350
        i0, i1 = view.window_bounds(lo, hi)
        site_ids, starts, ends, idents_sorted, weights_sorted = (
            view.window_order(i0, i1)
        )
        # Reference: the full-window grouping the columnar engine does.
        order, sites_sorted, run_starts, run_ends = window_order(
            assignment[lo:hi]
        )
        positions = order + lo
        expected = {}
        for start, end in zip(run_starts, run_ends):
            sid = int(sites_sorted[start])
            if 2 <= sid < 5:
                expected[sid] = positions[start:end]
        assert site_ids == sorted(expected)
        for sid, start, end in zip(site_ids, starts, ends):
            assert idents_sorted[start:end].tolist() == (
                idents[expected[sid]].tolist()
            )
            assert weights_sorted[start:end].tolist() == (
                weights[expected[sid]].tolist()
            )

    @pytest.mark.parametrize("bounds", [[500], [1, 250, 499], [120, 120, 400]])
    def test_from_chunks_matches_from_columns(self, bounds):
        rng = np.random.default_rng(6)
        assignment = rng.integers(0, 7, size=500)
        weights = rng.random(500) + 0.5
        idents = rng.integers(0, 1 << 40, size=500)
        whole = ShardSliceView.from_columns(assignment, weights, idents, 2, 5)
        cuts = [0] + bounds + [500]
        chunks = [
            (lo, assignment[lo:hi], weights[lo:hi], idents[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
        ]
        view = ShardSliceView.from_chunks(chunks, len(whole), 2, 5)
        for column in ("positions", "sites", "weights", "idents"):
            assert getattr(view, column).tolist() == (
                getattr(whole, column).tolist()
            )

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_from_chunks_rejects_a_wrong_row_count(self, delta):
        assignment = np.array([0, 1, 2, 1, 0])
        chunks = [(0, assignment, np.ones(5), np.arange(5))]
        with pytest.raises(ConfigurationError, match="rows"):
            ShardSliceView.from_chunks(chunks, 2 + delta, 1, 2)

    def test_shard_views_partition_the_stream(self):
        stream = ColumnarStream.from_distributed(_stream(n=1000))
        views = stream.shard_views(3)
        assert [v.site_lo for v in views] == [0, 2, 5]
        assert [v.site_hi for v in views] == [2, 5, 8]
        assert sum(len(v) for v in views) == len(stream)
        recovered = np.sort(np.concatenate([v.positions for v in views]))
        assert recovered.tolist() == list(range(len(stream)))

    def test_shard_views_validation(self):
        stream = ColumnarStream.from_distributed(_stream(n=100))
        with pytest.raises(ConfigurationError):
            stream.shard_views(0)
        with pytest.raises(ConfigurationError):
            stream.shard_views(9)


# ---------------------------------------------------------------------------
# 6. CLI + driver passthrough
# ---------------------------------------------------------------------------


class TestShardedPlumbing:
    def test_cli_workers_requires_sharded(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--workers requires"):
            main(["swor", "--items", "100", "--workers", "2"])

    def test_cli_sharded_smoke(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "swor",
                    "--items",
                    "2000",
                    "--sites",
                    "6",
                    "--engine",
                    "sharded",
                    "--workers",
                    "2",
                    "--batch-size",
                    "512",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "messages=" in out

    def test_driver_sharded_passthrough_matches_columnar(self):
        from repro.query import MultiQueryDriver, SubsetSumQuery

        stream = _stream(n=4000, seed=13)
        queries = [
            SubsetSumQuery("total", sample_size=8),
            SubsetSumQuery(
                "evens",
                predicate=lambda item: item.ident % 2 == 0,
                sample_size=8,
            ),
        ]

        def answers(engine):
            driver = MultiQueryDriver(
                queries, num_sites=SITES, seed=1, engine=engine
            )
            result = driver.run(stream)
            return {
                name: (answer.value, answer.ci_low, answer.ci_high)
                for name, answer in result.answers.items()
            }

        assert answers("sharded") == answers("columnar")

    def test_driver_rejects_unknown_engine(self):
        from repro.query import MultiQueryDriver, SubsetSumQuery

        with pytest.raises(ConfigurationError, match="sharded"):
            MultiQueryDriver(
                [SubsetSumQuery("t", sample_size=4)],
                num_sites=4,
                engine="warp-drive",
            )
