"""Chaos suite: injected faults against the sharded runtime.

What is covered:

1. **FaultPlan semantics** — parse/str round-trips, retirement on
   fire, the worker wire form, respawn-failure consumption, and the
   seeded single-fault generator.
2. **Lockstep recovery** — every worker-side fault kind, across worker
   and window positions: the run stays bit-identical to the columnar
   engine (samples AND message counters), finishes in ``"sharded"``
   mode with the expected fault class and restart count, and leaks no
   processes or shared-memory segments.
3. **Exhaustion** — a zero restart budget or injected respawn failures
   walk the ladder to the in-process columnar engine; the run is still
   bit-identical and never hangs.
4. **Error surface** — ``ShardedWorkerError``'s structured context and
   message format, pinned (dashboards and scripts parse it).
5. **Property** — a seeded, uniformly drawn single fault (hypothesis)
   always yields a bit-identical recovered run.

Every fault here is declarative and seeded (see
:mod:`repro.faults`): no wall-clock triggers, no global RNG, so a
failing example replays exactly.
"""

from __future__ import annotations

import glob
import multiprocessing
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core import DistributedWeightedSWOR, SworConfig
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    corrupt_descriptors,
    fault_action,
    parse_fault_plan,
)
from repro.runtime import ColumnarEngine, ShardedEngine, ShardedWorkerError
from repro.runtime.interfaces import SiteAlgorithm
from repro.stream import round_robin, zipf_stream

np = pytest.importorskip("numpy")

SITES = 8
SAMPLE = 4
SEED = 3
ITEMS = 12_000
BATCH = 1024
WORKERS = 3
#: Windows in the run above (ceil(ITEMS / BATCH)); plans target [0, 4).
TIMEOUT = 2.0


def _stream(n=ITEMS, seed=0, sites=SITES):
    return round_robin(zipf_stream(n, random.Random(seed), alpha=1.2), sites)


def _run(engine, n=ITEMS):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=SITES, sample_size=SAMPLE),
        seed=SEED,
        engine=engine,
    )
    proto.run(_stream(n))
    return (
        [(i.ident, i.weight, k) for i, k in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


_REFERENCE = {}


def _reference(n=ITEMS):
    """The fault-free columnar fingerprint every chaos run must match."""
    if n not in _REFERENCE:
        _REFERENCE[n] = _run(ColumnarEngine(batch_size=BATCH), n)
    return _REFERENCE[n]


def _chaos_run(fault_plan, n=ITEMS, **kwargs):
    engine = ShardedEngine(
        batch_size=BATCH,
        workers=WORKERS,
        fault_plan=fault_plan,
        worker_timeout=TIMEOUT,
        **kwargs,
    )
    try:
        fingerprint = _run(engine, n)
        stats = engine.last_run_stats
    finally:
        engine.close()
    return fingerprint, stats


class FaultySite(SiteAlgorithm):
    """A site whose columnar pass raises — drives the ``"error"``
    fault class (module-level so it pickles into spawn workers)."""

    def on_item(self, item):
        return []

    def on_columns(self, idents, weights, prep=None):
        raise RuntimeError("faulty-site-exploded")

    def on_control(self, message):
        pass


def _assert_no_orphans(before):
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []
    assert set(glob.glob("/dev/shm/psm_*")) <= before


# ---------------------------------------------------------------------------
# 1. FaultPlan semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_str_round_trip(self):
        text = "kill:1:2,corrupt:0:3,respawn:1:2"
        plan = parse_fault_plan(text)
        assert str(plan) == text
        assert plan.entries[0] == FaultSpec("kill", 1, 2)
        assert parse_fault_plan(str(plan)) == plan

    @pytest.mark.parametrize(
        "bad", ["boom:0:0", "kill:0", "kill:a:0", "kill:-1:0", "kill:0:-1"]
    )
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(bad)

    def test_wire_for_excludes_other_workers_and_respawn(self):
        plan = parse_fault_plan("kill:1:2,drop:0:1,respawn:1:3")
        assert plan.wire_for(1) == (("kill", 2),)
        assert plan.wire_for(0) == (("drop", 1),)
        assert plan.wire_for(2) == ()

    def test_mark_fired_retires_window_prefix(self):
        plan = parse_fault_plan("kill:1:2,corrupt:1:5,drop:0:2")
        plan.mark_fired(1, 2)
        assert plan.wire_for(1) == (("corrupt", 5),)
        assert plan.wire_for(0) == (("drop", 2),)
        plan.mark_fired(1, None)  # retire all of worker 1's entries
        assert plan.wire_for(1) == ()

    def test_mark_fired_keeps_respawn_entries(self):
        plan = parse_fault_plan("kill:1:2,respawn:1:1")
        plan.mark_fired(1, None)
        assert plan.take_respawn_failure(1) is True
        assert plan.take_respawn_failure(1) is False

    def test_take_respawn_failure_counts_down(self):
        plan = parse_fault_plan("respawn:0:2")
        assert plan.take_respawn_failure(0) is True
        assert plan.take_respawn_failure(0) is True
        assert plan.take_respawn_failure(0) is False
        assert plan.take_respawn_failure(1) is False

    def test_single_is_seeded_and_in_range(self):
        a = FaultPlan.single(7, workers=3, windows=4)
        assert a == FaultPlan.single(7, workers=3, windows=4)
        (spec,) = a.entries
        assert spec.kind in FAULT_KINDS
        assert 0 <= spec.worker < 3
        assert 0 <= spec.window < 4

    def test_clone_is_independent(self):
        plan = parse_fault_plan("kill:1:2")
        clone = plan.clone()
        clone.mark_fired(1, None)
        assert plan.wire_for(1) == (("kill", 2),)

    def test_fault_action_matches_kind_and_window(self):
        faults = (("kill", 2), ("corrupt", 3))
        assert fault_action(faults, 2, ("kill", "hang")) == "kill"
        assert fault_action(faults, 3, ("kill", "hang")) is None
        assert fault_action(faults, 3, ("corrupt", "truncate")) == "corrupt"
        assert fault_action(None, 2, ("kill",)) is None

    def test_corrupt_descriptors_always_yields_a_mangled_pack(self):
        # No pack descriptors at all: a forged undecodable one appears.
        forged = corrupt_descriptors([], "corrupt")
        assert forged and forged[0][1] == "q"
        # A "q" descriptor loses a column under corrupt mode.
        cols = {"regular_idents": [1], "regular_weights": [2.0]}
        (mangled,) = corrupt_descriptors([(0, "q", "regular", cols)], "corrupt")
        assert len(mangled[3]) == len(cols) - 1


# ---------------------------------------------------------------------------
# 2. Lockstep recovery: bit-identical across every fault kind
# ---------------------------------------------------------------------------


class TestLockstepRecovery:
    KIND_TO_CLASS = {
        "kill": "crash",
        "hang": "hang",
        "drop": "hang",  # a dropped send manifests as a missed deadline
        "corrupt": "poison",
        "truncate": "poison",
    }

    @pytest.mark.parametrize("kind", sorted(KIND_TO_CLASS))
    def test_single_fault_recovers_bit_identical(self, kind):
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run(f"{kind}:1:2")
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 1
        assert [f["fault_class"] for f in stats["faults"]] == [
            self.KIND_TO_CLASS[kind]
        ]
        assert stats["faults"][0]["worker"] == 1
        assert stats["faults"][0]["window"] == 2
        assert "degraded_to" not in stats
        _assert_no_orphans(before)

    @pytest.mark.parametrize("kind", ["corrupt", "truncate"])
    def test_poisoned_inline_pack_recovers(self, shard_ring_limit, kind):
        # With no ring space every pack rides inline over the pipe as a
        # "q" descriptor, so the wire fault mangles inline columns; the
        # parent's validation still classifies it as poison.
        shard_ring_limit(0)
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run(f"{kind}:1:2")
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 1
        assert [f["fault_class"] for f in stats["faults"]] == ["poison"]
        assert "undecodable pack descriptor" in stats["faults"][0]["detail"]
        _assert_no_orphans(before)

    def test_recovery_reships_a_multi_chunk_stream(self, monkeypatch):
        # A 2,500-row staging segment ships the 12,000-row stream as
        # five chunks (the last partial); the worker killed mid-run is
        # respawned with an empty stream cache, so recovery re-ships
        # all five to it and the run stays bit-identical.
        from repro.runtime import sharded

        monkeypatch.setattr(
            sharded, "_STAGING_BYTES", 2500 * sharded._ROW_BYTES
        )
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run("kill:1:7")
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 1
        assert stats["faults"][0]["window"] == 7
        assert stats["shipment"]["cached"] is False
        assert stats["shipment"]["chunks"] == 5 + 5
        assert stats["shipment"]["bytes"] == 2 * 24 * ITEMS
        _assert_no_orphans(before)

    @pytest.mark.parametrize(
        "plan", ["kill:0:0", "kill:2:3", "hang:2:0", "corrupt:0:3"]
    )
    def test_worker_and_window_positions(self, plan):
        fingerprint, stats = _chaos_run(plan)
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 1

    def test_two_faults_two_recoveries(self):
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run("kill:0:1,corrupt:1:1")
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 2
        assert sorted(f["fault_class"] for f in stats["faults"]) == [
            "crash",
            "poison",
        ]
        _assert_no_orphans(before)

    def test_injected_respawn_failures_then_success(self):
        # Two of the three respawn attempts fail; the third succeeds,
        # so the run still recovers in place.
        fingerprint, stats = _chaos_run("kill:2:1,respawn:2:2")
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 1

    def test_recovery_accounting_and_supervision_stats(self):
        fingerprint, stats = _chaos_run("kill:1:2")
        assert fingerprint == _reference()
        assert stats["supervision"] == {
            "worker_timeout": TIMEOUT,
            "max_worker_restarts": 2,
        }
        assert stats["recovery_seconds"] > 0.0

    def test_fault_free_supervised_run_reports_no_faults(self):
        fingerprint, stats = _chaos_run(None)
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert "faults" not in stats
        assert "degraded_to" not in stats
        assert stats["supervision"]["worker_timeout"] == TIMEOUT


# ---------------------------------------------------------------------------
# 3. Exhaustion: the ladder bottoms out, never hangs
# ---------------------------------------------------------------------------


class TestExhaustion:
    def test_zero_restart_budget_degrades_to_columnar(self):
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run("kill:1:2", max_worker_restarts=0)
        assert fingerprint == _reference()
        assert stats["mode"] == "degraded"
        assert stats["rung"] == "columnar"
        assert "fault recovery exhausted" in stats["reason"]
        assert stats["degraded_to"] == "columnar"
        assert stats["worker_restarts"] == 0
        _assert_no_orphans(before)

    def test_restart_budget_is_shared_across_workers(self):
        # The budget counts restarts of any worker: the first fault
        # recovers in place, the second (on another worker) finds the
        # budget spent and bottoms out on columnar.
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run(
            "kill:1:1,kill:2:2", max_worker_restarts=1
        )
        assert fingerprint == _reference()
        assert stats["mode"] == "degraded"
        assert stats["degraded_to"] == "columnar"
        assert stats["worker_restarts"] == 1
        _assert_no_orphans(before)

    def test_respawn_exhaustion_degrades_to_columnar(self):
        # Every respawn attempt is made to fail: recovery cannot
        # complete, so the ladder bottoms out on the columnar engine.
        before = set(glob.glob("/dev/shm/psm_*"))
        fingerprint, stats = _chaos_run("kill:1:1,respawn:1:9")
        assert fingerprint == _reference()
        assert stats["mode"] == "degraded"
        assert stats["rung"] == "columnar"
        _assert_no_orphans(before)


# ---------------------------------------------------------------------------
# 4. Error surface: structured context, pinned message format
# ---------------------------------------------------------------------------


class TestShardedWorkerError:
    def test_from_fault_message_format_is_pinned(self):
        handle = SimpleNamespace(index=1, site_lo=2, site_hi=4)
        err = ShardedWorkerError.from_fault(handle, "crash", "boom", window=3)
        assert str(err) == "shard worker 1 (sites [2, 4)) at window 3 [crash]: boom"
        assert err.worker == 1
        assert err.shard == (2, 4)
        assert err.window == 3
        assert err.fault_class == "crash"
        assert err.worker_traceback is None

    def test_from_fault_without_window(self):
        handle = SimpleNamespace(index=0, site_lo=0, site_hi=2)
        err = ShardedWorkerError.from_fault(handle, "hang", "silent")
        assert str(err) == "shard worker 0 (sites [0, 2)) [hang]: silent"
        assert err.window is None

    def test_worker_error_class_preserves_traceback(self):
        engine = ShardedEngine(
            batch_size=BATCH, workers=WORKERS, worker_timeout=TIMEOUT
        )
        proto = DistributedWeightedSWOR(
            SworConfig(num_sites=SITES, sample_size=SAMPLE),
            seed=SEED,
            engine=engine,
        )
        proto.network.sites[6] = FaultySite()
        try:
            with pytest.raises(ShardedWorkerError) as excinfo:
                proto.run(_stream(4000))
        finally:
            engine.close()
        err = excinfo.value
        assert err.fault_class == "error"
        assert "faulty-site-exploded" in str(err)
        assert "on_columns" in err.worker_traceback
        assert err.worker is not None
        assert err.shard is not None


# ---------------------------------------------------------------------------
# 5. Property: any seeded single fault recovers bit-identically
# ---------------------------------------------------------------------------


class TestChaosProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seeded_single_fault_is_bit_identical(self, seed):
        plan = FaultPlan.single(seed, workers=WORKERS, windows=4)
        fingerprint, stats = _chaos_run(plan.clone())
        assert fingerprint == _reference()
        assert stats["mode"] == "sharded"
        assert stats["worker_restarts"] == 1
        assert [f["window"] for f in stats["faults"]] == [
            plan.entries[0].window
        ]
