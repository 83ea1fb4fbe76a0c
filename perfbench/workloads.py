"""The benchmark's three workloads, driven through the public API only.

Each workload builds its input with :func:`columnar_zipf_stream`
(alpha 1.2, round-robin sites, the workload seed), hands the program
nothing but the generated columns, and runs one of:

* ``swor-narrow``     weighted SWOR, columnar engine, 64 sites, s=16;
* ``multiquery-ckpt`` ``MultiQueryDriver(engine="columnar")`` over eight
  queries with sixteen evenly spaced checkpoints;
* ``sharded-2w``      the ``swor-narrow`` configuration on
  ``get_engine("sharded", workers=2)``.

A run is set up from scratch every time (:meth:`Workload.setup`), so no
array object and no worker pool survives from one run to the next. Its
output is reduced to a fingerprint -- the sampled ``(ident, key)`` pairs
and the counters snapshot, per query on the driver -- that must equal the
fingerprint of an oracle computed once per seed with another engine.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import DistributedWeightedSWOR, MultiQueryDriver, SworConfig, get_engine
from repro.obs import MetricsRegistry
from repro.query.model import (
    FrequencyQuery,
    GroupByQuery,
    HeavyHittersQuery,
    MeanWeightQuery,
    QuantileQuery,
    SubsetSumQuery,
)
from repro.stream.columns import columnar_zipf_stream

import repro.query.driver as _driver_module

#: Zipf exponent of every workload's weights.
ALPHA = 1.2

#: Items in the tiny stream that spawns the sharded worker pool during set-up.
POOL_WARMUP_ITEMS = 4096

#: Residual heavy-hitter threshold of the multi-query workload's eighth query.
HH_EPS = 0.05


class CheckFailed(Exception):
    """A run's output did not match its oracle or an earlier run."""


@dataclass
class Outcome:
    """What one timed run produced."""

    fingerprint: str
    messages_total: int
    words_total: int


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _swor_state(protocol) -> dict:
    """Sampled (ident, key) pairs plus the counters snapshot."""
    pairs = sorted(
        (item.ident, repr(key)) for item, key in protocol.sample_with_keys()
    )
    return {"sample": pairs, "counters": protocol.counters.snapshot()}


def swor_outcome(protocol) -> Outcome:
    counters = protocol.counters
    return Outcome(_digest(_swor_state(protocol)), counters.total, counters.words)


def _mod_predicate(residue: int) -> Callable:
    return lambda item: item.ident % 3 == residue


def _queries(sample_size: int) -> list:
    """Seven SWOR-backed estimators plus residual heavy hitters."""
    return [
        SubsetSumQuery("sum_mod0", predicate=_mod_predicate(0), sample_size=sample_size),
        SubsetSumQuery("sum_mod1", predicate=_mod_predicate(1), sample_size=sample_size),
        SubsetSumQuery("total", sample_size=sample_size),
        QuantileQuery("quantiles", qs=(0.5, 0.9), sample_size=sample_size),
        GroupByQuery("groups", key=lambda item: item.ident % 4, sample_size=sample_size),
        FrequencyQuery("freq", ident=0, relative=True, sample_size=sample_size),
        MeanWeightQuery("mean", sample_size=sample_size),
        HeavyHittersQuery("heavy", eps=HH_EPS),
    ]


def query_protocol(compiled):
    """The weighted SWOR behind one compiled query."""
    tracker = getattr(compiled, "tracker", None)
    return compiled.protocol if tracker is None else tracker.protocol


def driver_outcome(driver, result, checkpoints) -> Outcome:
    per_query = {}
    messages = words = 0
    for compiled in driver.compiled:
        state = _swor_state(query_protocol(compiled))
        per_query[compiled.name] = state
        messages += state["counters"]["total"]
        words += state["counters"]["words"]
    answers = [repr(sorted(result.answers_at(t).items())) for t in checkpoints]
    return Outcome(_digest({"queries": per_query, "answers": answers}), messages, words)


class Prepared:
    """One set-up run, ready to be timed.

    ``run()`` executes it and returns the window boundary times: the
    run's start, then the end of each window. ``outcome()`` reads its
    output. ``networks`` are the program's coordinator/site networks.
    """

    networks: List
    engine = None
    driver = None
    pool_spawn_s: Optional[float] = None

    def run(self) -> List[float]:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _PreparedSwor(Prepared):
    def __init__(self, protocol, stream, engine, pool_spawn_s=None):
        self.protocol = protocol
        self.stream = stream
        self.engine = engine
        self.networks = [protocol.network]
        self.pool_spawn_s = pool_spawn_s

    def run(self):
        times = [time.perf_counter()]

        def on_step(_t):
            times.append(time.perf_counter())

        self.protocol.run(self.stream, on_step=on_step)
        return times

    def outcome(self):
        return swor_outcome(self.protocol)

    def close(self):
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


class _PreparedDriver(Prepared):
    def __init__(self, driver, stream, checkpoints):
        self.driver = driver
        self.stream = stream
        self.checkpoints = checkpoints
        self.networks = [query_protocol(c).network for c in driver.compiled]
        self.result = None

    def run(self):
        # The driver has no per-window callback. Every window starts with
        # one call to ``site_runs``; a pass-through stamps it, one clock
        # read per window -- the same cost as an engine's ``on_step``.
        starts: List[float] = []
        original = _driver_module.site_runs

        def site_runs(window):
            starts.append(time.perf_counter())
            return original(window)

        t0 = time.perf_counter()
        _driver_module.site_runs = site_runs
        try:
            self.result = self.driver.run(self.stream, checkpoints=self.checkpoints)
            for t in self.checkpoints:
                self.result.answers_at(t)
        finally:
            _driver_module.site_runs = original
        end = time.perf_counter()
        # Window i spans from its start to the next window's start.
        return [t0] + starts[1:] + [end]

    def outcome(self):
        return driver_outcome(self.driver, self.result, self.checkpoints)


@dataclass(frozen=True)
class Workload:
    """One named workload: its input shape, program and oracle."""

    name: str
    why: str
    items: int
    sites: int
    sample_size: int
    engine: str = "columnar"
    workers: Optional[int] = None
    num_checkpoints: int = 0
    oracle_engine: str = "batched"
    queries: bool = False

    def build_stream(self, seed: int):
        return columnar_zipf_stream(self.items, self.sites, seed=seed, alpha=ALPHA)

    def checkpoints(self) -> List[int]:
        k = self.num_checkpoints
        return [self.items * i // k for i in range(1, k + 1)]

    def _config(self) -> SworConfig:
        return SworConfig(num_sites=self.sites, sample_size=self.sample_size)

    def setup(self, seed: int, stream, registry: Optional[MetricsRegistry] = None) -> Prepared:
        """Construct the program for one run; spawn its pool if it has one."""
        if self.queries:
            driver = MultiQueryDriver(
                _queries(self.sample_size),
                self.sites,
                seed=seed,
                engine=self.engine,
                registry=registry,
            )
            return _PreparedDriver(driver, stream, self.checkpoints())
        engine = get_engine(self.engine, workers=self.workers)
        protocol = DistributedWeightedSWOR(self._config(), seed=seed, engine=engine)
        pool_spawn_s = None
        if self.workers is not None:
            # The pool spawns on an engine's first run; a tiny throwaway
            # run does that here, so the timed run finds it warm.
            t0 = time.perf_counter()
            warm = DistributedWeightedSWOR(self._config(), seed=seed, engine=engine)
            warm.run(columnar_zipf_stream(POOL_WARMUP_ITEMS, self.sites, seed=seed, alpha=ALPHA))
            pool_spawn_s = time.perf_counter() - t0
        return _PreparedSwor(protocol, stream, engine, pool_spawn_s)

    def oracle(self, seed: int) -> Outcome:
        """The reference outcome for ``seed``, from another engine."""
        stream = self.build_stream(seed)
        if self.queries:
            driver = MultiQueryDriver(
                _queries(self.sample_size),
                self.sites,
                seed=seed,
                engine=self.oracle_engine,
            )
            checkpoints = self.checkpoints()
            result = driver.run(stream, checkpoints=checkpoints)
            return driver_outcome(driver, result, checkpoints)
        protocol = DistributedWeightedSWOR(self._config(), seed=seed, engine=self.oracle_engine)
        protocol.run(stream)
        return swor_outcome(protocol)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="swor-narrow",
            why=(
                "High-rate ingest where the sample rarely changes: site grouping "
                "(window_order) and the site filter (SworSite.on_columns) do the "
                "work and the coordinator is idle."
            ),
            items=4_000_000,
            sites=64,
            sample_size=16,
        ),
        Workload(
            name="multiquery-ckpt",
            why=(
                "One grouping feeds eight coordinators and 16 checkpoint reads "
                "split the windows; loads the query layer (driver fold, "
                "CompiledQuery.answer) and the coordinator fold (on_message_pack)."
            ),
            items=1_000_000,
            sites=64,
            sample_size=64,
            num_checkpoints=16,
            queries=True,
        ),
        Workload(
            name="sharded-2w",
            why=(
                "The only workload that crosses shared-memory transport, "
                "encode/decode and the parent fold; loads runtime.sharded with "
                "two workers, one per core."
            ),
            items=4_000_000,
            sites=64,
            sample_size=16,
            engine="sharded",
            workers=2,
            oracle_engine="columnar",
        ),
    )
}
