"""Kernel tier: backend parity, registry semantics, engine plumbing.

The contract under test is the one :mod:`repro.kernels` states: every
backend returns **bit-identical** outputs — the same floats, the same
integer counts, the same index sets in the same order — because kernels
never draw randomness, only transform columns whose keys were already
drawn.  Three layers pin it:

1. **Kernel-level parity** on adversarial fixtures — ties exactly at
   the selection cut, saturation storms, empty and singleton packs,
   block-boundary window sizes — between the numpy backend, the numba
   backend's loop logic (run as plain Python via
   :func:`~repro.kernels.python_mirror_backend` on numpy-only
   installs, compiled when numba is present), and ``"numba"`` itself
   when importable.
2. **Engine-level parity** — the columnar and sharded engines produce
   identical samples (hence identical RNG consumption) and identical
   message counters under every backend, at batch size 1 and steady
   state.
3. **Selection semantics** — the ``REPRO_KERNELS`` env var, strict vs
   lenient resolution, ``use_kernels`` scoping, ``get_engine``
   plumbing, and the CLI flag.
"""

from __future__ import annotations

import random

import pytest

from repro import kernels as kernels_mod
from repro.common.errors import ConfigurationError
from repro.core import (
    DistributedWeightedSWOR,
    DistributedWeightedSWR,
    SworConfig,
)
from repro.core.coordinator import SworCoordinator
from repro.extensions import SlidingWindowWeightedSWOR
from repro.kernels import (
    KERNEL_NAMES,
    get_kernels,
    kernel_stats,
    python_mirror_backend,
    reset_default_kernels,
    reset_kernel_stats,
    set_default_kernels,
    set_kernel_registry,
    use_kernels,
)
from repro.kernels import numba_backend, numpy_backend
from repro.net.messages import MessagePack
from repro.runtime import ColumnarEngine, ShardedEngine, get_engine
from repro.stream import round_robin, zipf_stream

np = pytest.importorskip("numpy")

NUMPY = get_kernels("numpy")

#: Every backend whose loops can run here; "python" is the numba
#: backend's logic interpreted (or compiled, when numba is present).
OTHER_BACKENDS = [python_mirror_backend()]
if numba_backend.NUMBA_AVAILABLE:
    OTHER_BACKENDS.append(get_kernels("numba"))

other_backend = pytest.mark.parametrize(
    "backend", OTHER_BACKENDS, ids=lambda b: b.name
)


@pytest.fixture(autouse=True)
def _clean_kernel_state():
    reset_default_kernels()
    yield
    reset_default_kernels()
    set_kernel_registry(None)


# ---------------------------------------------------------------------------
# 1. Kernel-level parity on adversarial fixtures
# ---------------------------------------------------------------------------


def _key_fixtures(rng):
    """Adversarial key columns: ties, plateaus, empties, singletons."""
    dense = np.round(rng.uniform(0.0, 4.0, 200), 1)  # heavy tie mass
    return [
        np.array([], dtype=np.float64),
        np.array([2.5]),
        np.full(17, 3.0),  # every key ties
        np.array([5.0, 1.0, 5.0, 5.0, 2.0, 1.0, 5.0]),
        dense,
        rng.uniform(0.0, 100.0, 513),  # crosses the 256-wide rank block
        np.sort(rng.uniform(0.0, 10.0, 300)),
        np.sort(rng.uniform(0.0, 10.0, 300))[::-1].copy(),
    ]


class TestKernelParity:
    @other_backend
    def test_merge_cut_parity_including_boundary_ties(self, backend):
        rng = np.random.default_rng(42)
        for cand in _key_fixtures(rng):
            for h in (0, 1, 4, 16):
                old = np.round(rng.uniform(0.0, 4.0, h), 1)
                for s in (1, 2, 5, 16):
                    if h + len(cand) < s:
                        continue
                    assert backend.merge_cut(old, cand, s) == NUMPY.merge_cut(
                        old, cand, s
                    )

    @other_backend
    def test_swor_fold_parity(self, backend):
        rng = np.random.default_rng(7)
        for keys in _key_fixtures(rng):
            for threshold in (0.0, 1.0, 2.5, 3.0, 1e9):
                for h in (0, 2, 8):
                    old = np.round(rng.uniform(threshold, threshold + 4.0, h), 1)
                    for s in (1, 4, 10):
                        got = backend.swor_fold_regulars(keys, threshold, old, s)
                        want = NUMPY.swor_fold_regulars(keys, threshold, old, s)
                        assert got[0].tolist() == want[0].tolist()
                        assert got[1].tolist() == want[1].tolist()
                        assert (got[2], got[3]) == (want[2], want[3])

    @other_backend
    def test_swr_min_fold_parity_first_arrival_wins_ties(self, backend):
        rng = np.random.default_rng(3)
        cases = [
            (np.array([0]), np.array([1.0])),
            (np.array([2, 2, 2]), np.array([5.0, 5.0, 5.0])),  # pure ties
            (
                np.array([0, 3, 0, 1, 3, 3, 1]),
                np.array([2.0, 1.0, 2.0, 9.0, 1.0, 0.5, 9.0]),
            ),
        ]
        samplers = rng.integers(0, 6, 400)
        keys = np.round(rng.uniform(0.0, 3.0, 400), 1)
        cases.append((samplers, keys.astype(np.float64)))
        for samplers, keys in cases:
            samplers = samplers.astype(np.int64)
            got = backend.swr_min_fold(samplers, keys, 8)
            want = NUMPY.swr_min_fold(samplers, keys, 8)
            assert got.tolist() == want.tolist()
            # Heads are ascending by sampler and each is that sampler's
            # strict minimum with the earliest arrival breaking ties.
            for head in want.tolist():
                mine = np.flatnonzero(samplers == samplers[head])
                best = mine[np.argmin(keys[mine])]  # argmin = first min
                assert head == best

    @other_backend
    def test_window_dominators_parity(self, backend):
        rng = np.random.default_rng(11)
        for keys in _key_fixtures(rng):
            got = backend.window_dominators(keys)
            want = NUMPY.window_dominators(keys)
            assert got.tolist() == want.tolist()
        # Exact semantics on a case small enough to brute-force.
        keys = np.round(rng.uniform(0.0, 2.0, 300), 1)
        brute = [
            int(sum(keys[j] > keys[i] for j in range(i + 1, len(keys))))
            for i in range(len(keys))
        ]
        assert NUMPY.window_dominators(keys).tolist() == brute

    @other_backend
    def test_compute_levels_parity_at_power_boundaries(self, backend):
        for r in (2, 3, 10):
            exact = [float(r) ** j for j in range(0, 40, 3)]
            nudged = [w * (1.0 - 1e-16) for w in exact] + [
                w * (1.0 + 1e-16) for w in exact
            ]
            weights = np.array(
                [0.5, 1.0, 1.5, float(r) - 1e-9, float(r)] + exact + nudged
            )
            got = backend.compute_levels(weights, r)
            want = NUMPY.compute_levels(weights, r)
            assert got.tolist() == want.tolist()
            # The bracket invariant the scalar path guarantees.
            for w, j in zip(weights.tolist(), want.tolist()):
                assert j == 0 or float(r) ** j <= w
                assert w < float(r) ** (j + 1)

    @other_backend
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_compute_levels_rejects_bad_weights_identically(self, backend, bad):
        weights = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(ConfigurationError) as got:
            backend.compute_levels(weights, 2)
        with pytest.raises(ConfigurationError) as want:
            NUMPY.compute_levels(weights, 2)
        assert str(got.value) == str(want.value)

    @other_backend
    def test_window_split_parity_with_saturation_storm(self, backend):
        rng = np.random.default_rng(5)
        tables = [
            np.zeros(64, dtype=bool),
            np.ones(64, dtype=bool),  # storm: every table level saturated
            rng.integers(0, 2, 64).astype(bool),
        ]
        r = 2.0
        for weights in (
            np.array([], dtype=np.float64),
            np.array([1.0]),
            np.array([1.0, 2.0, 4.0, 8.0, 1024.0, 3.0, 0.25]),
            rng.uniform(0.25, 2.0**20, 500),
            2.0 ** rng.integers(0, 80, 300).astype(np.float64),  # beyond table
        ):
            for heavy_floor in (0.0, -1.0, 1.0, 16.0, 2.0**70):
                for table in tables:
                    got = backend.window_split(weights, r, heavy_floor, table)
                    want = NUMPY.window_split(weights, r, heavy_floor, table)
                    assert got[0].tolist() == want[0].tolist()
                    assert got[1].tolist() == want[1].tolist()
                    assert got[2].tolist() == want[2].tolist()

    @other_backend
    def test_randomized_sweep(self, backend):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(0, 300))
            keys = np.round(rng.uniform(0.0, 8.0, n), rng.integers(0, 3))
            s = int(rng.integers(1, 12))
            h = int(rng.integers(0, s + 1))
            old = np.round(rng.uniform(0.0, 8.0, h), 1)
            threshold = float(rng.uniform(0.0, 4.0))
            got = backend.swor_fold_regulars(keys, threshold, old, s)
            want = NUMPY.swor_fold_regulars(keys, threshold, old, s)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()
            assert (got[2], got[3]) == (want[2], want[3])
            assert (
                backend.window_dominators(keys).tolist()
                == NUMPY.window_dominators(keys).tolist()
            )


# ---------------------------------------------------------------------------
# 2. Engine-level parity
# ---------------------------------------------------------------------------


def _swor_fingerprint(stream, engine, sites=6, sample=5, seed=13):
    proto = DistributedWeightedSWOR(
        SworConfig(num_sites=sites, sample_size=sample),
        seed=seed,
        engine=engine,
    )
    proto.run(stream)
    return (
        [(i.ident, i.weight, k) for i, k in proto.sample_with_keys()],
        proto.counters.snapshot(),
    )


class TestEngineParity:
    @pytest.fixture(scope="class")
    def stream(self):
        return round_robin(
            zipf_stream(6000, random.Random(5), alpha=1.2), 6
        )

    @other_backend
    @pytest.mark.parametrize("batch_size", [1, 64, 1024])
    def test_columnar_parity_across_batch_sizes(
        self, stream, backend, batch_size
    ):
        ref = _swor_fingerprint(
            stream, ColumnarEngine(batch_size=batch_size, kernels="numpy")
        )
        got = _swor_fingerprint(
            stream, ColumnarEngine(batch_size=batch_size, kernels=backend)
        )
        assert got == ref

    @other_backend
    def test_swr_parity(self, stream, backend):
        def fingerprint(kernels):
            proto = DistributedWeightedSWR(
                6,
                5,
                seed=13,
                engine=ColumnarEngine(batch_size=256, kernels=kernels),
            )
            proto.run(stream)
            return (
                [(i.ident, i.weight) for i in proto.sample()],
                proto.counters.snapshot(),
            )

        assert fingerprint(backend) == fingerprint("numpy")

    @other_backend
    def test_sliding_window_parity(self, backend):
        def fingerprint(kernels):
            with use_kernels(kernels):
                sw = SlidingWindowWeightedSWOR(4, random.Random(21))
                rng = np.random.default_rng(2)
                sw.insert_columns(
                    np.arange(700, dtype=np.int64),
                    rng.uniform(0.5, 50.0, 700),
                )
            return [
                (e.index, e.item.ident, e.key, e.dominators)
                for e in sw._entries
            ]

        assert fingerprint(backend) == fingerprint("numpy")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_parity(self, stream, workers):
        ref = _swor_fingerprint(
            stream,
            ColumnarEngine(batch_size=512, kernels=python_mirror_backend()),
        )
        engine = ShardedEngine(batch_size=512, workers=workers, kernels="numpy")
        got = _swor_fingerprint(stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert engine.last_run_stats["kernels"] == "numpy"
        assert got == ref

    @pytest.mark.skipif(
        not numba_backend.NUMBA_AVAILABLE, reason="numba not installed"
    )
    def test_sharded_parity_numba_workers(self, stream):
        ref = _swor_fingerprint(
            stream, ColumnarEngine(batch_size=512, kernels="numpy")
        )
        engine = ShardedEngine(batch_size=512, workers=2, kernels="numba")
        got = _swor_fingerprint(stream, engine)
        assert engine.last_run_stats["mode"] == "sharded"
        assert got == ref

    def test_columnar_run_records_backend_and_counts_calls(self, stream):
        reset_kernel_stats()
        engine = ColumnarEngine(batch_size=512, kernels="numpy")
        _swor_fingerprint(stream, engine)
        assert engine.last_run_stats["kernels"] == "numpy"
        stats = kernel_stats()
        assert ("window_split", "numpy") in stats
        assert ("merge_cut", "numpy") in stats


class TestCoordinatorFusedFold:
    """Packs above the scalar cutoff (> 32 regulars) take the fused
    ``swor_fold_regulars`` kernel; its commit must equal sequential
    per-message delivery on every backend — push path (underfull
    sample), partition path, and the tie-rich fallback alike."""

    def _coordinator(self, s):
        return SworCoordinator(
            SworConfig(num_sites=4, sample_size=s), random.Random(42)
        )

    def _fingerprint(self, coordinator):
        return (
            coordinator.sample_with_keys(),
            coordinator.regular_received,
            coordinator.sample_set.threshold,
        )

    @other_backend
    @pytest.mark.parametrize("s", [3, 64, 200])
    def test_bulk_pack_matches_sequential_per_backend(self, backend, s):
        rng = np.random.default_rng(17)
        keys = np.round(rng.uniform(0.1, 50.0, 100), 1)  # tie-rich
        pack = MessagePack(
            regular_idents=np.arange(100, dtype=np.int64),
            regular_weights=rng.uniform(1.0, 9.0, 100),
            regular_keys=keys,
        )
        reset_kernel_stats()
        with use_kernels(backend):
            bulk = self._coordinator(s)
            bulk.on_message_pack(0, pack)
        if s <= len(keys):  # the partition path actually engaged
            assert ("swor_fold_regulars", backend.name) in kernel_stats()
        seq = self._coordinator(s)
        for message in pack.messages():
            seq.on_message(0, message)
        assert self._fingerprint(bulk) == self._fingerprint(seq)
        with use_kernels("numpy"):
            ref = self._coordinator(s)
            ref.on_message_pack(0, pack)
        assert self._fingerprint(bulk) == self._fingerprint(ref)


# ---------------------------------------------------------------------------
# 3. Selection semantics: registry, env, engines, CLI
# ---------------------------------------------------------------------------


class TestSelection:
    def test_backend_exposes_every_kernel(self):
        for backend in [NUMPY] + OTHER_BACKENDS:
            for name in KERNEL_NAMES:
                assert callable(getattr(backend, name))

    def test_unknown_backend_strict_raises_lenient_warns(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_kernels("bogus")
        with pytest.warns(UserWarning, match="falling back to auto"):
            backend = get_kernels("bogus", strict=False)
        assert backend.name in ("numpy", "numba")

    @pytest.mark.skipif(
        numba_backend.NUMBA_AVAILABLE, reason="numba is installed here"
    )
    def test_explicit_numba_raises_when_missing(self):
        with pytest.raises(ConfigurationError, match="not available"):
            get_kernels("numba")
        with pytest.warns(UserWarning):
            assert get_kernels("numba", strict=False).name == "numpy"

    def test_env_var_drives_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        reset_default_kernels()
        assert kernels_mod.active().name == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "bogus")
        reset_default_kernels()
        with pytest.warns(UserWarning):  # env typos degrade, never crash
            assert kernels_mod.active().name in ("numpy", "numba")

    def test_use_kernels_scopes_and_restores(self):
        before = kernels_mod.active().name
        with use_kernels(python_mirror_backend()) as backend:
            assert backend.name == "python"
            assert kernels_mod.active().name == "python"
        assert kernels_mod.active().name == before
        with use_kernels(None) as backend:  # no override: pass-through
            assert backend.name == before

    def test_set_default_kernels(self):
        assert set_default_kernels("numpy").name == "numpy"
        assert kernels_mod.active().name == "numpy"

    def test_get_engine_plumbs_kernels(self):
        engine = get_engine("columnar", kernels="numpy")
        assert engine._kernels is NUMPY
        assert get_engine("sharded", workers=2, kernels="numpy")._kernels
        with pytest.raises(ConfigurationError, match="does not take"):
            get_engine("reference", kernels="numpy")
        with pytest.raises(ConfigurationError, match="does not take"):
            get_engine("batched", kernels="numpy")
        with pytest.raises(ConfigurationError, match="engine instance"):
            get_engine(ColumnarEngine(), kernels="numpy")

    def test_engine_rejects_bad_backend_at_construction(self):
        with pytest.raises(ConfigurationError):
            ColumnarEngine(kernels="bogus")

    def test_kernel_stats_reset(self):
        reset_kernel_stats()
        NUMPY.merge_cut(np.array([1.0]), np.array([2.0, 3.0]), 2)
        assert kernel_stats()[("merge_cut", "numpy")][0] == 1
        reset_kernel_stats()
        assert ("merge_cut", "numpy") not in kernel_stats()

    def test_registry_export(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        set_kernel_registry(registry)
        NUMPY.merge_cut(np.array([1.0]), np.array([2.0, 3.0]), 2)
        names = registry.metric_names()
        assert "repro_kernel_calls_total" in names
        assert "repro_kernel_seconds" in names
        assert "repro_kernel_backend_info" in names

    def test_cli_kernels_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "swor",
                    "--items",
                    "400",
                    "--engine",
                    "columnar",
                    "--kernels",
                    "numpy",
                ]
            )
            == 0
        )
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--kernels requires"):
            main(["swor", "--items", "10", "--kernels", "numpy"])

    def test_cli_profile_sort(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "swor",
                    "--items",
                    "300",
                    "--engine",
                    "columnar",
                    "--profile",
                    "--profile-sort",
                    "tottime",
                ]
            )
            == 0
        )
        assert "Ordered by: internal time" in capsys.readouterr().err
