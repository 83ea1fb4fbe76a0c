"""Shared fixtures for the test suite.

Statistical tests are seeded and use generous significance levels so the
suite is deterministic in practice; any test that samples uses an
explicit `random.Random` derived from these fixtures.
"""

from __future__ import annotations

import random

import pytest

from repro.stream import Item


@pytest.fixture
def rng() -> random.Random:
    """A fresh deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def tiny_weighted_items() -> list:
    """Five items with distinct weights; ids equal indices."""
    return [Item(i, float(w)) for i, w in enumerate([1, 2, 4, 8, 16])]


@pytest.fixture
def skewed_items(rng) -> list:
    """A 200-item stream where 2 giants dominate."""
    items = [Item(i, rng.uniform(1.0, 3.0)) for i in range(198)]
    items.append(Item(198, 5000.0))
    items.append(Item(199, 8000.0))
    rng.shuffle(items)
    return items


@pytest.fixture
def shard_ring_limit(monkeypatch):
    """Setter that caps the bytes each sharded worker may fill in its
    result ring per window.  Packs past the cap ship inline over the
    pipe (``"q"`` descriptors); the ring segments keep their size.
    Applies to workers spawned after the call, respawns included."""
    from repro.runtime import sharded

    start = sharded._start_worker

    def cap(limit):
        monkeypatch.setattr(
            sharded,
            "_start_worker",
            lambda ctx, index, ring, ring_bytes: start(ctx, index, ring, limit),
        )

    return cap
