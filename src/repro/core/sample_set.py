"""The coordinator's sample set ``S`` — top-``s`` keys with a threshold.

Algorithm 3 ("Add-to-Sample") maintains the invariant that ``S`` holds
the items with the ``s`` largest keys seen by the sampler, and exposes
``u``, the smallest key in a full ``S`` — the quantity whose epoch
bracket drives all site-side filtering.

Two mutation paths share the invariant:

* :meth:`TopKeySample.add` — one ``heapreplace`` per arrival (the
  paper's per-round model);
* :meth:`TopKeySample.merge_columns` — the columnar runtime's bulk
  fold: one ``np.partition`` selects the surviving top-``s`` over the
  old set plus a whole batch of candidates, and the heap is rebuilt
  once.  ``Item`` objects are created only for candidates that
  actually survive.

The sorted query view (:meth:`entries` / :meth:`items`) is computed
once per mutation epoch and cached — checkpoint-heavy runs used to pay
``O(s log s)`` per snapshot, every snapshot.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

try:  # optional: bulk top-s merge for the columnar runtime
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None  # type: ignore[assignment]

from ..common.errors import ConfigurationError
from ..kernels import active as _active_kernels
from ..stream.item import Item

__all__ = ["TopKeySample"]

#: What :meth:`TopKeySample.snapshot_state` returns: heap entries,
#: entry counter, tie-fallback count.
SampleSnapshot = Tuple[List[Tuple[float, int, Item]], int, int]


class TopKeySample:
    """A bounded min-heap of ``(key, item)`` keeping the top ``s`` keys.

    ``threshold`` is the paper's ``u``: the ``s``-th largest key once
    the set is full, and ``0`` before that (matching Algorithm 2's
    initialization ``u <- 0``, which makes every key pass).
    """

    def __init__(self, sample_size: int) -> None:
        if sample_size <= 0:
            raise ConfigurationError(
                f"sample size must be positive, got {sample_size}"
            )
        self.sample_size = sample_size
        self._heap: List[Tuple[float, int, Item]] = []
        self._counter = 0  # tiebreak so equal keys stay heap-comparable
        self._sorted: Optional[List[Tuple[Item, float]]] = None
        #: How often :meth:`merge_columns` hit an ambiguous selection
        #: tie and replayed sequentially.
        self.tie_fallbacks = 0

    def add(self, item: Item, key: float) -> Optional[Item]:
        """Insert ``(item, key)``; evict and return the displaced item.

        Returns ``None`` when nothing was evicted (set was underfull) —
        note an insertion whose key is *below* the threshold still
        enters and immediately evicts itself is impossible here because
        callers filter on ``key > threshold`` first; we defensively
        discard such keys and report the incoming item as displaced.
        """
        entry = (key, self._counter, item)
        self._counter += 1
        if len(self._heap) < self.sample_size:
            heapq.heappush(self._heap, entry)
            self._sorted = None
            return None
        if key <= self._heap[0][0]:
            return item
        evicted = heapq.heapreplace(self._heap, entry)
        self._sorted = None
        return evicted[2]

    # -- bulk path (columnar runtime) ----------------------------------

    def heap_keys(self) -> _np.ndarray:
        """The current keys as a float64 column (heap order — every
        consumer treats it as a multiset).  The kernel-tier fold's view
        of ``S``; ``len(heap) <= s`` keeps this cheap per pack."""
        return _np.fromiter(
            (e[0] for e in self._heap), dtype=_np.float64, count=len(self._heap)
        )

    def merged_threshold(self, keys: Any) -> float:
        """The threshold ``u`` that :meth:`merge_columns` with these
        candidate ``keys`` would leave behind — computed *without*
        mutating, so callers (the coordinator's pack path) can decide
        whether the merge crosses an epoch boundary before committing.
        """
        if len(self._heap) + len(keys) < self.sample_size:
            return 0.0
        cut, _ = _active_kernels().merge_cut(
            self.heap_keys(),
            _np.asarray(keys, dtype=_np.float64),
            self.sample_size,
        )
        return cut

    def merge_columns(self, idents: Any, weights: Any, keys: Any) -> int:
        """Fold a batch of candidate columns into ``S`` in one rebuild.

        Candidates must already be strictly above the current
        :attr:`threshold` (callers mask first).  The final set equals
        what per-candidate :meth:`add` calls in arrival order would
        produce — sequential insertion into a top-``s`` structure keeps
        exactly the ``s`` largest keys of the union, which is what the
        single ``np.partition`` selects here — while touching the heap
        once and building ``Item`` objects only for survivors.  On key
        ties at the selection boundary (measure-zero for continuous
        keys) it falls back to exact sequential insertion.  Returns the
        number of candidates that ended up in the set.
        """
        n = len(keys)
        if n == 0:
            return 0
        heap = self._heap
        free = self.sample_size - len(heap)
        if n <= free:
            for i in range(n):
                heapq.heappush(
                    heap,
                    (
                        float(keys[i]),
                        self._counter,
                        Item(int(idents[i]), float(weights[i])),
                    ),
                )
                self._counter += 1
            self._sorted = None
            return n
        cand = _np.asarray(keys, dtype=_np.float64)
        cut, at_cut = _active_kernels().merge_cut(
            self.heap_keys(), cand, self.sample_size
        )
        if at_cut != 1:
            # Ambiguous boundary — replay the exact per-item semantics.
            self.tie_fallbacks += 1
            kept = 0
            for i in range(n):
                key = float(cand[i])
                if key > self.threshold:
                    self.add(Item(int(idents[i]), float(weights[i])), key)
                    kept += 1
            return kept
        new_heap = [e for e in heap if e[0] >= cut]
        kept_idx = _np.flatnonzero(cand >= cut).tolist()
        for i in kept_idx:
            new_heap.append(
                (
                    float(cand[i]),
                    self._counter,
                    Item(int(idents[i]), float(weights[i])),
                )
            )
            self._counter += 1
        heapq.heapify(new_heap)
        self._heap = new_heap
        self._sorted = None
        return len(kept_idx)

    def fold_selected(
        self,
        idents: Any,
        weights: Any,
        keys: Any,
        surv_idx: Any,
        kept_idx: Any,
        cut: float,
        at_cut: int,
    ) -> int:
        """Commit a fold whose selection the fused kernel
        (``swor_fold_regulars``) already computed — the same final heap
        :meth:`merge_columns` would build from the survivor columns,
        without re-partitioning.

        ``idents``/``weights``/``keys`` are the *full* pack columns;
        ``surv_idx`` indexes the candidates above the entry threshold,
        ``kept_idx`` the subset at or above the merged ``cut`` (equal to
        ``surv_idx`` on the underfull push path), and ``at_cut != 1``
        routes to the exact sequential tie fallback — entry counters and
        ``Item`` construction order all match :meth:`merge_columns`.
        """
        n = len(surv_idx)
        if n == 0:
            return 0
        heap = self._heap
        free = self.sample_size - len(heap)
        if n <= free:
            for i in surv_idx.tolist():
                heapq.heappush(
                    heap,
                    (
                        float(keys[i]),
                        self._counter,
                        Item(int(idents[i]), float(weights[i])),
                    ),
                )
                self._counter += 1
            self._sorted = None
            return n
        if at_cut != 1:
            # Ambiguous boundary — replay the exact per-item semantics.
            self.tie_fallbacks += 1
            kept = 0
            for i in surv_idx.tolist():
                key = float(keys[i])
                if key > self.threshold:
                    self.add(Item(int(idents[i]), float(weights[i])), key)
                    kept += 1
            return kept
        new_heap = [e for e in heap if e[0] >= cut]
        for i in kept_idx.tolist():
            new_heap.append(
                (
                    float(keys[i]),
                    self._counter,
                    Item(int(idents[i]), float(weights[i])),
                )
            )
            self._counter += 1
        heapq.heapify(new_heap)
        self._heap = new_heap
        self._sorted = None
        return len(kept_idx)

    # -- snapshots (sharded engine recovery) ---------------------------

    def snapshot_state(self) -> SampleSnapshot:
        """Cheap rewind point: heap entries are immutable tuples, so a
        shallow list copy suffices."""
        return (list(self._heap), self._counter, self.tie_fallbacks)

    def restore_state(self, state: SampleSnapshot) -> None:
        heap, counter, tie_fallbacks = state
        self._heap = list(heap)
        self._counter = counter
        self.tie_fallbacks = tie_fallbacks
        self._sorted = None

    # -- queries -------------------------------------------------------

    @property
    def threshold(self) -> float:
        """``u`` — the ``s``-th largest key, or 0 while underfull."""
        if len(self._heap) < self.sample_size:
            return 0.0
        return self._heap[0][0]

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.sample_size

    def _sorted_view(self) -> List[Tuple[Item, float]]:
        """The decreasing-key view, re-sorted only after a mutation."""
        if self._sorted is None:
            self._sorted = [
                (e[2], e[0]) for e in sorted(self._heap, key=lambda e: -e[0])
            ]
        return self._sorted

    def entries(self) -> List[Tuple[Item, float]]:
        """``(item, key)`` pairs in decreasing key order (cached per
        mutation epoch; the returned list is the caller's to mutate)."""
        return list(self._sorted_view())

    def items(self) -> List[Item]:
        """Sampled items in decreasing key order."""
        return [item for item, _ in self._sorted_view()]

    def __len__(self) -> int:
        return len(self._heap)
