"""Epoch tracking — the coordinator's threshold-broadcast policy.

The algorithm's epochs bracket the sample threshold ``u`` (the ``s``-th
largest key) by powers of ``r = max(2, k/s)``: epoch ``j`` holds while
``u in [r^j, r^{j+1})``.  On an epoch change the coordinator broadcasts
the bracket floor ``r^j`` to every site (``k`` messages), and sites then
drop keys below it locally.  Because ``u`` only grows, epochs advance
monotonically; Proposition 5 bounds their expected number by
``~3 log(W/s)/log(r)``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..common.errors import ConfigurationError

__all__ = ["EpochTracker"]


class EpochTracker:
    """Maps the evolving threshold ``u`` to epoch broadcasts."""

    def __init__(self, r: float) -> None:
        if r < 2.0:
            raise ConfigurationError(f"epoch base r must be >= 2, got {r}")
        self.r = r
        self._epoch: Optional[int] = None  # None = epoch 0, u < r^0
        self.broadcasts = 0

    @staticmethod
    def _epoch_of(u: float, r: float) -> Optional[int]:
        """Index ``j`` with ``u in [r^j, r^{j+1})``; None for ``u < 1``."""
        if u < 1.0:
            return None
        j = int(math.log(u) / math.log(r))
        while r ** (j + 1) <= u:
            j += 1
        while j > 0 and r**j > u:
            j -= 1
        return j

    @property
    def epoch(self) -> Optional[int]:
        """Current epoch index (None before ``u`` first reaches 1)."""
        return self._epoch

    def would_announce(self, u: float) -> bool:
        """Whether :meth:`observe_threshold(u)` would broadcast —
        *pure*, so bulk paths can test an epoch crossing before
        committing a merge."""
        new_epoch = self._epoch_of(u, self.r)
        return new_epoch is not None and new_epoch != self._epoch

    def snapshot_state(self) -> Tuple[Optional[int], int]:
        """Rewind point for the sharded engine's window recovery."""
        return (self._epoch, self.broadcasts)

    def restore_state(self, state: Tuple[Optional[int], int]) -> None:
        self._epoch, self.broadcasts = state

    def observe_threshold(self, u: float) -> Optional[float]:
        """Update with the new threshold; return ``r^j`` if the epoch
        changed (the value to broadcast), else ``None``."""
        new_epoch = self._epoch_of(u, self.r)
        if new_epoch is None or new_epoch == self._epoch:
            return None
        self._epoch = new_epoch
        self.broadcasts += 1
        return self.r**new_epoch
