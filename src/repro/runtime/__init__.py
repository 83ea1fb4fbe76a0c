"""Pluggable execution engines for the coordinator/sites model.

This package separates *what* the protocols compute (the site and
coordinator state machines of :mod:`repro.core`) from *how* a stream is
driven through them:

* :class:`ReferenceEngine` — the paper's strictly synchronous round
  model, one arrival at a time (the historical ``Network.run``);
* :class:`BatchedEngine` — processes arrivals in chunks with vectorized
  site-side key generation and batch-boundary control propagation,
  trading a bounded number of extra (coordinator-discarded) messages
  for an order-of-magnitude drop in interpreter dispatch.

Select an engine by instance or by name::

    from repro.runtime import get_engine
    engine = get_engine("batched", batch_size=4096)
    counters = protocol.run(stream, engine=engine)

``SiteAlgorithm`` / ``CoordinatorAlgorithm`` / ``Network`` /
``BROADCAST`` live here now; :mod:`repro.net.simulator` re-exports them
for backward compatibility (with a :class:`DeprecationWarning`).
"""

from __future__ import annotations

from typing import Dict, Optional, Type, Union

from ..common.errors import ConfigurationError
from ..faults import FaultPlan
from .base import Engine
from .batched import BatchedEngine, ItemBatch
from .columnar import ColumnarEngine
from .interfaces import BROADCAST, CoordinatorAlgorithm, SiteAlgorithm
from .network import Network
from .reference import ReferenceEngine
from .sharded import ShardedEngine, ShardedWorkerError

__all__ = [
    "BROADCAST",
    "SiteAlgorithm",
    "CoordinatorAlgorithm",
    "Network",
    "Engine",
    "ReferenceEngine",
    "BatchedEngine",
    "ColumnarEngine",
    "ShardedEngine",
    "ShardedWorkerError",
    "ItemBatch",
    "ENGINES",
    "get_engine",
]

#: Registry of engine names to classes (extend to plug in new engines).
ENGINES: Dict[str, Type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    BatchedEngine.name: BatchedEngine,
    ColumnarEngine.name: ColumnarEngine,
    ShardedEngine.name: ShardedEngine,
}


def get_engine(
    spec: Union[str, Engine, None] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    kernels: Optional[str] = None,
    worker_timeout: Optional[float] = None,
    max_worker_restarts: Optional[int] = None,
    fault_plan: Union[str, FaultPlan, None] = None,
) -> Engine:
    """Resolve an engine from a name, an instance, or ``None``.

    Parameters
    ----------
    spec:
        ``None`` (reference), a registry name (``"reference"`` /
        ``"batched"`` / ``"columnar"`` / ``"sharded"``), or an
        already-built :class:`Engine` instance (returned as-is).
    batch_size:
        Steady-state batch size for the batching engines; rejected for
        engines that do not batch.
    workers:
        Worker process count for the sharded engine (defaults to all
        CPU cores); rejected for engines that do not shard.
    kernels:
        ``"auto"`` / ``"numba"`` / ``"numpy"`` — the kernel backend for
        the columnar-plane engines (see :mod:`repro.kernels`); rejected
        for engines without a columnar data plane.
    worker_timeout:
        Seconds the sharded supervisor waits for a worker message
        before classifying the worker as hung; rejected for engines
        that do not shard.
    max_worker_restarts:
        Worker respawns the sharded supervisor may perform per run
        before degrading down the engine ladder; rejected for engines
        that do not shard.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` (or its ``kind:worker:window``
        string form) injected through the sharded engine's chaos seams
        — test/debug only; rejected for engines that do not shard.
    """
    if isinstance(spec, Engine):
        if batch_size is not None:
            raise ConfigurationError(
                "batch_size cannot be combined with an engine instance"
            )
        if workers is not None:
            raise ConfigurationError(
                "workers cannot be combined with an engine instance"
            )
        if kernels is not None:
            raise ConfigurationError(
                "kernels cannot be combined with an engine instance"
            )
        if worker_timeout is not None:
            raise ConfigurationError(
                "worker_timeout cannot be combined with an engine instance"
            )
        if max_worker_restarts is not None:
            raise ConfigurationError(
                "max_worker_restarts cannot be combined with an "
                "engine instance"
            )
        if fault_plan is not None:
            raise ConfigurationError(
                "fault_plan cannot be combined with an engine instance"
            )
        return spec
    name = "reference" if spec is None else str(spec)
    cls = ENGINES.get(name)
    if cls is None:
        known = ", ".join(sorted(ENGINES))
        raise ConfigurationError(f"unknown engine {name!r} (known: {known})")
    kwargs = {}
    if batch_size is not None:
        if not issubclass(cls, BatchedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a batch_size"
            )
        kwargs["batch_size"] = batch_size
    if workers is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take workers"
            )
        kwargs["workers"] = workers
    if kernels is not None:
        if not issubclass(cls, ColumnarEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a kernel backend"
            )
        kwargs["kernels"] = kernels
    if worker_timeout is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a worker_timeout"
            )
        kwargs["worker_timeout"] = worker_timeout
    if max_worker_restarts is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take max_worker_restarts"
            )
        kwargs["max_worker_restarts"] = max_worker_restarts
    if fault_plan is not None:
        if not issubclass(cls, ShardedEngine):
            raise ConfigurationError(
                f"engine {name!r} does not take a fault_plan"
            )
        kwargs["fault_plan"] = fault_plan
    return cls(**kwargs)
