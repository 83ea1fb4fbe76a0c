"""Declarative, deterministic fault injection for the sharded runtime.

A :class:`FaultPlan` is a small list of :class:`FaultSpec` entries, each
naming a fault *kind*, the worker it strikes, and the window at which it
fires.  The plan is threaded through test-only seams in the sharded
engine: worker-side seams fire just before/instead of a result send
(``kill``/``hang``/``drop``) or on the encoded wire descriptors
(``corrupt``/``truncate``); the one parent-side kind (``respawn``)
makes the supervisor's worker respawn fail a fixed number of times
before succeeding.

Everything here is deterministic by construction: firing is keyed on
(worker, window) — never on wall-clock time — and the only randomness
is the seeded :class:`random.Random` behind :meth:`FaultPlan.single`.
The package deliberately never imports :mod:`time` (reprolint R004:
``repro.faults`` is not a clock-allowed layer); the ``hang`` kind
blocks on an un-signalled :class:`threading.Event` instead of sleeping.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ConfigurationError

__all__ = [
    "CHAOS_EXITCODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "block_forever",
    "chaos_exit",
    "corrupt_descriptors",
    "fault_action",
    "parse_fault_plan",
]

#: Exit status a ``kill`` fault dies with — distinguishable from a real
#: interpreter crash in the supervisor's fault detail.
CHAOS_EXITCODE = 73

#: Worker-side kinds fire at (worker, window); ``respawn`` is
#: parent-side and its third field counts injected respawn failures.
FAULT_KINDS = (
    "kill",  # os._exit before sending the window's results
    "hang",  # block forever before sending the window's results
    "drop",  # silently skip the result send (parent sees a hang)
    "corrupt",  # mangle a pack descriptor so wire validation rejects it
    "truncate",  # point a pack descriptor past its buffer
    "respawn",  # parent-side: fail the next N respawns of this worker
)


class FaultSpec:
    """One planned fault: ``kind`` strikes ``worker`` at ``window``.

    For ``kind == "respawn"`` the ``window`` field instead carries the
    number of consecutive respawn attempts to fail.
    """

    __slots__ = ("kind", "worker", "window")

    def __init__(self, kind: str, worker: int, window: int) -> None:
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if worker < 0:
            raise ConfigurationError(f"fault worker must be >= 0, got {worker}")
        if window < 0:
            raise ConfigurationError(f"fault window must be >= 0, got {window}")
        self.kind = kind
        self.worker = worker
        self.window = window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSpec({self.kind!r}, worker={self.worker}, window={self.window})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultSpec)
            and other.kind == self.kind
            and other.worker == self.worker
            and other.window == self.window
        )

    def __str__(self) -> str:
        return f"{self.kind}:{self.worker}:{self.window}"


class FaultPlan:
    """An ordered set of planned faults for one sharded run.

    The engine clones the plan per run (so a plan on a long-lived
    engine re-fires every run) and mutates the clone as faults fire:
    when the supervisor handles a fault of worker ``w`` at window
    ``u``, every worker-side entry for ``w`` at windows ``<= u`` is
    retired, and the *remaining* entries are what a respawned worker
    (or a degradation-ladder rerun) receives — each planned fault
    therefore fires at most once per run, including across recoveries.
    """

    def __init__(self, entries: Iterable[FaultSpec] = ()) -> None:
        self.entries: List[FaultSpec] = list(entries)
        for entry in self.entries:
            if not isinstance(entry, FaultSpec):
                raise ConfigurationError(
                    f"FaultPlan entries must be FaultSpec, got {entry!r}"
                )

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and other.entries == self.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.entries!r})"

    def __str__(self) -> str:
        return ",".join(str(entry) for entry in self.entries)

    def clone(self) -> "FaultPlan":
        return FaultPlan(
            FaultSpec(e.kind, e.worker, e.window) for e in self.entries
        )

    def wire_for(self, worker: int) -> Tuple[Tuple[str, int], ...]:
        """The (kind, window) pairs shipped in ``worker``'s payload —
        its still-pending worker-side faults."""
        return tuple(
            (e.kind, e.window)
            for e in self.entries
            if e.worker == worker and e.kind != "respawn"
        )

    def mark_fired(self, worker: int, window: Optional[int]) -> None:
        """Retire ``worker``'s worker-side entries up to ``window``
        (all of them when ``window`` is None) after the supervisor has
        classified a fault there."""
        self.entries = [
            e
            for e in self.entries
            if e.kind == "respawn"
            or e.worker != worker
            or (window is not None and e.window > window)
        ]

    def take_respawn_failure(self, worker: int) -> bool:
        """Consume one injected respawn failure for ``worker`` if the
        plan has any left; True means the supervisor must fail this
        respawn attempt."""
        for entry in self.entries:
            if entry.kind == "respawn" and entry.worker == worker:
                if entry.window <= 1:
                    self.entries.remove(entry)
                else:
                    entry.window -= 1
                return True
        return False

    @classmethod
    def single(
        cls,
        seed: int,
        workers: int,
        windows: int,
        kinds: Sequence[str] = ("kill", "hang", "drop", "corrupt", "truncate"),
    ) -> "FaultPlan":
        """A seeded one-fault plan: pick (kind, worker, window)
        uniformly from the given ranges — the chaos suite's property
        tests draw these."""
        rng = random.Random(seed)
        return cls(
            [
                FaultSpec(
                    rng.choice(list(kinds)),
                    rng.randrange(max(1, workers)),
                    rng.randrange(max(1, windows)),
                )
            ]
        )


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the ``--fault-plan`` CLI form: comma-separated
    ``kind:worker:window`` triples (for ``respawn`` the third field is
    the failure count), e.g. ``"kill:1:2,respawn:1:1"``."""
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigurationError(
                f"fault plan entry {part!r} is not kind:worker:window"
            )
        kind = pieces[0].strip()
        try:
            worker, window = int(pieces[1]), int(pieces[2])
        except ValueError:
            raise ConfigurationError(
                f"fault plan entry {part!r} has non-integer fields"
            ) from None
        entries.append(FaultSpec(kind, worker, window))
    return FaultPlan(entries)


# ---------------------------------------------------------------------------
# Worker-side injection helpers (called from the sharded worker loops)
# ---------------------------------------------------------------------------


def fault_action(
    faults: Optional[Sequence[Tuple[str, int]]],
    window: int,
    kinds: Tuple[str, ...],
) -> Optional[str]:
    """First planned fault of one of ``kinds`` at ``window``, or None."""
    if not faults:
        return None
    for kind, at in faults:
        if at == window and kind in kinds:
            return kind
    return None


def block_forever() -> None:  # pragma: no cover - killed by the parent
    """Simulate a hung worker: block on an event nobody signals.  The
    supervisor's deadline fires and the process is terminated; no
    wall-clock reads, no spinning."""
    threading.Event().wait()


def chaos_exit() -> None:  # pragma: no cover - exits the process
    """Simulate a worker crash: die instantly, skipping ``finally``
    blocks and atexit handlers, exactly like a SIGKILLed process."""
    os._exit(CHAOS_EXITCODE)


def corrupt_descriptors(descriptors: list, mode: str) -> list:
    """Mangle the first pack descriptor in a worker's result list so
    the parent's wire validation rejects it (``mode == "corrupt"``:
    drop a column, leaving an incomplete half; ``mode == "truncate"``:
    inflate a ring column's count past the buffer).  When the window
    shipped no pack descriptors, a forged undecodable one is appended
    so the fault still fires deterministically.  Mutates and returns
    ``descriptors``."""
    for i, descriptor in enumerate(descriptors):
        tag = descriptor[1]
        if tag == "p":
            site_id, _, kind, spec = descriptor
            spec = dict(spec)
            name = next(iter(spec))
            if mode == "truncate":
                offset, dtype, count = spec[name]
                spec[name] = (offset, dtype, count + (1 << 24))
            else:
                del spec[name]
            descriptors[i] = (site_id, "p", kind, spec)
            return descriptors
        if tag == "q":
            site_id, _, kind, columns = descriptor
            columns = dict(columns)
            name = next(iter(columns))
            if mode == "truncate":
                columns[name] = columns[name][:-1]
            else:
                del columns[name]
            descriptors[i] = (site_id, "q", kind, columns)
            return descriptors
    descriptors.append((-1, "q", "regular", {"regular_idents": []}))
    return descriptors
