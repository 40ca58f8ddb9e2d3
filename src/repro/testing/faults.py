"""Deterministic fault injection for the fault-tolerant execution layer.

Retry loops, pool rebuilds, checkpoint resume, and cache quarantine are
exactly the code paths that never fire in a healthy test run.  This
harness makes them fire *on demand and deterministically*: production
code declares named failure points (``faults.fire("sweep.unit", ...)``)
that are free no-ops until a test installs a :class:`FaultSpec`, after
which the matching firing crashes the process, raises a chosen
exception, stalls, or corrupts a file — exactly ``times`` times, even
across forked worker processes.

Cross-process exactly-N accounting uses a *marker directory*: each
firing claims slot ``i`` by ``O_CREAT | O_EXCL``-creating
``<marker>/<spec-id>.<i>``, which is atomic on every POSIX filesystem,
so concurrent workers cannot double-fire a slot.  Without a marker the
count is process-local (fine for inline jobs=1 runs).

Specs installed in the parent are inherited by ``fork``-started pool
workers automatically; the sweep driver and the shard pool additionally
ship the active spec list through their pool initializers so
``spawn``/``forkserver`` start methods inject identically.

Example — kill the worker running unit key 8, once::

    faults.install(FaultSpec(point="sweep.unit", action="crash",
                             match=(("key", 8),), marker=str(tmp_path)))
    run_sweep(tasks, jobs=2)   # pool breaks, rebuilds, retries, succeeds
    faults.clear()

The harness lives under ``repro.testing`` but the ``fire`` hook is
production-importable by design (chaos harnesses always are); its cost
while inactive is one module-global truthiness check.
"""

from __future__ import annotations

import errno
import logging
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

logger = logging.getLogger("repro.testing.faults")


class FaultInjected(Exception):
    """Raised by ``action="raise"`` specs with no registered type."""


#: Exception types ``action="raise"`` may name — a whitelist keeps specs
#: picklable (class references would drag arbitrary modules across the
#: pool boundary).
RAISABLE: Dict[str, type] = {
    "OSError": OSError,
    "TimeoutError": TimeoutError,
    "MemoryError": MemoryError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "UnpicklingError": pickle.UnpicklingError,
    "FaultInjected": FaultInjected,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: where, what, when, and how many times.

    ``point``
        Failure-point name (``"sweep.unit"``, ``"shard.worker"``,
        ``"cache.get"``).
    ``action``
        ``"crash"`` (``os._exit(70)`` — the worker dies without
        unwinding, like a segfault or OOM kill), ``"raise"`` (raise
        ``RAISABLE[exc]``), ``"stall"`` (sleep ``delay`` seconds —
        trips deadlines), ``"corrupt"`` (overwrite the file named by
        the firing context's ``path`` with garbage bytes), or
        ``"leak"`` (allocate ``mb`` MiB that stays referenced for the
        life of the process — a deterministic memory runaway for the
        service supervisor's RSS ceiling).
    ``match``
        Sorted ``(key, value)`` pairs; every pair must equal the firing
        context for the spec to trigger.  Empty matches every firing.
    ``times``
        Maximum firings (``0`` = unlimited).  With a ``marker``
        directory the budget is shared across processes; without one it
        is per-process.
    ``marker``
        Directory for cross-process exactly-N slot files.
    """

    point: str
    action: str
    match: Tuple[Tuple[str, Any], ...] = ()
    times: int = 1
    marker: str = ""
    exc: str = "OSError"
    message: str = "injected fault"
    delay: float = 0.0
    mb: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("crash", "raise", "stall", "corrupt",
                               "leak"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "raise" and self.exc not in RAISABLE:
            raise ValueError(f"exc must be one of {sorted(RAISABLE)}, "
                             f"got {self.exc!r}")
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")

    def matches(self, ctx: Dict[str, Any]) -> bool:
        return all(ctx.get(k) == v for k, v in self.match)

    @property
    def spec_id(self) -> str:
        """Stable slug for marker filenames."""
        parts = [self.point, self.action] + [
            f"{k}={v}" for k, v in self.match]
        return "-".join(str(p).replace(os.sep, "_") for p in parts)


#: The active specs.  Module-global so fork-started workers inherit it.
_specs: List[FaultSpec] = []
#: Process-local firing counts for markerless specs.
_local_counts: Dict[str, int] = {}
#: Allocations pinned by ``action="leak"`` firings (released only by
#: process exit or ``clear()``).
_leaks: List[bytearray] = []


def install(spec: FaultSpec) -> FaultSpec:
    """Activate a spec (returns it, for convenience)."""
    _specs.append(spec)
    return spec


def set_specs(specs: Sequence[FaultSpec]) -> None:
    """Replace the active spec list (pool initializers use this)."""
    _specs[:] = list(specs)
    _local_counts.clear()


def active_specs() -> Tuple[FaultSpec, ...]:
    """The active specs, picklable, for shipping to spawn workers."""
    return tuple(_specs)


def clear() -> None:
    """Deactivate everything (tests call this in teardown)."""
    _specs.clear()
    _local_counts.clear()
    _leaks.clear()


def active() -> bool:
    return bool(_specs)


def _claim(spec: FaultSpec) -> bool:
    """Claim one firing slot; False when the budget is exhausted."""
    if spec.times == 0:
        return True
    if not spec.marker:
        n = _local_counts.get(spec.spec_id, 0)
        if n >= spec.times:
            return False
        _local_counts[spec.spec_id] = n + 1
        return True
    os.makedirs(spec.marker, exist_ok=True)
    for i in range(spec.times):
        slot = os.path.join(spec.marker, f"{spec.spec_id}.{i}")
        try:
            os.close(os.open(slot, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except OSError as exc:  # pragma: no branch
            if exc.errno != errno.EEXIST:
                raise
    return False


def fire(point: str, **ctx: Any) -> None:
    """Production hook: trigger any active spec matching this firing.

    Free while inactive (one truthiness check).  ``crash`` never
    returns; ``raise`` raises; ``stall`` sleeps then returns (so a
    deadline, if armed, interrupts the sleep); ``corrupt`` scribbles
    over ``ctx["path"]`` then returns, leaving the caller to trip over
    the damage exactly as a real torn write would.
    """
    if not _specs:
        return
    for spec in _specs:
        if spec.point != point or not spec.matches(ctx):
            continue
        if not _claim(spec):
            continue
        logger.warning("fault %s/%s fired at %s (ctx=%r)", spec.action,
                       spec.spec_id, point, ctx)
        if spec.action == "crash":
            os._exit(70)
        elif spec.action == "raise":
            raise RAISABLE[spec.exc](spec.message)
        elif spec.action == "stall":
            time.sleep(spec.delay)
        elif spec.action == "leak":
            # bytearray zero-fills, so the pages are committed and show
            # up in RSS immediately
            _leaks.append(bytearray(int(spec.mb * 1024 * 1024)))
        elif spec.action == "corrupt":
            path = ctx.get("path")
            if path and os.path.exists(path):
                with open(path, "wb") as fh:
                    fh.write(b"\x00garbage-injected-by-fault-harness")
