"""Untraced end-to-end runs: what a user of each workload waits for.

Nothing here switches the program's own observability on: no
``--profile``, ``--manifest-out`` or ``--trace-out``, no ``REPRO_OBS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from perfbench.common import (
    ProcResult, child_env, median, python_cmd, run_proc,
)
from perfbench.ops import Op
from perfbench.oracle import Oracle

#: per-op ceiling on one program process
OP_TIMEOUT = 150.0
#: ``repro list`` processes whose median is ``setup_s``
SETUP_REPEATS = 7


@dataclass
class OpResult:
    op: Op
    latency: float
    rss_mb: float
    accesses: int
    error: str = ""
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return not self.error


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def check_analyze(op: Op, res: ProcResult, oracle: Oracle,
                  outdir: Path) -> str:
    if res.rc != 0:
        return f"exit {res.rc}: {_tail(res.stderr)}"
    if oracle.misses_line(op.specs[0]) not in res.stdout.splitlines():
        return "predicted misses differ from the reference"
    for ext in ("xml", "html"):
        path = outdir / f"op{op.id}.{ext}"
        if not path.is_file() or path.stat().st_size == 0:
            return f"no {ext} report written"
    return ""


def sweep_row_key(spec) -> str:
    (name, value), = spec.params
    return (f"sweep3d-n{value}" if spec.workload == "sweep3d"
            else f"gtc-m{value}")


def check_sweep(op: Op, res: ProcResult, oracle: Oracle) -> str:
    if res.rc != 0:
        return f"exit {res.rc}: {_tail(res.stderr)}"
    rows = {}
    for line in res.stdout.splitlines():
        parts = line.split()
        if parts:
            rows[parts[0]] = parts
    for spec in op.specs:
        row = rows.get(sweep_row_key(spec))
        if row is None or row[1] != "ok":
            return f"no ok row for {spec.label}"
        if row[-4:] != oracle.sweep_cells(spec):
            return f"{spec.label}: totals differ from the reference"
    return ""


def run_command_op(op: Op, oracle: Oracle, rundir: Path,
                   env: Dict[str, str]) -> OpResult:
    outdir = rundir / "out"
    res = run_proc(python_cmd(*op.argv(str(outdir))), env, rundir,
                   OP_TIMEOUT)
    if op.kind == "analyze":
        error = check_analyze(op, res, oracle, outdir)
    else:
        error = check_sweep(op, res, oracle)
    return OpResult(op, res.wall, res.rss_mb,
                    sum(oracle.accesses(s) for s in op.specs), error,
                    "(restored from analysis cache)" in res.stderr)


def setup_cli(rundir: Path, env: Dict[str, str]) -> List[ProcResult]:
    """Fresh ``repro list`` processes: the fixed cost of every command."""
    out = []
    for _ in range(SETUP_REPEATS):
        res = run_proc(python_cmd("list"), env, rundir, OP_TIMEOUT)
        if res.rc != 0:
            raise RuntimeError(f"repro list failed: {_tail(res.stderr)}")
        out.append(res)
    return out


def closed_loop(ops: List[Op], oracle: Oracle, rundir: Path,
                seconds: float, env: Dict[str, str]):
    """One client, next op after the previous one exits.  The op list is
    fixed for a seed; ``seconds`` only caps the run: no op starts after
    it has passed.  Returns (results, wall seconds, ops cut by the cap)."""
    (rundir / "out").mkdir(exist_ok=True)
    results: List[OpResult] = []
    t0 = time.perf_counter()
    for op in ops:
        if time.perf_counter() - t0 > seconds:
            break
        results.append(run_command_op(op, oracle, rundir, env))
    return results, time.perf_counter() - t0, len(ops) - len(results)


def command_workload(ops: List[Op], oracle: Oracle, rundir: Path,
                     seconds: float) -> Dict:
    env = child_env(rundir / "tmp", cache_dir=rundir / "cache")
    setup = setup_cli(rundir, env)
    results, wall, cut = closed_loop(ops, oracle, rundir, seconds, env)
    ok = [r for r in results if r.ok]
    return {
        "results": results,
        "metrics": {
            "setup_s": median([r.wall for r in setup]),
            "latency_p50_s": median([r.latency for r in results]),
            "accesses_per_s": sum(r.accesses for r in ok
                                  if r.op.repeat_of is None) / wall,
            "peak_rss_mb": max(r.rss_mb for r in results + setup),
        },
        "info": {
            "ops": len(results), "ops_cut_by_seconds": cut,
            "wall_s": wall,
            "cache_hits": sum(r.from_cache for r in results),
            "expected_cache_hits": sum(r.op.repeat_of is not None
                                       for r in results),
        },
    }
