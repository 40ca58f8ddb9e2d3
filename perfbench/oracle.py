"""Reference outputs every operation is checked against.

For the fenwick and numpy engines the reference is a fenwick
``AnalysisSession``; for static and closed-form runs it is the
enumerated static profile (``AnalysisSession(engine="static")``).
References are computed untimed before a run's first timed operation
and memoized under ``.bench_build/perfbench/oracle/<source digest>/``:
a change to any file under ``src/`` starts a fresh store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List

from perfbench.common import ROOT, SRC, WORK
from perfbench.ops import Spec

LEVELS = ("L1", "L2", "L3", "TLB")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compute_reference(workload: str, params: Dict[str, int],
                      engine: str) -> Dict:
    from repro.apps.registry import build_workload
    from repro.tools.session import AnalysisSession

    session = AnalysisSession(build_workload(workload, **params),
                              engine=engine)
    session.run()
    totals = session.totals()
    patterns = pickle.dumps(session.analyzer.dump_state(),
                            protocol=pickle.HIGHEST_PROTOCOL)
    return {"totals": totals,
            "patterns_sha256": hashlib.sha256(patterns).hexdigest(),
            "accesses": session.stats.accesses}


def _compute_to(args) -> str:
    path, workload, params, engine = args
    ref = compute_reference(workload, params, engine)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(ref, handle)
    os.replace(tmp, path)
    return path


class Oracle:
    """Disk-memoized references, keyed by :attr:`Spec.ref_key`."""

    def __init__(self) -> None:
        self.root = WORK / "oracle" / source_digest()
        self.root.mkdir(parents=True, exist_ok=True)
        self._refs: Dict[str, Dict] = {}

    def _path(self, spec: Spec) -> Path:
        return self.root / f"{spec.ref_key}.json"

    def ensure(self, specs: Iterable[Spec], jobs: int = 2) -> None:
        """Compute every missing reference in ``jobs`` child processes,
        each waited for: no process outlives this call."""
        todo, keys = [], set()
        for spec in specs:
            if spec.ref_key in keys or self._path(spec).exists():
                continue
            keys.add(spec.ref_key)
            todo.append((str(self._path(spec)), spec.workload,
                         spec.pdict(), spec.ref_engine))
        if not todo:
            return
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
        procs = []
        try:
            for i in range(min(jobs, len(todo))):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "perfbench.oracle",
                     json.dumps(todo[i::jobs])],
                    stdout=subprocess.DEVNULL, env=env, cwd=ROOT))
            failed = [p.pid for p in procs if p.wait() != 0]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if failed:
            raise RuntimeError("computing the references failed")

    def ref(self, spec: Spec) -> Dict:
        key = spec.ref_key
        if key not in self._refs:
            with open(self._path(spec), encoding="utf-8") as handle:
                self._refs[key] = json.load(handle)
        return self._refs[key]

    # -- output checks -------------------------------------------------

    def misses_line(self, spec: Spec) -> str:
        """The ``predicted misses:`` line ``repro analyze`` must print."""
        totals = {k: round(v) for k, v in self.ref(spec)["totals"].items()}
        return f"predicted misses: {totals}"

    def sweep_cells(self, spec: Spec) -> List[str]:
        """The per-level cells of the spec's ``repro sweep`` table row."""
        totals = self.ref(spec)["totals"]
        return [str(round(totals.get(lv, 0))) for lv in LEVELS]

    def accesses(self, spec: Spec) -> int:
        return int(self.ref(spec)["accesses"])


if __name__ == "__main__":
    # one share of Oracle.ensure: a JSON list of (path, workload, params,
    # engine)
    for item in json.loads(sys.argv[1]):
        _compute_to(item)
