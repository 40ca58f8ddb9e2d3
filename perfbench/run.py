"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the program in this checkout's ``src/`` and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  The line before it carries the run's
provenance.  ``--tiny`` shrinks every workload for the benchmark's own
tests.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ops as opgen  # noqa: E402
from perfbench.common import (  # noqa: E402
    ROOT, WORK, adopt_orphans, fresh_dir, reap_children, require_program,
)

#: traced cli-interactive replays this many ops of the run's list
TRACED_CLI_OPS = 12

#: loop and why each workload was chosen
WORKLOADS: Dict[str, Dict] = {
    "cli-interactive": {
        "loop": "closed, 1 client",
        "why": "the command users type: repro analyze with reports, a "
               "third repeated against the cache; interpreter start and "
               "import dominate"},
    "sweep-paper": {
        "loop": "closed, 1 client",
        "why": "paper-scale Sweep3D and GTC sweeps, no cache: executor, "
               "engines, static profiler, closed form and the sweep pool "
               "do the work"},
}

END_TO_END = {"setup_s": "s", "latency_p50_s": "s", "accesses_per_s": "1/s",
              "peak_rss_mb": "MB"}


def workload_ops(workload: str, seed: int, tiny: bool) -> List[opgen.Op]:
    """The run's fixed op list."""
    if workload == "cli-interactive":
        return opgen.cli_ops(seed, tiny)
    return opgen.sweep_ops(seed, tiny)


def reference_specs(tiny: bool) -> List[opgen.Spec]:
    """Every analysis any workload can generate."""
    cli = opgen.TINY_CLI_APPS if tiny else opgen.CLI_APPS
    specs = []
    for name, sizes in cli.items():
        for value in (sizes[1] if sizes else [None]):
            params = ((sizes[0], value),) if sizes else ()
            specs += [opgen.Spec(name, params, e) for e in ("numpy",
                                                           "static")]
    for cycle in opgen.sweep_cycle(tiny):
        specs += cycle
    return specs


def provenance(workload: str, seed: int, seconds: int, tiny: bool) -> Dict:
    import numpy
    import scipy

    from perfbench.oracle import source_digest
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    wl = dict(WORKLOADS[workload])
    wl["ops"] = [op.specs[0].label if op.kind == "analyze"
                 else [spec.label for spec in op.specs]
                 for op in workload_ops(workload, seed, tiny)]
    wl["seconds"] = "caps the run: no op starts after it has passed"
    from perfbench.service import POLL_S
    wl["traced_service_leg_poll_s"] = POLL_S
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "source_digest": source_digest(),
            "seed": seed, "seconds": seconds, "tiny": tiny,
            "workload": workload, "workload_info": wl,
            "fresh_dirs": "cache and state dirs are new for every run"}


def run_e2e(workload: str, seed: int, seconds: int, tiny: bool, oracle,
            rundir: Path) -> Dict:
    from perfbench import e2e

    out = e2e.command_workload(workload_ops(workload, seed, tiny), oracle,
                               rundir, seconds)
    out["attempted"] = len(out["results"])
    bad = [r for r in out.pop("results") if not r.ok]
    out["errors"] = [f"op{r.op.id}: {r.error}" for r in bad]
    return out


def run_traced(workload: str, seed: int, tiny: bool, oracle,
               rundir: Path) -> Dict:
    from perfbench.traced import traced_run

    ops = workload_ops(workload, seed, tiny)
    if workload == "cli-interactive":
        ops = ops[:4 if tiny else TRACED_CLI_OPS]
    out = traced_run(ops, oracle, rundir)
    trace_path = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
    out.pop("tracer").write_jsonl(trace_path)
    out["info"]["spans"] = str(trace_path.relative_to(ROOT))
    return out


def run(workload: str, seed: int, seconds: int, trace: bool,
        tiny: bool = False, oracle=None) -> Dict:
    """One benchmark run; returns the result object and provenance."""
    from perfbench.oracle import Oracle
    from perfbench.traced import per_layer_names, unit_of

    rundir = fresh_dir(WORK / "runs" / f"{workload}-{seed}-{os.getpid()}")
    (rundir / "tmp").mkdir()
    # in-process program code (sweep pool, caches) keeps its temporary
    # files inside the checkout too
    old_tmp = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(rundir / "tmp")
    try:
        if oracle is None:
            oracle = Oracle()
            oracle.ensure(reference_specs(tiny))
        if trace:
            out = run_traced(workload, seed, tiny, oracle, rundir)
            units = {name: unit_of(name) for name in per_layer_names()}
        else:
            out = run_e2e(workload, seed, seconds, tiny, oracle, rundir)
            units = END_TO_END
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if old_tmp is None:
            os.environ.pop("TMPDIR")
        else:
            os.environ["TMPDIR"] = old_tmp
    failed = min(len(out["errors"]), out["attempted"])
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    prov = provenance(workload, seed, seconds, tiny)
    prov["error_rate"] = failed / out["attempted"]
    return {"result": result, "provenance": prov, "info": out["info"],
            "errors": out["errors"][:20]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so the servers a run started are stopped;
    # whatever is still alive at exit, orphans included, is killed and
    # waited for after the interpreter has joined its own workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    atexit.register(reap_children)
    require_program()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.tiny)
    print(json.dumps({"provenance": out["provenance"], "info": out["info"],
                      "errors": out["errors"]}, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
