"""Paths, child processes and statistics shared by the benchmark.

Everything the benchmark writes lives under ``.bench_build/perfbench``
in the checkout it runs from; child processes get ``TMPDIR`` pointed
there too, so a run touches nothing outside the checkout.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"


def require_program() -> None:
    """Make the checkout's ``src/`` importable, or exit without a result.

    The benchmark measures the program of the checkout it sits in; a
    tree holding only the benchmark has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {SRC}; run from a "
                         "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(tmp: Path, cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for program processes: this checkout's ``src`` only,
    no inherited ``REPRO_*`` switches (``REPRO_OBS`` turns tracing on)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class ProcResult:
    rc: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def _reap(proc: subprocess.Popen) -> float:
    """Wait for ``proc`` and return its peak RSS in MiB as the kernel
    accounted it: the process itself or any child it waited for."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def run_proc(argv: Sequence[str], env: Dict[str, str], cwd: Path,
             timeout: float) -> ProcResult:
    """Run one program process to exit; wall time spans spawn to reap."""
    with tempfile.TemporaryFile(dir=env["TMPDIR"]) as out, \
            tempfile.TemporaryFile(dir=env["TMPDIR"]) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            rss = _reap(proc)
        except BaseException:
            proc.kill()
            _reap(proc)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return ProcResult(proc.returncode, wall, rss,
                          out.read().decode(errors="replace"),
                          err.read().decode(errors="replace"))


def stop_proc(proc: subprocess.Popen, grace: float = 30.0) -> float:
    """SIGTERM, escalate to SIGKILL after ``grace``; return peak RSS."""
    if proc.returncode is not None:
        return 0.0
    proc.send_signal(signal.SIGTERM)
    timer = threading.Timer(grace, proc.kill)
    timer.start()
    try:
        return _reap(proc)
    finally:
        timer.cancel()


#: ``prctl`` option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux),
    so that :func:`reap_children` also stops a process whose parent
    exited before it, such as a job process of a server that died."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    me = os.getpid()
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry.name))
    return kids


def reap_children() -> None:
    """Kill and wait for every child still alive, adopted ones included,
    until none is left; run last, when the benchmark exits."""
    while True:
        kids = _children()
        if not kids:
            return
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def python_cmd(*args: str) -> List[str]:
    """A ``python -m repro ...`` command line for this interpreter."""
    return [sys.executable, "-m", "repro", *args]
