"""Run generated job specs against one ``repro serve`` process.

The benchmark talks to the server only over HTTP, through the
program's public :class:`~repro.service.client.ServiceClient`: one
connection submits, a second polls and fetches artifacts.  Jobs are
timed from their due time until their last artifact is fetched.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import python_cmd, stop_proc
from perfbench.ops import Op
from perfbench.oracle import Oracle
from perfbench.spans import WALL_TO_PERF, Tracer

#: job states that end a job
TERMINAL = ("done", "failed", "cancelled", "failed_poison")
ARTIFACTS = ("patterns", "manifest")
#: seconds between two polls of the job list
POLL_S = 0.01


class Server:
    """One ``repro serve --workers 2`` on a fresh state dir."""

    def __init__(self, state_dir: Path, env: Dict[str, str],
                 log: Path) -> None:
        self.state_dir = state_dir
        self.env = env
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; return seconds until ``/v1/healthz`` is 200."""
        from repro.service.client import ServiceClient, ServiceError

        self.state_dir.mkdir(parents=True)
        argv = python_cmd(
            "serve", "--state-dir", str(self.state_dir), "--workers", "2",
            # both client connections stay open for the whole run
            "--keepalive-requests", "1000000", "--keepalive-idle", "600")
        info = self.state_dir / "service.json"
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                         stderr=log, env=self.env,
                                         cwd=self.state_dir)
        while time.perf_counter() - t0 < timeout:
            if info.exists():
                try:
                    data = json.loads(info.read_text())
                    with ServiceClient(data["host"], data["port"]) as probe:
                        if probe.health().get("ok"):
                            self.address = (data["host"], data["port"])
                            return time.perf_counter() - t0
                except (ValueError, OSError, ServiceError):
                    pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not ready; see {self.log}")

    def stop(self) -> float:
        """Stop the server; return the peak RSS (MiB) of it and its jobs."""
        if self.proc is None:
            return 0.0
        rss = stop_proc(self.proc)
        self.proc = None
        return rss


@dataclass
class JobRecord:
    op: Op
    due: float = 0.0
    submit: Tuple[float, float] = (0.0, 0.0)
    job_id: str = ""
    done: float = 0.0
    #: "" on success, else why the job counts as failed
    error: str = ""
    refused: bool = False
    job: Dict = field(default_factory=dict)
    fetches: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.done > 0 and not self.error


@dataclass
class JobsResult:
    records: List[JobRecord]
    queue_depth_max: int = 0
    lag: List[float] = field(default_factory=list)


class JobRunner:
    def __init__(self, server: Server, oracle: Oracle,
                 tracer: Tracer) -> None:
        from repro.service.client import ServiceClient

        host, port = server.address
        self.submitter = ServiceClient(host, port)
        self.poller = ServiceClient(host, port)
        self.oracle = oracle
        self.tracer = tracer

    def close(self) -> None:
        self.submitter.close()
        self.poller.close()

    def run_jobs(self, ops: List[Op], period: float,
                  timeout: float = 150.0) -> JobsResult:
        """Submit each op at its due time (``op.due`` periods from now)
        from one thread while this thread polls, fetches and checks
        results."""
        from repro.service.client import (
            QuotaExceeded, ServiceError, ServiceUnavailable,
        )

        tenant = "bench"
        start = time.perf_counter()
        records = [JobRecord(op, due=start + op.due * period)
                   for op in ops]
        pending: Dict[str, JobRecord] = {}
        lock = threading.Lock()
        result = JobsResult(records)

        def submit_all() -> None:
            for rec in records:
                delay = rec.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t0 = time.perf_counter()
                result.lag.append(max(t0 - rec.due, 0.0))
                try:
                    job = self.submitter.submit(rec.op.job_body(),
                                                tenant=tenant)
                except (QuotaExceeded, ServiceUnavailable) as exc:
                    rec.refused, rec.error = True, str(exc)
                except (ServiceError, OSError) as exc:
                    rec.error = f"submit: {exc}"
                rec.submit = (t0, time.perf_counter())
                if not rec.error:
                    rec.job_id = job["id"]
                    with lock:
                        pending[rec.job_id] = rec

        thread = threading.Thread(target=submit_all, name="bench-submit")
        thread.start()
        try:
            deadline = start + timeout
            while time.perf_counter() < deadline:
                with lock:
                    idle = not pending
                if idle and not thread.is_alive():
                    break
                time.sleep(POLL_S)
                listing = self.poller.jobs(tenant=tenant)
                result.queue_depth_max = max(
                    result.queue_depth_max,
                    sum(1 for j in listing if j["state"] == "queued"))
                for job in listing:
                    with lock:
                        rec = pending.get(job["id"])
                    if rec is None or job["state"] not in TERMINAL:
                        continue
                    rec.job = job
                    self._finish(rec)
                    with lock:
                        del pending[rec.job_id]
        finally:
            thread.join()
        for rec in records:
            if not rec.error and not rec.done:
                rec.error = "timed out"
        for rec in records:
            self._trace(rec)
        return result

    def _finish(self, rec: JobRecord) -> None:
        job = rec.job
        if job["state"] != "done":
            rec.error = f"job {job['state']}: {job.get('error', '')}"
            rec.done = time.perf_counter()
            return
        data = {}
        for name in ARTIFACTS:
            t0 = time.perf_counter()
            data[name] = self.poller.fetch_artifact(rec.job_id, name)
            rec.fetches.append((t0, time.perf_counter()))
        rec.done = time.perf_counter()
        ref = self.oracle.ref(rec.op.specs[0])
        if job["totals"] != ref["totals"]:
            rec.error = "job totals differ from the reference"
        elif (hashlib.sha256(data["patterns"]).hexdigest()
              != ref["patterns_sha256"]):
            rec.error = "patterns artifact differs from the reference"

    def _trace(self, rec: JobRecord) -> None:
        tr = self.tracer
        if not rec.done:
            return
        op = f"job{rec.op.id}"
        root = tr.add("leg", rec.due, rec.done, op)
        tr.add("service.submit", *rec.submit, op, parent=root)
        job = rec.job
        if job.get("started"):
            created = job["created"] - WALL_TO_PERF
            started = job["started"] - WALL_TO_PERF
            tr.add("service.queue_wait", created, started, op, parent=root)
            if job.get("finished"):
                tr.add("service.run", started,
                       job["finished"] - WALL_TO_PERF, op, parent=root)
        for t0, t1 in rec.fetches:
            tr.add("service.fetch", t0, t1, op, parent=root)
