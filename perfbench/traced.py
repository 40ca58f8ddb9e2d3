"""The traced run: per-layer cost on one workload's own inputs.

Spans come from this file only, around calls into each layer's public
functions; nothing inside ``src/`` is instrumented.  Every analysis the
workload generates is replayed in-process through the same stages
``repro analyze`` and the service worker go through:

    apps.build -> tools.cache_key -> tools.cache_get
      -> lang.execute (handler discarding events) -> core.engine
         -> core.flush (dump_state right after the executor)
      |  static.estimate  |  static.closedform_eval
      -> tools.cache_put -> bench.handoff -> model.predict
      -> tools.report -> tools.export

A hit restores the cached state inside ``tools.cache_get``, as ``repro
analyze`` does.  After a miss the replay hands its state to a fresh
``AnalysisSession`` (``bench.handoff``), work the program never does.

Sweeps also go through ``run_sweep`` (``tools.sweep``).  Layers the
workload's own path never reaches are timed by one bounded *leg* on the
workload's first inputs, so every layer reports on every workload: a
closed-form derivation, a two-task sweep and two jobs on a live server
(``service.*``).
"""

from __future__ import annotations

import re
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.common import child_env, fresh_dir, median
from perfbench.ops import Op, Spec
from perfbench.oracle import Oracle
from perfbench.service import JobsResult, JobRunner, Server
from perfbench.spans import Tracer

#: per_layer metrics that are not seconds per span
COUNTS = ("lang.accesses", "static.closedform_fallbacks",
          "service.refused", "service.queue_depth_max")
FRACS = ("tools.cache_hit_ratio", "tools.sweep_pool_util",
         "bench.trace_overhead_frac", "bench.unattributed_frac")
#: layers reported as mean self seconds per span
LAYERS = ("apps.build", "lang.execute", "core.engine", "core.flush",
          "static.estimate", "static.closedform_derive",
          "static.closedform_eval", "model.predict", "tools.report",
          "tools.export", "tools.cache_key", "tools.cache_get",
          "tools.cache_put", "tools.sweep_unit", "service.submit",
          "service.queue_wait", "service.run", "service.fetch")
#: span of the replay's own state handoff; no layer of the program,
#: left out of the op wall ``bench.unattributed_frac`` divides by
HANDOFF = "bench.handoff"
#: executed analyses replayed both with and without spans
OVERHEAD_PAIRS = 2
IMPORT_REPEATS = 3


def per_layer_names() -> List[str]:
    return (["cli.import_s", "cli.import_deps_s"]
            + [f"{name}_s" for name in LAYERS] + list(COUNTS)
            + list(FRACS) + ["bench.lag_s"])


def unit_of(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name in FRACS:
        return "frac"
    return "s"


class _Handoff:
    """Cache stand-in through which ``AnalysisSession`` restores a state
    the replay computed, exactly as ``repro analyze`` does on a hit
    (``load_state`` and the run manifest)."""

    def __init__(self, state, stats) -> None:
        self.payload = {"analyzer_state": state, "stats": stats}

    def key_for(self, *args) -> str:
        return "handoff"

    def get(self, key: str):
        return self.payload

    def put(self, key: str, payload) -> None:
        pass


def _discard_handler(analyzer):
    """A handler that drops every event, with the same batch entry
    points as ``analyzer``, so the executor takes the same path (the
    row path only for an analyzer with ``access_rows``)."""
    from repro.lang.events import EventHandler

    handler = EventHandler()
    for name in ("access_batch", "access_rows"):
        if hasattr(analyzer, name):
            setattr(handler, name, lambda *args, **kwargs: None)
    return handler


class Replay:
    """In-process pipeline replays sharing one fresh analysis cache."""

    def __init__(self, oracle: Oracle, rundir: Path,
                 tracer: Tracer) -> None:
        from repro.model.config import MachineConfig
        from repro.tools.cache import AnalysisCache

        self.oracle = oracle
        self.rundir = rundir
        self.tracer = tracer
        self.config = MachineConfig.scaled_itanium2()
        self.cache = AnalysisCache(str(fresh_dir(rundir / "cache")))
        self.outdir = fresh_dir(rundir / "out")
        self.gets = self.hits = self.executed = self.fallbacks = 0
        self.errors: List[str] = []
        self.sweep_units: List[float] = []
        #: (sum of unit seconds, wall seconds) per run_sweep call
        self.sweep_pool: List[Tuple[float, float]] = []

    def derive(self, specs: Sequence[Spec], op: str):
        """Derive once for a closed-form op, sampled on its own sizes
        the way ``run_sweep`` does."""
        from repro.static.closedform import (
            PRIMARY_FREE, default_samples, derive,
        )

        workload = specs[0].workload
        free = PRIMARY_FREE[workload]
        values = sorted(s.pdict()[free] for s in specs)
        with self.tracer.span("static.closedform_derive", op):
            return derive(workload, {free: values[-1]}, free=free,
                          granularities=self.config.granularities(),
                          samples=default_samples(workload, free, values))

    def analysis(self, spec: Spec, op: str, derivation=None) -> None:
        from repro.apps.registry import build_workload
        from repro.core.analyzer import ReuseAnalyzer
        from repro.lang.batch import BatchExecutor
        from repro.static.profile import static_profile
        from repro.tools.session import AnalysisSession

        tr, grans = self.tracer, self.config.granularities()
        with tr.span("apps.build", op):
            program = build_workload(spec.workload, **spec.pdict())
        with tr.span("tools.cache_key", op):
            key = self.cache.key_for(program, {}, self.config, "sa",
                                     spec.engine)

        def restore(state, stats) -> AnalysisSession:
            return AnalysisSession(program, config=self.config,
                                   engine=spec.engine,
                                   cache=_Handoff(state, stats)).run()

        with tr.span("tools.cache_get", op):
            payload = self.cache.get(key)
            if payload is not None:
                # the restore a hit costs ``repro analyze`` too
                session = restore(payload["analyzer_state"],
                                  payload["stats"])
        self.gets += 1
        if payload is not None:
            self.hits += 1
        else:
            if spec.closed_form:
                with tr.span("static.closedform_eval", op):
                    state, stats, fallbacks = derivation.evaluate(
                        spec.pdict()[derivation.free])
                self.fallbacks += fallbacks
            elif spec.engine == "static":
                with tr.span("static.estimate", op):
                    state, stats = static_profile(program, grans)
            else:
                analyzer = ReuseAnalyzer(grans, engine=spec.engine)
                with tr.span("lang.execute", op):
                    BatchExecutor(program,
                                  _discard_handler(analyzer)).run()
                with tr.span("core.engine", op):
                    stats = BatchExecutor(program, analyzer).run()
                with tr.span("core.flush", op):
                    state = analyzer.dump_state()
                self.executed += stats.accesses
            with tr.span("tools.cache_put", op):
                self.cache.put(key, {"analyzer_state": state,
                                     "stats": stats})
            # replay-only work: a miss leaves the program's own session
            # holding its state already
            with tr.span(HANDOFF, op):
                session = restore(state, stats)
        with tr.span("model.predict", op):
            totals = session.totals()
        with tr.span("tools.report", op):
            "\n".join([
                str(session.config), str(totals),
                session.render_carried(n=6),
                session.render_table2("L2", top_scopes=5),
                session.render_fragmentation("L2", n=6),
                session.viewer.render_arrays(n=8),
                session.render_recommendations("L2", top_n=6)])
        with tr.span("tools.export", op):
            session.export_xml(str(self.outdir / f"{op}.xml"))
            session.export_html(str(self.outdir / f"{op}.html"))
        if totals != self.oracle.ref(spec)["totals"]:
            self.errors.append(f"{op} {spec.label}: totals differ from "
                               "the reference")

    def op(self, op: Op, root: str = "op") -> None:
        """Replay one generated operation under a root span.  Sweeps and
        legs start from an empty cache: ``repro sweep`` runs uncached,
        and a leg must reach the layer it exists to time."""
        from repro.tools.cache import AnalysisCache

        name = f"op{op.id}"
        if op.kind == "sweep" or root != "op":
            self.cache = AnalysisCache(
                str(fresh_dir(self.rundir / f"cache-{name}")))
        with self.tracer.span(root, name):
            derivation = None
            if op.specs[0].closed_form:
                derivation = self.derive(op.specs, name)
            if op.kind == "sweep":
                self.sweep(op.specs, name)
            for spec in op.specs:
                self.analysis(spec, name, derivation)

    def sweep(self, specs: Sequence[Spec], op: str) -> None:
        from repro.apps.registry import build_workload
        from repro.tools.sweep import SweepTask, run_sweep

        tasks = [SweepTask(
            key=s.label, builder=build_workload, args=(s.workload,),
            kwargs=s.pdict(), engine=s.engine,
            closed_form=({"workload": s.workload, "params": s.pdict()}
                         if s.closed_form else None)) for s in specs]
        t0 = time.perf_counter()
        with self.tracer.span("tools.sweep", op):
            outcomes = run_sweep(tasks, jobs=2)
        wall = time.perf_counter() - t0
        self.sweep_units.extend(out.duration for out in outcomes)
        self.sweep_pool.append((sum(o.duration for o in outcomes), wall))
        for spec, out in zip(specs, outcomes):
            if out.failed or out.totals != self.oracle.ref(spec)["totals"]:
                self.errors.append(f"{op} sweep {spec.label}: "
                                   f"{out.error or 'totals differ'}")


def measure_import(rundir: Path) -> Tuple[float, float]:
    """(``import repro.cli`` seconds, of which numpy and scipy), from
    ``python -X importtime`` in fresh processes; medians."""
    import sys

    env = child_env(rundir / "tmp")
    total, deps = [], []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, cwd=rundir, capture_output=True, text=True,
            timeout=120, check=True)
        cli_us = dep_us = 0
        for line in res.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)",
                         line)
            if not m:
                continue
            self_us, cum_us, module = int(m[1]), int(m[2]), m[3]
            if module == "repro.cli":
                cli_us = cum_us
            if module.split(".")[0] in ("numpy", "scipy"):
                dep_us += self_us
        total.append(cli_us / 1e6)
        deps.append(dep_us / 1e6)
    return median(total), median(deps)


def _overhead(oracle: Oracle, rundir: Path, specs: List[Spec]) -> float:
    """Replay each spec with and without spans (alternating which goes
    first, each on its own fresh cache); traced/untraced - 1."""
    sums = {True: 0.0, False: 0.0}
    for i, spec in enumerate(specs):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            replay = Replay(oracle, rundir / "overhead",
                            Tracer(enabled=traced))
            t0 = time.perf_counter()
            replay.analysis(spec, f"pair{i}")
            sums[traced] += time.perf_counter() - t0
    return sums[True] / sums[False] - 1.0


def _leg_specs(ops: List[Op]) -> List[Spec]:
    """The first two distinct plain analyses of the workload."""
    out: List[Spec] = []
    for op in ops:
        for spec in op.specs:
            plain = Spec(spec.workload, spec.params, spec.engine)
            if plain not in out:
                out.append(plain)
            if len(out) == 2:
                return out
    return out


def cf_leg_spec(ops: List[Op]) -> Spec:
    """The closed-form leg: the workload's first Sweep3D size (every
    workload has one)."""
    params = next(s.params for op in ops for s in op.specs
                  if s.workload == "sweep3d")
    return Spec("sweep3d", params, "static", True)


def traced_run(ops: List[Op], oracle: Oracle, rundir: Path) -> Dict:
    """Run the traced replay; return ``{"metrics", "info", "errors",
    "tracer"}``."""
    tracer = Tracer()
    replay = Replay(oracle, rundir, tracer)
    import_s, deps_s = measure_import(rundir)
    for op in ops:
        replay.op(op)
    # counted before the legs, so they depend on the op list alone
    expected = _expected_counts(ops, oracle)
    observed = (replay.executed, replay.hits, replay.gets)

    if not any(s.closed_form for op in ops for s in op.specs):
        replay.op(Op(-1, "analyze", (cf_leg_spec(ops),)), root="leg")
    legs = _leg_specs(ops)
    if not any(op.kind == "sweep" for op in ops):
        replay.op(Op(-2, "sweep", tuple(legs)), root="leg")
    jobs = _service_leg([Op(-3 - i, "job", (s,), due=float(i))
                         for i, s in enumerate(legs)],
                        oracle, rundir, tracer)

    executed = [s for op in ops for s in op.specs
                if s.engine in ("fenwick", "numpy")]
    overhead = _overhead(oracle, rundir, executed[:OVERHEAD_PAIRS])

    selfs = tracer.self_times()
    metrics: Dict[str, float] = {"cli.import_s": import_s,
                                 "cli.import_deps_s": deps_s}
    for layer in LAYERS:
        spans = selfs.get(layer, [])
        if layer == "tools.sweep_unit":
            spans = replay.sweep_units
        metrics[f"{layer}_s"] = statistics.fmean(spans) if spans else 0.0
    # the analyzer's own share: the run with the analyzer minus the
    # same program under the discarding handler
    metrics["core.engine_s"] -= metrics["lang.execute_s"]
    records = jobs.records
    busy = sum(b for b, _ in replay.sweep_pool)
    wall = sum(w for _, w in replay.sweep_pool)
    metrics.update({
        "lang.accesses": observed[0],
        "static.closedform_fallbacks": replay.fallbacks,
        "service.refused": sum(r.refused for r in records),
        "service.queue_depth_max": jobs.queue_depth_max,
        "tools.cache_hit_ratio": observed[1] / observed[2],
        "tools.sweep_pool_util": busy / (2 * wall),
        "bench.trace_overhead_frac": overhead,
        "bench.unattributed_frac": _unattributed(tracer, selfs),
        "bench.lag_s": max(jobs.lag),
    })
    errors = list(replay.errors)
    errors += [f"job{r.op.id}: {r.error}" for r in records if r.error]
    if observed != expected:
        errors.append(f"replay counts (executed accesses, cache hits, "
                      f"gets) {observed} != expected {expected}")
    return {"metrics": metrics, "errors": errors, "tracer": tracer,
            # every replayed analysis, run_sweep call and service job
            "attempted": replay.gets + len(replay.sweep_pool) + len(records),
            "info": {"traced_ops": len(ops),
                     "lang_accesses_expected": expected[0],
                     "cache_hits_expected": expected[1]}}


def _expected_counts(ops: List[Op], oracle: Oracle) -> Tuple[int, int, int]:
    """What the replay must count for these ops, from the op list alone:
    executed accesses, cache hits and cache gets."""
    seen, executed, hits, gets = set(), 0, 0, 0
    for op in ops:
        if op.kind == "sweep":
            seen = set()
        for spec in op.specs:
            key = (spec.workload, spec.params, spec.engine)
            gets += 1
            if key in seen:
                hits += 1
            elif spec.engine in ("fenwick", "numpy"):
                executed += oracle.accesses(spec)
            seen.add(key)
    return executed, hits, gets


def _unattributed(tracer: Tracer, selfs: Dict[str, List[float]]) -> float:
    """The share of the ops' wall time no layer span covers: the ops'
    self time over their wall time, less the replay's own handoffs."""
    ops = {op for name, _, _, _, op in tracer.spans if name == "op"}
    handoff = sum(end - start for name, start, end, _, op in tracer.spans
                  if name == HANDOFF and op in ops)
    return sum(selfs["op"]) / (tracer.wall("op") - handoff)


def _service_leg(ops: List[Op], oracle: Oracle, rundir: Path,
                 tracer: Tracer) -> JobsResult:
    """Run ``ops`` as jobs on one fresh server, one every half second."""
    server = Server(rundir / "state", child_env(rundir / "tmp"),
                    rundir / "serve.log")
    try:
        server.start()
        runner = JobRunner(server, oracle, tracer)
        try:
            return runner.run_jobs(ops, period=0.5)
        finally:
            runner.close()
    finally:
        server.stop()
