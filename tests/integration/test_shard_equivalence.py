"""Byte-identity of sharded analysis against the sequential engines.

The acceptance bar for the time-sliced parallel path is the same as the
array engine's: ``pickle.dumps`` equality of the merged ``dump_state``
against a sequential run — pattern keys, bins within keys, cold rids,
footprints, and clock, *including dict insertion order*.  Exercised on
the paper's two headline codes plus CG (irregular index vectors), across
shard counts that place boundaries mid-scope, mid-chunk, and inside
run-compressed affine regions, and through every integration surface:
session, cache, sweep driver, and CLI.
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.apps.gtc import GTCParams, build_gtc
from repro.apps.kernels import irregular_gather, stream_triad
from repro.apps.spcg import build_cg
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.shard import (
    analyze_sharded, analyze_trace_sharded, record_trace,
)
from repro.core.tracestore import TraceStoreWriter
from repro.lang import BatchExecutor
from repro.model import MachineConfig

CFG = MachineConfig.scaled_itanium2()
GRANS = CFG.granularities()

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

BUILDERS = {
    "sweep3d": lambda: build_original(SweepParams(n=6, mm=4, nm=2,
                                                  noct=1)),
    "gtc": lambda: build_gtc(None, GTCParams(mpsi=4, mtheta=6, micell=2,
                                             mzeta=2, timesteps=1)),
    "cg": lambda: build_cg(grid=10, iterations=2),
}


def _leftover_traces(tmpdir):
    return sorted(p.name for p in tmpdir.glob("repro-trace-*"))


@pytest.fixture(scope="module", params=sorted(BUILDERS),
                ids=sorted(BUILDERS))
def workload(request, tmp_path_factory):
    """(recorded trace, pickled sequential reference state) per app."""
    build = BUILDERS[request.param]
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    stats = BatchExecutor(build(), analyzer).run()
    trace, rec_stats = record_trace(
        build(), str(tmp_path_factory.mktemp(request.param)))
    assert vars(rec_stats) == vars(stats)
    return trace, pickle.dumps(analyzer.dump_state())


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_sharded_byte_identical(workload, k):
    trace, ref = workload
    state = analyze_trace_sharded(trace, GRANS, k)
    assert pickle.dumps(state) == ref


def _sequential_ref(build):
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    BatchExecutor(build(), analyzer).run()
    return pickle.dumps(analyzer.dump_state())


def test_boundaries_inside_run_compressed_regions(tmp_path):
    # The triad is one long affine stream: with 7 shards every cut lands
    # mid-row inside regions the numpy engine run-compresses, forcing the
    # partial-row / whole-rows / partial-row split and merge.
    build = lambda: stream_triad(257, 3)
    trace, _ = record_trace(build(), str(tmp_path / "t"))
    state = analyze_trace_sharded(trace, GRANS, 7)
    assert pickle.dumps(state) == _sequential_ref(build)


def test_irregular_gather_sharded():
    build = lambda: irregular_gather(512, 2048)
    state, _stats = analyze_sharded(build(), 5, granularities=GRANS)
    assert pickle.dumps(state) == _sequential_ref(build)


def test_more_shards_than_accesses():
    build = lambda: stream_triad(4, 1)
    state, stats = analyze_sharded(build(), 10 ** 4, granularities=GRANS)
    assert pickle.dumps(state) == _sequential_ref(build)
    assert state["clock"] == stats.accesses


def test_scalar_executor_recording():
    # batch=False records through the scalar Executor (per-access calls,
    # coalesced by the recorder) — same merged bytes.
    build = lambda: build_original(SweepParams(n=5, mm=3, nm=2, noct=1))
    state, _ = analyze_sharded(build(), 3, granularities=GRANS,
                               batch=False)
    assert pickle.dumps(state) == _sequential_ref(build)


def _spilled(build, tmp_path):
    """Record under a 1 KB spill buffer: many flushes, same bytes."""
    return record_trace(build(), TraceStoreWriter(str(tmp_path / "t"),
                                                  spill_mb=0.001))


class TestSpilledEquivalence:
    """A store written across many flushes meets the same bar.

    Traces are force-spilled with a 1 KB buffer so every workload is
    written across many flushes before the shards replay it.
    """

    @pytest.mark.parametrize("app", sorted(BUILDERS))
    @pytest.mark.parametrize("k", [2, 5])
    def test_forced_spill_byte_identical(self, app, k, tmp_path):
        build = BUILDERS[app]
        stored, _ = _spilled(build, tmp_path)
        state = analyze_trace_sharded(stored, GRANS, k)
        assert pickle.dumps(state) == _sequential_ref(build)

    def test_spilled_boundaries_inside_affine_rows(self, tmp_path):
        # 7 shards over the triad put every cut mid-affine-row; on the
        # stored path the partial rows materialize straight off the mmap
        build = lambda: stream_triad(257, 3)
        stored, _ = _spilled(build, tmp_path)
        state = analyze_trace_sharded(stored, GRANS, 7)
        assert pickle.dumps(state) == _sequential_ref(build)

    def test_spilled_boundaries_inside_run_regions(self, tmp_path):
        # gather batches are run-compressed periodic regions; cuts land
        # mid-region and the period must drop on the partial pieces
        build = lambda: irregular_gather(512, 2048)
        stored, _ = _spilled(build, tmp_path)
        state = analyze_trace_sharded(stored, GRANS, 5)
        assert pickle.dumps(state) == _sequential_ref(build)


class TestSessionIntegration:
    def test_session_sharded_matches_sequential(self, tmp_path):
        from repro.tools.cache import AnalysisCache
        from repro.tools.session import AnalysisSession
        build = BUILDERS["sweep3d"]
        seq = AnalysisSession(build(), engine="numpy")
        seq.run()
        ref = pickle.dumps(seq.analyzer.dump_state())

        cache = AnalysisCache(str(tmp_path))
        sh = AnalysisSession(build(), shards=3, cache=cache)
        sh.run()
        assert pickle.dumps(sh.analyzer.dump_state()) == ref
        assert sh.totals() == seq.totals()
        assert sh.manifest.shards == 3
        assert set(sh.manifest.phases) >= {"record", "shard_analyze",
                                           "shard_merge"}
        # merged entry is stored under the sequential key: a later
        # unsharded session of the same engine hits it
        seq2 = AnalysisSession(build(), cache=cache)
        seq2.run()
        assert seq2.from_cache
        assert pickle.dumps(seq2.analyzer.dump_state()) == ref

    def test_session_resumes_from_shard_partials(self, tmp_path):
        import os
        from repro.tools.cache import AnalysisCache
        from repro.tools.session import AnalysisSession
        build = BUILDERS["sweep3d"]
        cache = AnalysisCache(str(tmp_path))
        first = AnalysisSession(build(), shards=3, cache=cache)
        first.run()
        ref = pickle.dumps(first.analyzer.dump_state())
        # drop the merged entry; the three shard partials remain
        merged_key = cache.key_for(first.program, {}, first.config,
                                   "sa", "fenwick")
        os.unlink(cache._path(merged_key))
        hits_before = cache.hits
        again = AnalysisSession(build(), shards=3, cache=cache)
        again.run()
        assert not again.from_cache
        assert cache.hits == hits_before + 3
        assert pickle.dumps(again.analyzer.dump_state()) == ref

    def test_session_trace_store_matches_sequential(self, tmp_path,
                                                     trace_tmpdir):
        """A sharded session records into a private store under $TMPDIR
        and removes it when the run ends."""
        from repro.core import tracestore
        from repro.tools.cache import AnalysisCache
        from repro.tools.session import AnalysisSession
        build = BUILDERS["sweep3d"]
        ref = _sequential_ref(build)
        seen = []
        real_split = tracestore.split_stored_trace

        def spy(trace, k):
            seen.append(_leftover_traces(trace_tmpdir))
            return real_split(trace, k)

        cache = AnalysisCache(str(tmp_path / "cache"))
        sh = AnalysisSession(build(), shards=3, cache=cache)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracestore, "split_stored_trace", spy)
            sh.run()
        assert pickle.dumps(sh.analyzer.dump_state()) == ref
        # the store lived under $TMPDIR while the shards ran...
        assert len(seen) == 1 and len(seen[0]) == 1
        # ...and is gone now
        assert _leftover_traces(trace_tmpdir) == []
        # merged entry still lives under the sequential key
        seq = AnalysisSession(build(), cache=cache)
        seq.run()
        assert seq.from_cache
        assert pickle.dumps(seq.analyzer.dump_state()) == ref

    def test_trace_store_without_sharding(self, trace_tmpdir, monkeypatch):
        """An unsharded session executes straight into its engine and
        never records a trace store."""
        from repro.core import shard
        from repro.tools.session import AnalysisSession

        def boom(*_a, **_k):
            raise AssertionError("unsharded run recorded a trace")

        monkeypatch.setattr(shard, "record_trace", boom)
        build = BUILDERS["sweep3d"]
        session = AnalysisSession(build(), engine="numpy")
        session.run()
        assert session.fallback is None
        assert pickle.dumps(session.analyzer.dump_state()) == \
            _sequential_ref(build)
        assert list(trace_tmpdir.iterdir()) == []

    def test_trace_store_rejects_simulation(self):
        """Where the store goes and how it spills are not session
        options: $TMPDIR and the default spill buffer decide."""
        from repro.tools.session import AnalysisSession
        for knob in ({"trace_store": "/tmp/nope"}, {"spill_mb": 1.0}):
            with pytest.raises(TypeError):
                AnalysisSession(BUILDERS["sweep3d"](), simulate=True,
                                **knob)

    def test_session_rejects_sharded_simulation(self):
        from repro.tools.session import AnalysisSession
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), shards=2,
                            simulate=True)
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), shards=0)


class TestSweepIntegration:
    def test_sharded_task_matches_plain(self, tmp_path):
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        tasks = [
            SweepTask(key="plain", builder=build_original, args=(params,),
                      cache_dir=str(tmp_path / "cache")),
            # its own cache: sharded and plain runs share merged entries,
            # so a shared cache would serve this task without sharding
            SweepTask(key="sharded", builder=build_original,
                      args=(params,), shards=3,
                      cache_dir=str(tmp_path / "cache-sharded")),
        ]
        plain, sharded = run_sweep(tasks, jobs=1)
        assert plain.error is None and sharded.error is None
        assert not sharded.from_cache
        assert pickle.dumps(sharded.state) == pickle.dumps(plain.state)
        assert sharded.totals == plain.totals
        assert sharded.shards == 3 and plain.shards == 1
        assert sharded.stats.accesses == plain.stats.accesses
        # the sharded session wrote its merged state through: the pooled
        # re-run is pure cache hits, same bytes
        again = run_sweep(tasks, jobs=2)
        assert all(out.from_cache for out in again)
        assert pickle.dumps(again[1].state) == pickle.dumps(plain.state)

    def test_trace_dir_task_matches_plain(self, tmp_path, trace_tmpdir):
        """A jobs=2 sharded sweep records each task into a private store
        under $TMPDIR and leaves none behind."""
        from repro.tools.sweep import SweepTask, run_sweep
        grid = [SweepParams(n=n, mm=4, nm=2, noct=1) for n in (5, 6)]
        plain = run_sweep([SweepTask(key=p.n, builder=build_original,
                                     args=(p,)) for p in grid])
        sharded = run_sweep([SweepTask(key=p.n, builder=build_original,
                                       args=(p,), shards=3)
                             for p in grid], jobs=2)
        assert [out.error for out in sharded] == [None, None]
        assert [pickle.dumps(out.state) for out in sharded] == \
            [pickle.dumps(out.state) for out in plain]
        assert [out.stats.accesses for out in sharded] == \
            [out.stats.accesses for out in plain]
        assert _leftover_traces(trace_tmpdir) == []

    def test_sharded_task_writes_through_its_cache(self, tmp_path):
        from dataclasses import replace
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        ref = _sequential_ref(lambda: build_original(params))
        task = SweepTask(key="s", builder=build_original, args=(params,),
                         shards=3, cache_dir=str(tmp_path))
        (first,) = run_sweep([task])
        assert not first.from_cache
        assert pickle.dumps(first.state) == ref
        again = run_sweep([task, replace(task, key="t")], jobs=2)
        assert all(out.from_cache for out in again)
        assert [pickle.dumps(out.state) for out in again] == [ref, ref]

    def test_pool_expansion_without_cache(self, obs_on, monkeypatch):
        """Two sharded tasks at jobs=2: each pool unit starts its own
        session shard pool inside a sweep worker."""
        from repro.tools.sweep import SweepTask, run_sweep
        # four CPUs split between two sweep workers: a two-process shard
        # pool per unit on any host
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        grid = [SweepParams(n=n, mm=4, nm=2, noct=1) for n in (5, 6)]
        refs = [_sequential_ref(lambda p=p: build_original(p))
                for p in grid]
        outs = run_sweep([SweepTask(key=p.n, builder=build_original,
                                    args=(p,), shards=4)
                          for p in grid], jobs=2)
        assert [out.error for out in outs] == [None, None]
        assert [pickle.dumps(out.state) for out in outs] == refs
        # every shard ran (no fenwick fallback hid a pool failure)
        counters = obs_on.snapshot()["counters"]
        assert counters["shard.workers"] == 8
        assert "resil.fallbacks" not in counters

    def test_measure_mode_rejects_shards(self):
        """The simulator's LRU state is order-dependent: a sharded
        measure task is refused at construction, not run unsharded."""
        from repro.apps.sweep3d import build_variant
        from repro.tools.sweep import SweepTask
        params = SweepParams(n=5, mm=3, nm=2, noct=1)
        with pytest.raises(ValueError, match="measure mode cannot shard"):
            SweepTask(key="orig", builder=build_variant,
                      args=("original", params), mode="measure",
                      shards=2, measure_kwargs={"name": "orig"})

    def test_manifest_rows_carry_engine_and_shards(self):
        from repro.tools.sweep import (
            SweepTask, build_sweep_manifest, run_sweep,
        )
        params = SweepParams(n=5, mm=3, nm=2, noct=1)
        outs = run_sweep([SweepTask(key="s", builder=build_original,
                                    args=(params,), shards=2,
                                    engine="numpy")])
        manifest = build_sweep_manifest(outs)
        (row,) = manifest["task_summaries"]
        assert row["engine"] == "numpy"
        assert row["shards"] == 2

    def test_failing_builder_in_sharded_task(self):
        from repro.tools.sweep import SweepTask, run_sweep
        (out,) = run_sweep([SweepTask(key="boom", builder=_exploding,
                                      shards=3)], jobs=1)
        assert out.failed
        assert "RuntimeError" in out.error


def _exploding():
    raise RuntimeError("builder exploded")


class TestCLIIntegration:
    def test_analyze_with_shards(self, capsys):
        from repro.cli import main
        assert main(["analyze", "fig1", "--shards", "3",
                     "--no-cache"]) == 0
        out = capsys.readouterr()
        assert "3 time shards" in out.err
        assert "predicted misses" in out.out

    @staticmethod
    def _repro(argv, tmpdir):
        env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=_SRC)
        return subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def test_analyze_with_spill(self, trace_tmpdir):
        """``repro analyze --shards`` spills its recording to a private
        store under $TMPDIR and removes it before exiting."""
        proc = self._repro(["analyze", "fig1", "--shards", "2",
                            "--no-cache"], trace_tmpdir)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "2 time shards" in err
        assert "predicted misses" in out
        assert _leftover_traces(trace_tmpdir) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "sweep3d", "--mesh", "16", "--engine", "numpy",
         "--no-cache"],
        # an inline sweep runs its sharded session in the CLI process
        ["sweep", "sweep3d", "--mesh", "16", "--engine", "numpy",
         "--jobs", "1"],
    ], ids=["analyze", "sweep"])
    def test_sigterm_leaves_no_trace(self, trace_tmpdir, argv):
        """SIGTERM mid-run unwinds through the store's cleanup."""
        proc = self._repro(argv + ["--shards", "2"], trace_tmpdir)
        try:
            give_up = time.monotonic() + 60
            while not _leftover_traces(trace_tmpdir):
                assert proc.poll() is None, "run ended before recording"
                assert time.monotonic() < give_up
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 128 + signal.SIGTERM
        assert _leftover_traces(trace_tmpdir) == []

    def test_sharded_manifest_renders(self, obs_on, tmp_path):
        from repro.obs.manifest import RunManifest
        from repro.tools.session import AnalysisSession
        session = AnalysisSession(BUILDERS["sweep3d"](), shards=2)
        session.run()
        path = session.manifest.save(str(tmp_path / "m.json"))
        text = RunManifest.load(path).render()
        assert "sharded: 2 time shards" in text
        assert "boundary accesses resolved at merge" in text
        assert "shard.boundary_unresolved" in text
