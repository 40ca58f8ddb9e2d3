"""Unit tests for the time-sliced shard machinery.

Recording fidelity, trace splitting invariants (contiguity, seed scope
stacks, boundary placement), the degenerate shard counts, and the shard
observability counters.  Hand-built streams are small trace stores
written op by op, so every cut case runs through the one splitter.
Byte-identity of the merged output against the sequential engines lives
in ``tests/integration/test_shard_equivalence``.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.apps.kernels import stream_triad
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.shard import (
    ShardBatchState, StreamRecorder, analyze_shard, analyze_trace_sharded,
    merge_shard_results, record_trace, run_shards,
)
from repro.core.tracestore import TraceStore, split_stored_trace
from repro.lang import BatchExecutor
from repro.model import MachineConfig
from tests.helpers import slice_ops, write_store

GRANS = MachineConfig.scaled_itanium2().granularities()


def _sweep():
    return build_original(SweepParams(n=6, mm=3, nm=2, noct=1))


def _slice_accesses(sl) -> int:
    total = 0
    for op in slice_ops(sl):
        if op[0] == "batch":
            total += len(op[2])
        elif op[0] == "rows":
            total += op[5] * len(op[3])
    return total


class TestRecording:
    def test_recorded_stats_match_direct_run(self, tmp_path):
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        direct = BatchExecutor(_sweep(), analyzer).run()
        trace, stats = record_trace(_sweep(), str(tmp_path / "t"))
        assert vars(stats) == vars(direct)
        assert trace.accesses == direct.accesses

    def test_rows_stay_unmaterialized(self, tmp_path):
        # The triad's inner loops are affine: recording must keep them as
        # rows ops, not expand them into per-access batch payloads.
        trace, stats = record_trace(stream_triad(512, 2),
                                    str(tmp_path / "t"))
        (sl,) = split_stored_trace(trace, 1)
        ops = slice_ops(sl)
        assert any(op[0] == "rows" for op in ops)
        materialized = sum(len(op[2]) for op in ops if op[0] == "batch")
        assert materialized < stats.accesses

    def test_scalar_coalescing(self, monkeypatch):
        ops = []
        rec = StreamRecorder(SimpleNamespace(add_op=ops.append))
        rec.enter_scope(1)
        for addr in (0, 64, 128):
            rec.access(0, addr, False)
        rec.exit_scope(1)
        assert ops == [("enter", 1),
                       ("batch", [0, 0, 0], [0, 64, 128],
                        [False, False, False], 0),
                       ("exit", 1)]
        # open scalar segments close at the cap, bounding the buffer
        ops.clear()
        monkeypatch.setattr(StreamRecorder, "COALESCE_CAP", 2)
        for addr in (0, 64, 128):
            rec.access(0, addr, False)
        rec._close()
        assert [op[2] for op in ops] == [[0, 64], [128]]


class TestSplitting:
    def test_contiguous_cover(self, tmp_path):
        trace, _ = record_trace(_sweep(), str(tmp_path / "t"))
        for k in (1, 2, 3, 5, 7, 8):
            slices = split_stored_trace(trace, k)
            assert len(slices) == k
            assert slices[0].start == 0
            for prev, cur in zip(slices, slices[1:]):
                assert cur.start == prev.start + prev.length
            assert sum(sl.length for sl in slices) == trace.accesses
            for sl in slices:
                assert _slice_accesses(sl) == sl.length
                # seed scopes were all entered strictly before the shard
                assert all(c < sl.start or sl.length == 0
                           for c in sl.seed_clocks)
                assert len(sl.seed_sids) == len(sl.seed_clocks)

    def test_seed_stack_matches_replay(self, tmp_path):
        trace, _ = record_trace(_sweep(), str(tmp_path / "t"))
        (whole,) = split_stored_trace(trace, 1)
        slices = split_stored_trace(trace, 4)
        stack = []
        consumed = 0
        cut_points = {sl.start: sl for sl in slices[1:]}
        for op in slice_ops(whole):
            if op[0] == "batch":
                n = len(op[2])
            elif op[0] == "rows":
                n = op[5] * len(op[3])
            else:
                n = 0
            # a cut on a scope event seeds the stack from before it (the
            # event opens the next shard); a cut inside or at the start
            # of a data op seeds the stack live around that op
            for cut in [c for c in cut_points
                        if c == consumed or consumed < c < consumed + n]:
                sl = cut_points.pop(cut)
                assert list(sl.seed_sids) == [s for s, _c in stack]
                assert list(sl.seed_clocks) == [c for _s, c in stack]
            if op[0] == "enter":
                stack.append((op[1], consumed))
            elif op[0] == "exit":
                stack.pop()
            consumed += n
        assert not cut_points

    def test_more_shards_than_accesses_clamps(self, tmp_path):
        trace, _ = record_trace(stream_triad(4, 1), str(tmp_path / "t"))
        slices = split_stored_trace(trace, 10 ** 6)
        assert len(slices) == trace.accesses
        assert all(sl.length == 1 for sl in slices)

    def test_empty_trace_single_shard(self, tmp_path):
        slices = split_stored_trace(write_store(str(tmp_path / "t"), ()),
                                    7)
        assert len(slices) == 1
        assert slices[0].length == 0 and slice_ops(slices[0]) == []

    def test_scope_event_on_cut_goes_to_next_shard(self, tmp_path):
        # accesses 0,1 | 2,3 — the exit/enter pair lands exactly on the
        # cut and must open shard 1, so its seeds stay strictly pre-start.
        ops = (("enter", 1),
               ("batch", [0, 0], [0, 64], [False, False], 0),
               ("exit", 1),
               ("enter", 2),
               ("batch", [0, 0], [0, 128], [False, False], 0),
               ("exit", 2))
        slices = split_stored_trace(
            write_store(str(tmp_path / "t"), ops), 2)
        assert slice_ops(slices[0])[-1][0] == "batch"
        assert slice_ops(slices[1])[0] == ("exit", 1)
        assert slices[1].seed_sids == (1,)
        assert slices[1].seed_clocks == (0,)

    def test_mid_row_cut_materializes_only_partial_rows(self, tmp_path):
        # One rows op: 3 refs/iteration x 4 iterations = 12 accesses.
        ops = (("rows", (0, 1, 2), (False, False, True),
                (0, 1000, 2000), (8, 8, 8), 4),)
        slices = split_stored_trace(
            write_store(str(tmp_path / "t"), ops), 3)
        # 12/3 = 4 accesses per shard: every boundary is mid-row.
        replayed = [slice_ops(sl) for sl in slices]
        kinds = [[op[0] for op in sl_ops] for sl_ops in replayed]
        assert kinds[0] == ["rows", "batch"]          # 1 whole row + 1 ref
        assert kinds[1] == ["batch", "batch"]         # tail + head partials
        assert kinds[2] == ["batch", "rows"]
        assert [_slice_accesses(sl) for sl in slices] == [4, 4, 4]
        # the resumed whole-row piece keeps its stride with shifted bases
        assert replayed[2][1] == ("rows", (0, 1, 2), (False, False, True),
                                  (24, 1024, 2024), (8, 8, 8), 1)

    def test_emit_rows_piece_middle_rows_stay_unmaterialized(self):
        from repro.core.tracestore import _emit_rows_piece
        out = []
        _emit_rows_piece(out, (0, 1, 2), (False, False, True),
                         (0, 1000, 2000), (8, 8, 8), 3, 1, 8)
        assert out == [
            ("batch", [1, 2], [1000, 2000], [False, True], 0),
            ("rows", (0, 1, 2), (False, False, True),
             (8, 1008, 2008), (8, 8, 8), 2),
        ]


class TestShardAnalysis:
    def test_shard_workers_never_classify_cold(self, tmp_path):
        trace, _ = record_trace(stream_triad(128, 2), str(tmp_path / "t"))
        for sl in split_stored_trace(trace, 3):
            res = analyze_shard(sl, GRANS)
            for g in res.grans:
                assert g["unresolved"]
                # boundary set is time-ordered
                clocks = [e[1] for e in g["unresolved"]]
                assert clocks == sorted(clocks)

    def test_merge_single_shard_equals_sequential(self, tmp_path):
        build = lambda: stream_triad(128, 2)
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        BatchExecutor(build(), analyzer).run()
        trace, _ = record_trace(build(), str(tmp_path / "t"))
        (sl,) = split_stored_trace(trace, 1)
        state = merge_shard_results([analyze_shard(sl, GRANS)], GRANS,
                                    trace.accesses)
        assert pickle.dumps(state) == pickle.dumps(analyzer.dump_state())

    def test_results_merge_in_any_order(self, tmp_path):
        trace, _ = record_trace(stream_triad(128, 2), str(tmp_path / "t"))
        slices = split_stored_trace(trace, 4)
        results = [analyze_shard(sl, GRANS) for sl in slices]
        forward = merge_shard_results(results, GRANS, trace.accesses)
        shuffled = merge_shard_results(list(reversed(results)), GRANS,
                                       trace.accesses)
        assert pickle.dumps(shuffled) == pickle.dumps(forward)

    def test_boundary_counter_and_worker_metrics(self, obs_on, tmp_path):
        trace, _ = record_trace(stream_triad(128, 2), str(tmp_path / "t"))
        state = analyze_trace_sharded(trace, GRANS, 3)
        assert state["clock"] == trace.accesses
        counters = obs_on.snapshot()["counters"]
        assert counters["shard.workers"] == 3
        assert counters["shard.boundary_unresolved"] > 0
        timers = obs_on.snapshot()["timers"]
        assert timers["shard.worker_latency"]["count"] == 3

    def test_run_shards_pool_matches_inline(self, tmp_path):
        trace, _ = record_trace(stream_triad(256, 2), str(tmp_path / "t"))
        slices = split_stored_trace(TraceStore(trace.path), 3)
        inline = run_shards(slices, GRANS, jobs=1)
        pooled = run_shards(slices, GRANS, jobs=2)
        key = lambda rs: pickle.dumps(
            merge_shard_results(rs, GRANS, trace.accesses))
        assert key(pooled) == key(inline)

    def test_seed_depth_shrinks_on_seed_exit(self):
        # A shard that exits a seeded scope must not attribute later
        # boundary reuses to it: _seed_live tracks the shrinking prefix.
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        state = ShardBatchState(analyzer, seed_len=2)
        analyzer._install_numpy_state(state)
        analyzer.clock = 10
        analyzer.stack._sids.extend([1, 2])
        analyzer.stack._clocks.extend([0, 5])
        analyzer.exit_scope(2)
        assert state._seed_live == 1
        analyzer.enter_scope(3)
        assert state._seed_live == 1
        analyzer.exit_scope(3)
        assert state._seed_live == 1
        analyzer.exit_scope(1)
        assert state._seed_live == 0


@pytest.mark.parametrize("shards", [0, -3])
def test_invalid_shard_count_clamps_to_one(shards, tmp_path):
    trace, _ = record_trace(stream_triad(16, 1), str(tmp_path / "t"))
    assert len(split_stored_trace(trace, shards)) == 1
