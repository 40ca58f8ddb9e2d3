"""Unit tests for the spillable columnar trace store.

Writer spill bounds, digest stability across flush placement, the
on-disk format guards, replay fidelity against the recorder's own op
stream, cleanup of a failed recording, and the ``trace.*``
observability counters.  Cut semantics live in ``tests/core/test_shard``;
merged byte-identity of sharded analysis against the sequential engines
lives in ``tests/integration/test_shard_equivalence``.
"""

import json
import os
import tempfile
from types import SimpleNamespace

import pytest

from repro.apps.kernels import stream_triad
from repro.apps.sweep3d import SweepParams, build_original
from repro.core.shard import analyze_sharded, record_trace
from repro.core.tracestore import (
    TRACESTORE_VERSION, StoredTrace, TraceStore, TraceStoreWriter,
    load_trace, replay_slice, split_stored_trace,
)
from tests.helpers import OpCollector


def _build():
    return build_original(SweepParams(n=6, mm=3, nm=2, noct=1))


class TestWriter:
    def test_roundtrip_meta(self, tmp_path):
        stored, stats = record_trace(_build(), str(tmp_path / "t"))
        assert isinstance(stored, StoredTrace)
        assert stored.accesses == stats.accesses > 0
        assert stored.nops > 0
        assert len(stored.digest) == 64
        loaded = load_trace(stored.path)
        assert loaded == stored
        store = TraceStore(stored.path)
        assert store.ops.shape == (stored.nops, 4)

    def test_forced_spill_bounds_buffer(self, tmp_path):
        writer = TraceStoreWriter(str(tmp_path / "t"), spill_mb=0.001)
        record_trace(_build(), writer)
        assert writer.flushes > 1
        assert writer.spilled_bytes > 0
        # the buffer never held the whole trace...
        assert writer.max_buffered < writer.spilled_bytes
        # ...and the high-water mark respects the bound up to one op's
        # worth of overshoot (the check runs after each append)
        assert writer.max_buffered < 2 * writer.spill_limit
        # everything buffered reached disk
        on_disk = sum(
            os.path.getsize(os.path.join(writer.path, f))
            for f in os.listdir(writer.path) if f != "meta.json")
        assert on_disk == writer.spilled_bytes

    def test_digest_independent_of_flush_boundaries(self, tmp_path):
        tight, _ = record_trace(
            _build(), TraceStoreWriter(str(tmp_path / "a"), spill_mb=0.001))
        loose, _ = record_trace(_build(), str(tmp_path / "b"))
        assert tight.digest == loose.digest
        other, _ = record_trace(
            build_original(SweepParams(n=5, mm=3, nm=2, noct=1)),
            str(tmp_path / "c"))
        assert other.digest != tight.digest

    def test_rows_stay_symbolic_on_disk(self, tmp_path):
        # the triad's affine loops must not expand to per-access records
        stored, stats = record_trace(stream_triad(512, 2),
                                     str(tmp_path / "t"))
        store = TraceStore(stored.path)
        assert len(store.batch_addrs) < stats.accesses
        assert len(store.rows_bases) > 0

    def test_spill_mb_validation(self, tmp_path):
        with pytest.raises(ValueError):
            TraceStoreWriter(str(tmp_path / "t"), spill_mb=0)

    def test_finalize_twice_raises(self, tmp_path):
        writer = TraceStoreWriter(str(tmp_path / "t"))
        writer.finalize()
        with pytest.raises(RuntimeError):
            writer.finalize()

    def test_empty_trace(self, tmp_path):
        stored = TraceStoreWriter(str(tmp_path / "t")).finalize()
        assert stored.accesses == 0 and stored.nops == 0
        store = TraceStore(stored.path)
        assert store.ops.shape == (0, 4)
        assert len(split_stored_trace(store, 4)) == 1


class TestLoadGuards:
    def test_rejects_wrong_magic(self, tmp_path):
        d = tmp_path / "t"
        d.mkdir()
        (d / "meta.json").write_text(json.dumps({"magic": "nope"}))
        with pytest.raises(ValueError):
            load_trace(str(d))

    def test_rejects_version_mismatch(self, tmp_path):
        stored, _ = record_trace(_build(), str(tmp_path / "t"))
        meta_path = os.path.join(stored.path, "meta.json")
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["version"] = TRACESTORE_VERSION + 1
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValueError):
            load_trace(stored.path)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(str(tmp_path / "absent"))


class _TeeWriter(TraceStoreWriter):
    """A writer that also keeps every op the recorder handed it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def add_op(self, op):
        self.seen.append(op)
        super().add_op(op)


class TestSplitGeometry:
    def test_replay_reproduces_recorder_stream(self, tmp_path):
        # replaying the single slice of a store written under a 1 KB
        # buffer must hand back exactly the ops the recorder produced
        writer = _TeeWriter(str(tmp_path / "t"), spill_mb=0.001)
        stored, _ = record_trace(stream_triad(257, 3), writer)
        (sl,) = split_stored_trace(stored, 1)
        got = OpCollector()
        replay_slice(TraceStore(stored.path), sl, got)
        want = [("batch", list(op[1]), list(op[2]),
                 [bool(s) for s in op[3]], op[4]) if op[0] == "batch"
                else op for op in writer.seen]
        assert got.ops == want


class TestRecordSpilled:
    def test_failed_recording_leaves_no_store(self, tmp_path, monkeypatch):
        # not a Program: the executor blows up after the writer created
        # its column files, and the private store must still be removed
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(AttributeError):
            analyze_sharded(SimpleNamespace(name="boom"), 2)
        assert os.listdir(str(tmp_path)) == []


class TestObsCounters:
    def test_trace_counters_tick(self, obs_on, tmp_path):
        stored, _ = record_trace(
            _build(), TraceStoreWriter(str(tmp_path / "t"), spill_mb=0.001))
        store = TraceStore(stored.path)
        for sl in split_stored_trace(store, 2):
            replay_slice(store, sl, _NullHandler())
        counters = obs_on.snapshot()["counters"]
        assert counters["trace.spill_bytes"] > 0
        assert counters["trace.mmap_opens"] >= 2
        assert counters["trace.read_mb"] > 0


class _NullHandler:
    def enter_scope(self, sid):
        pass

    def exit_scope(self, sid):
        pass

    def access_batch(self, rids, addrs, stores, period=0):
        pass

    def access_rows(self, rids, stores, bases, strides, m):
        pass
