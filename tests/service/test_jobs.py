"""JobSpec validation and JobStore journal/recovery semantics."""

import json
import os

import pytest

from repro.service.jobs import (
    ARTIFACT_KINDS, RETIRED_SPEC_KEYS, JobSpec, JobStore, SpecError,
)


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec.from_dict({"workload": "sweep3d",
                                  "params": {"mesh": 6},
                                  "engine": "numpy", "shards": 2,
                                  "artifacts": ["patterns", "xml"]})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.artifacts == ("patterns", "xml")

    def test_defaults(self):
        spec = JobSpec.from_dict({"workload": "fig1"})
        assert spec.engine == "fenwick"
        assert spec.shards == 1
        assert spec.artifacts == ("patterns", "manifest")
        assert not set(RETIRED_SPEC_KEYS) & set(spec.to_dict())

    @pytest.mark.parametrize("body,fragment", [
        ({}, "workload"),
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "sweep3d", "params": {"bogus": 1}}, "unknown params"),
        ({"workload": "sweep3d", "params": "x"}, "params"),
        ({"workload": "sweep3d", "engine": "magic"}, "engine"),
        ({"workload": "sweep3d", "shards": 0}, "shards"),
        ({"workload": "sweep3d", "shards": "many"}, "shards"),
        ({"workload": "sweep3d", "artifacts": []}, "artifacts"),
        ({"workload": "sweep3d", "artifacts": ["gold"]}, "artifacts"),
        ({"workload": "sweep3d", "surprise": 1}, "unknown spec fields"),
        # retired fields: a well-formed value is still an unknown field
        ({"workload": "sweep3d", "spill_mb": 1}, "spill_mb"),
        ({"workload": "sweep3d", "engine": "static", "shards": 2},
         "no trace to shard"),
        ({"workload": "sweep3d", "use_trace_store": True},
         "unknown spec fields: use_trace_store"),
        ("not a dict", "object"),
    ])
    def test_rejects(self, body, fragment):
        with pytest.raises(SpecError, match=fragment):
            JobSpec.from_dict(body)

    @pytest.mark.parametrize("name,value", [("use_trace_store", True),
                                            ("spill_mb", 1.0)])
    def test_retired_fields_rejected(self, name, value):
        # submissions stay strict; only journaled specs drop these keys
        with pytest.raises(SpecError,
                           match=f"unknown spec fields: {name}$"):
            JobSpec.from_dict({"workload": "fig1", name: value})

    def test_static_engine_accepted(self):
        spec = JobSpec.from_dict({"workload": "sweep3d",
                                  "engine": "static"})
        assert spec.engine == "static"

    def test_artifact_kinds_have_filenames(self):
        for name, fname in ARTIFACT_KINDS.items():
            assert "." in fname, (name, fname)


class TestJobStore:
    def _spec(self):
        return JobSpec.from_dict({"workload": "fig1"})

    def test_submit_creates_spec_and_journal(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("acme", self._spec())
        assert job.state == "queued"
        assert os.path.exists(store.spec_path(job.id))
        lines = open(os.path.join(str(tmp_path),
                                  JobStore.JOURNAL)).read().splitlines()
        assert json.loads(lines[0])["kind"] == "job-journal"
        assert json.loads(lines[1])["event"] == "submit"

    def test_lifecycle_counts(self, tmp_path):
        store = JobStore(str(tmp_path))
        a = store.submit("t1", self._spec())
        b = store.submit("t1", self._spec())
        store.submit("t2", self._spec())
        assert store.queued_count("t1") == 2
        store.mark_started(a.id)
        assert store.queued_count("t1") == 1
        assert store.running_count("t1") == 1
        store.mark_done(a.id, {"L2": 1.0}, [{"name": "patterns",
                                             "digest": "d", "bytes": 3}])
        assert store.running_count("t1") == 0
        store.mark_cancelled(b.id)
        assert store.queued_count("t1") == 0
        assert store.jobs[a.id].terminal
        assert store.jobs[b.id].state == "cancelled"

    def test_recover_requeues_queued_and_running(self, tmp_path):
        store = JobStore(str(tmp_path))
        queued = store.submit("t", self._spec())
        running = store.submit("t", self._spec())
        done = store.submit("t", self._spec())
        store.mark_started(running.id)
        store.mark_started(done.id)
        store.mark_done(done.id, {"L2": 2.0}, [])

        fresh = JobStore(str(tmp_path))
        requeued = fresh.recover()
        ids = {j.id for j in requeued}
        assert ids == {queued.id, running.id}
        assert fresh.jobs[queued.id].resumed == 0
        assert fresh.jobs[running.id].resumed == 1
        assert fresh.resumed_ids == [running.id]
        assert fresh.jobs[done.id].state == "done"

    def test_recover_hydrates_result(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        store.mark_started(job.id)
        from repro.tools.atomicio import atomic_write_text
        atomic_write_text(store.result_path(job.id), json.dumps(
            {"totals": {"L2": 5.0},
             "artifacts": [{"name": "patterns", "digest": "abc",
                            "bytes": 7}]}))
        store.mark_done(job.id, {"L2": 5.0},
                        [{"name": "patterns", "digest": "abc", "bytes": 7}])

        fresh = JobStore(str(tmp_path))
        fresh.recover()
        hydrated = fresh.jobs[job.id]
        assert hydrated.totals == {"L2": 5.0}
        assert hydrated.artifacts[0]["digest"] == "abc"

    def test_recover_tolerates_torn_final_line(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        path = os.path.join(str(tmp_path), JobStore.JOURNAL)
        with open(path, "a") as fh:
            fh.write('{"event": "sta')  # crash mid-append

        fresh = JobStore(str(tmp_path))
        requeued = fresh.recover()
        assert [j.id for j in requeued] == [job.id]
        assert fresh.jobs[job.id].state == "queued"

    def test_recover_unknown_header_starts_fresh(self, tmp_path):
        path = os.path.join(str(tmp_path), JobStore.JOURNAL)
        os.makedirs(os.path.join(str(tmp_path), "jobs"), exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"kind": "job-journal", "version": 99}\n')
            fh.write('{"event": "submit", "job": "x", "tenant": "t"}\n')
        store = JobStore(str(tmp_path))
        assert store.recover() == []
        assert store.jobs == {}

    def test_recover_missing_journal(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.recover() == []

    def test_recover_accepts_retired_spec_fields(self, tmp_path):
        # spec.json as written before sharded jobs always recorded into
        # a private trace store: both retired keys present
        store = JobStore(str(tmp_path))
        queued = store.submit("t", JobSpec.from_dict(
            {"workload": "fig1", "shards": 2}))
        done = store.submit("t", self._spec())
        store.mark_started(done.id)
        store.mark_done(done.id, {"L2": 2.0}, [])
        for job, old in ((queued, {"use_trace_store": True,
                                   "spill_mb": 1.0}),
                         (done, {"use_trace_store": False,
                                 "spill_mb": None})):
            with open(store.spec_path(job.id), encoding="utf-8") as fh:
                data = json.load(fh)
            data.update(old)
            with open(store.spec_path(job.id), "w",
                      encoding="utf-8") as fh:
                json.dump(data, fh)

        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [queued.id]
        assert fresh.jobs[queued.id].spec == queued.spec
        assert fresh.jobs[done.id].state == "done"
        assert JobSpec.load(store.spec_path(queued.id)) == queued.spec

    def test_recover_drops_job_with_unreadable_spec(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        os.unlink(store.spec_path(job.id))
        fresh = JobStore(str(tmp_path))
        assert fresh.recover() == []
        assert job.id not in fresh.jobs
