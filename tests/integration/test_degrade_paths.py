"""Pin the degrade paths: a broken accelerated engine must fail CI.

``AnalysisSession`` falls back to the sequential fenwick engine when the
numpy, static or sharded path raises, and the fallback's answer is the
reference answer.  Output checks alone therefore cannot tell a working
engine from a broken one that quietly ran fenwick.  These tests run
every registry workload on each accelerated path and require that no
fallback happened.
"""

import os
import pickle

import pytest

from repro.apps.registry import WORKLOADS, build_workload
from repro.testing import faults
from repro.testing.faults import FaultSpec
from repro.tools import AnalysisSession

#: Small parameters for every registry workload (each run < 0.2 s).
SMALL = {
    "fig1": {"n": 16, "m": 16},
    "fig2": {"n": 32, "m": 16},
    "triad": {"n": 256, "steps": 2},
    "gather": {"n": 128, "m": 512},
    "cg": {"grid": 6},
    "sweep3d": {"mesh": 4, "mm": 4, "nm": 2, "noct": 1},
    "gtc": {"micell": 1, "mpsi": 4, "mtheta": 6, "mzeta": 2,
            "timesteps": 1},
}


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def _run(name, **options):
    return AnalysisSession(build_workload(name, **SMALL[name]),
                           **options).run()


def _assert_no_fallback(session, registry):
    assert session.fallback is None, session.fallback
    assert session.manifest.fallback is None
    assert registry.snapshot()["counters"].get("resil.fallbacks", 0) == 0


def _dump(session):
    return pickle.dumps(session.analyzer.dump_state())


def test_every_workload_has_small_sizes():
    assert set(SMALL) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_numpy_engine_never_falls_back(obs_on, name):
    session = _run(name, engine="numpy")
    _assert_no_fallback(session, obs_on)
    assert _dump(session) == _dump(_run(name))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_static_engine_never_falls_back(obs_on, name):
    _assert_no_fallback(_run(name, engine="static"), obs_on)


def test_sharded_sweep3d_never_falls_back(obs_on, monkeypatch):
    # two CPUs: the shards run in a two-process pool on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    session = _run("sweep3d", shards=2)
    _assert_no_fallback(session, obs_on)
    assert obs_on.snapshot()["counters"]["shard.workers"] == 2
    assert _dump(session) == _dump(_run("sweep3d"))


def test_broken_engine_is_caught(obs_on):
    """The control: a failing numpy path degrades, and the pins above
    see it."""
    faults.install(FaultSpec(point="session.run", action="raise",
                             match=(("engine", "numpy"),)))
    session = _run("fig1", engine="numpy")
    assert session.fallback["from"] == "numpy"
    assert obs_on.snapshot()["counters"]["resil.fallbacks"] == 1
    with pytest.raises(AssertionError):
        _assert_no_fallback(session, obs_on)
