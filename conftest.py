"""Repo-level pytest configuration.

Tier-1 (`pytest` with no arguments) runs only ``tests/`` — benchmarks live
under ``benchmarks/`` and are selected explicitly.  Tests marked ``slow``
are skipped unless ``--runslow`` is given, so the default suite stays fast
enough to run on every change.
"""

import pytest


@pytest.fixture
def obs_on():
    """Enable observability against a fresh scoped registry + tracer.

    Restores the disabled default afterwards, so obs tests cannot leak
    metrics (or the enabled flag) into unrelated tests.
    """
    from repro.obs import metrics, trace

    metrics.set_enabled(True)
    trace.reset()
    with metrics.scoped() as registry:
        try:
            yield registry
        finally:
            metrics.set_enabled(False)
            trace.reset()


@pytest.fixture
def trace_tmpdir(tmp_path, monkeypatch):
    """Point ``$TMPDIR`` at a fresh directory for this test.

    Sharded runs record into private ``repro-trace-*`` stores under the
    temp dir; tests assert none survives.  ``tempfile``'s cached default
    is reset so this process, and any child it starts, picks the new dir.
    """
    import tempfile

    tmpdir = tmp_path / "tmpdir"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return tmpdir


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run tests marked @pytest.mark.slow")
    parser.addoption("--smoke", action="store_true", default=False,
                     help="benchmarks: miniature inputs, equivalence "
                          "assertions only (no perf thresholds, no "
                          "archived JSON)")
    parser.addoption("--pin-cpu", action="store_true", default=False,
                     help="benchmarks: pin the process to one CPU "
                          "(os.sched_setaffinity) to cut scheduler "
                          "migration noise out of timing legs; recorded "
                          "as bench_pinned in the archived JSON")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
