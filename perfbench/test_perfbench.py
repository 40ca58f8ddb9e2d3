"""The benchmark's own tests, on tiny sizes (about a minute in all).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import ops as opgen
from perfbench.common import ROOT, require_program
from perfbench.run import END_TO_END, WORKLOADS, reference_specs, run

require_program()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oracle():
    from perfbench.oracle import Oracle

    ref = Oracle()
    ref.ensure(reference_specs(tiny=True))
    return ref


def test_benchmark_json_names_what_run_reports():
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]]["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END
    from perfbench.traced import per_layer_names, unit_of
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == {name: unit_of(name) for name in per_layer_names()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, oracle):
    out = run(workload, seed=3, seconds=2, trace=trace, tiny=True,
              oracle=oracle)
    result = out["result"]
    assert result["correct"], out["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # counted from the op list alone: a seed repeats them exactly
        assert result["metrics"]["lang.accesses"]["value"] \
            == out["info"]["lang_accesses_expected"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_reference_is_a_failed_operation(workload, trace,
                                                   oracle, monkeypatch):
    real = oracle.ref
    victim = {}

    def corrupt(spec):
        ref = dict(real(spec))
        if not victim:
            victim["key"] = spec.ref_key
        if spec.ref_key == victim["key"]:
            ref["totals"] = {k: v + 1 for k, v in ref["totals"].items()}
            ref["patterns_sha256"] = "0" * 64
        return ref

    monkeypatch.setattr(oracle, "ref", corrupt)
    out = run(workload, seed=3, seconds=2, trace=trace, tiny=True,
              oracle=oracle)
    assert out["result"]["failed"] >= 1
    assert not out["result"]["correct"]


def test_same_seed_same_ops():
    take = [opgen.cli_ops(7) for _ in range(2)]
    assert take[0] == take[1]
    # each app under every engine once, a third repeated
    assert len({op.specs for op in take[0]}) == 7 * 3
    assert sum(op.repeat_of is not None for op in take[0]) == 9
    assert opgen.sweep_ops(7) == opgen.sweep_ops(7)
    assert len(opgen.sweep_ops(7)) == 4


def test_op_list_does_not_depend_on_seconds(oracle):
    """``--seconds`` only caps a run; within it, every op runs once."""
    short = run("cli-interactive", seed=3, seconds=600, trace=False,
                tiny=True, oracle=oracle)
    assert short["result"]["attempted"] == len(opgen.cli_ops(3, tiny=True))
    assert short["info"]["ops_cut_by_seconds"] == 0


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
