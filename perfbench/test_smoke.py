"""Smoke test of the benchmark itself at tiny sizes (a few seconds).

Checks that every metric BENCHMARK.json names is emitted on every workload,
with and without tracing, and that a wrong answer trips the oracle gate.
Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "tree-mixed": {"rects": 2 ** 10, "queries": 200},
    "tree-long": {"vertices": 128, "height": 100, "rects": 2 ** 10, "queries": 100},
    "graph-subgraph": {"vertices": 32, "rects": 2 ** 10, "queries": 200},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, small in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, {**run.WORKLOADS[name], **small})
    monkeypatch.setattr(run, "INSTANCES", 2)


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted(tiny, capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_wrong_answer_trips_the_oracle_gate(tiny, capsys, monkeypatch):
    from ofc2d.catalog.model import QueryAnswer
    from ofc2d.catalog.tree_ds import TreeDS

    calls = []
    real_query = TreeDS.query

    def corrupted(self, q, counters=None):
        ans = real_query(self, q, counters)
        calls.append(q)
        if len(calls) == 5:
            v = next(iter(ans.by_vertex))
            ans = QueryAnswer({**ans.by_vertex, v: ans.by_vertex[v] + 1})
        return ans

    monkeypatch.setattr(TreeDS, "query", corrupted)
    code, result = bench(capsys, "tree-mixed", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_exits_nonzero_without_the_library(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "tree-mixed", "--seed", "1", "--seconds", "1",
                  "--trace", "0"])
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
