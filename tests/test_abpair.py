"""Smoke test of ``tools/abpair.py`` on one tiny tree-long-shaped instance:
the repository against itself gives a full record, and a copy whose answers
differ is refused before anything is timed."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "abpair.py"
# Its own workload name, so the instance files never stand in for a
# benchmark workload's.
NAME = "abpair-smoke"
TINY = {"vertices": 128, "height": 100, "rects": 2 ** 10, "queries": 60}


@pytest.fixture
def tool(monkeypatch):
    """(abpair module, tiny tree-long-shaped spec)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    spec = importlib.util.spec_from_file_location("abpair", TOOL)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab, {**run.WORKLOADS["tree-long"], **TINY}


def test_repo_against_itself(tool, tmp_path):
    ab, spec = tool
    rec = ab.abpair(ROOT, ROOT, NAME, spec, 1, 0, rounds=8, slice_len=25, work=tmp_path)
    assert rec["rounds"] == len(rec["per_round"]) == 8
    assert 0 <= rec["change_faster"] <= 8
    q1, q3 = rec["ratio_iqr"]
    lo, hi = rec["ci95"]
    assert 0 < q1 <= rec["ratio_median"] <= q3
    assert 0 < lo <= rec["ratio_median"] <= hi
    parent, change = rec["sides"]["parent"], rec["sides"]["change"]
    assert parent["answer_digest"] == change["answer_digest"]
    assert parent["queries"] == change["queries"] == TINY["queries"]
    # The order swaps every round; slices walk the stream and wrap round.
    # Each quarter runs in a fresh worker pair, the start order alternating.
    assert [r["first"] for r in rec["per_round"]] == ["parent", "change"] * 4
    assert [r["pair"] for r in rec["per_round"]] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [r["started_first"] for r in rec["per_round"]] == (
        ["parent"] * 2 + ["change"] * 2) * 2
    assert len(parent["setup_s"]) == len(change["setup_s"]) == 4
    assert [r["start"] for r in rec["per_round"]] == [0, 25, 50, 15, 40, 5, 30, 55]
    for r in rec["per_round"]:
        assert r["ratio"] == pytest.approx(r["change_p50_us"] / r["parent_p50_us"])
    assert sorted((tmp_path / "parent").iterdir())[0].name == f"{NAME}-s1-k0.cat"
    json.dumps(rec)  # a record is plain JSON
    assert "change_faster=" in ab.report(rec)


def test_interval_includes_the_spread_between_pairs(tool):
    """Pairs whose rounds agree within a pair but not across pairs: the
    median is 1.0, and a bootstrap over the rounds alone (one group) gives
    [1.0, 1.0]; drawing the pairs first widens the interval past 1.0 on
    both sides."""
    ab, _ = tool
    groups = [[0.9] * 8, [1.0] * 8, [1.0] * 8, [1.1] * 8]
    rec = ab.summarize(groups)
    assert rec["rounds"] == 32 and rec["ratio_median"] == 1.0
    lo, hi = rec["ci95"]
    assert lo < 1.0 < hi
    assert ab.summarize([sum(groups, [])])["ci95"] == [1.0, 1.0]
    with pytest.raises(ValueError, match="rounds"):
        ab.abpair(ROOT, ROOT, NAME, {}, 1, 0, rounds=ab.PAIRS - 1, slice_len=10)


def test_different_answers_are_refused(tool, tmp_path):
    """A checkout that answers some vertex wrong is refused; the command line
    exits 1 and writes no record."""
    ab, spec = tool
    good, bad = tmp_path / "good", tmp_path / "bad"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, good / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    # The command line takes its workloads from perfbench/run.py: a shorter
    # tree-long stream keeps the copies quick.
    run_py = good / "perfbench" / "run.py"
    text = run_py.read_text()
    assert text.count('"queries": 2000, "regimes": "long"') == 1
    run_py.write_text(text.replace('"queries": 2000, "regimes": "long"',
                                   '"queries": 200, "regimes": "long"'))
    shutil.copytree(good, bad)
    path_ds = bad / "src" / "ofc2d" / "catalog" / "path_ds.py"
    text = path_ds.read_text()
    assert text.count("out[v] = rid\n") == 1
    path_ds.write_text(text.replace("out[v] = rid\n", "out[v] = rid + 1\n"))

    with pytest.raises(ab.AnswersDiffer, match="answer digests differ"):
        ab.abpair(ROOT, bad, NAME, spec, 1, 0, rounds=4, slice_len=10, work=tmp_path / "w")
    out = tmp_path / "r.json"
    done = subprocess.run([sys.executable, str(TOOL), str(good), str(bad), "--workload",
                           "tree-long", "--seed", "1", "--instance", "0", "--rounds", "4",
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: tree-long seed 1 instance 0: answer digests differ")
    assert done.stdout == "" and not out.exists()
