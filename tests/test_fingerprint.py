"""Smoke test of ``tools/fingerprint.py`` on one tiny tree-long-shaped
instance: its digests repeat, one wrong answer changes all three, one extra
counted comparison changes the full and counters digests, and a different
``space()`` changes the full digest alone."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ofc2d.catalog.model import QueryAnswer
from ofc2d.catalog.tree_ds import TreeDS

ROOT = Path(__file__).resolve().parent.parent
# Its own workload name, so the instance files never stand in for a
# benchmark workload's.
NAME = "fingerprint-smoke"
TINY = {"vertices": 128, "height": 100, "rects": 2 ** 10, "queries": 100}


@pytest.fixture
def tool(monkeypatch, tmp_path):
    """(fingerprint module, perfbench run module, tiny spec), with the
    instance files written under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    run._import_library()
    monkeypatch.setattr(run, "WORK", tmp_path)
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    fp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fp)
    return fp, run, {**run.WORKLOADS["tree-long"], **TINY}


def test_digests_repeat(tool):
    fp, run, spec = tool
    first = fp.fingerprint(run, NAME, spec, 0)
    assert first == fp.fingerprint(run, NAME, spec, 0)
    assert len(first) == 3
    assert all(len(d) == 64 for d in first)


def test_one_wrong_answer_changes_both_digests(tool, monkeypatch):
    fp, run, spec = tool
    answers, full, counted = fp.fingerprint(run, NAME, spec, 0)
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
    bad_answers, bad_full, bad_counted = fp.fingerprint(run, NAME, spec, 0)
    assert len(calls) == TINY["queries"]
    assert bad_answers != answers
    assert bad_full != full
    assert bad_counted != counted


def test_counters_digest_sees_counters_not_space(tool, monkeypatch):
    fp, run, spec = tool
    answers, full, counted = fp.fingerprint(run, NAME, spec, 0)
    real_query = TreeDS.query
    calls = []

    def one_more_comparison(self, q, counters=None):
        ans = real_query(self, q, counters)
        calls.append(q)
        if len(calls) == 5:
            counters.pl_comparisons += 1
        return ans

    monkeypatch.setattr(TreeDS, "query", one_more_comparison)
    recounted = fp.fingerprint(run, NAME, spec, 0)
    assert len(calls) == TINY["queries"]
    assert recounted[0] == answers
    assert recounted[1] != full and recounted[2] != counted

    monkeypatch.setattr(TreeDS, "query", real_query)
    real_space = run.space
    monkeypatch.setattr(run, "space", lambda ds: (real_space(ds), "moved"))
    respaced = fp.fingerprint(run, NAME, spec, 0)
    assert respaced[0] == answers and respaced[2] == counted
    assert respaced[1] != full
