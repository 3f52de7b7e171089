"""Smoke test of ``tools/gcprobe.py`` on a tiny tree-long-shaped workload:
one line per instance of each seed and a summary line, and a full collection
made inside a query is charged to the first pass."""

import gc
import importlib
import importlib.util
from pathlib import Path

import pytest

from ofc2d.catalog.tree_ds import TreeDS

ROOT = Path(__file__).resolve().parent.parent
# Its own workload name, so the instance files never stand in for a
# benchmark workload's.
NAME = "gcprobe-smoke"
TINY = {"vertices": 128, "height": 100, "rects": 2 ** 10, "queries": 100}


@pytest.fixture
def tool(monkeypatch, tmp_path):
    """(gcprobe module, perfbench run module, tiny spec), with the tiny spec
    registered as a workload and its instance files written under
    ``tmp_path``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    run._import_library()
    monkeypatch.setattr(run, "WORK", tmp_path)
    spec = {**run.WORKLOADS["tree-long"], **TINY}
    monkeypatch.setitem(run.WORKLOADS, NAME, spec)
    loader = importlib.util.spec_from_file_location("gcprobe", ROOT / "tools" / "gcprobe.py")
    probe = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(probe)
    return probe, run, spec


def test_one_line_per_instance(tool, capsys):
    """One line per instance of each seed, then the summary line."""
    probe, run, _ = tool
    callbacks = list(gc.callbacks)
    assert probe.main(["--workload", NAME, "--seed", "1", "2"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == \
        [[NAME, str(k), f"seed={s}"] for s in (1, 2) for k in range(run.INSTANCES)]
    hit = {}
    for line in lines:
        fields = dict(f.split("=") for f in line.split()[2:])
        assert set(fields) == {"seed", "setup_s", "first_pass_s", "setup_gen2",
                               "setup_gen2_s", "first_gen2", "first_gen2_s"}
        assert float(fields["setup_s"]) > 0
        if int(fields["first_gen2"]):
            hit[f"s{fields['seed']}k{line.split()[1]}"] = fields["first_gen2_s"]
    name, word, *rest = last.split()
    assert (name, word) == (NAME, "summary")
    totals = dict(f.split("=") for f in rest)
    assert totals.pop("instances") == str(2 * run.INSTANCES)
    assert totals.pop("first_gen2_instances") == str(len(hit))
    assert float(totals.pop("first_gen2_s")) >= 0
    assert totals == hit
    assert gc.callbacks == callbacks


def test_summary_names_first_pass_collections(tool):
    probe, _, _ = tool
    quiet = {"first_gen2": 0, "first_gen2_s": 0.0}
    probes = [(1, 0, quiet), (1, 3, {"first_gen2": 1, "first_gen2_s": 0.048}),
              (2, 1, {"first_gen2": 2, "first_gen2_s": 0.1}), (3, 4, quiet)]
    assert probe.summary("w", probes) == \
        "w summary instances=4 first_gen2_instances=2 first_gen2_s=0.1480 " \
        "s1k3=0.0480 s2k1=0.1000"
    assert probe.summary("w", probes[:1]) == \
        "w summary instances=1 first_gen2_instances=0 first_gen2_s=0.0000"


def test_collection_in_a_query_counts_in_the_first_pass(tool, monkeypatch):
    probe, run, spec = tool
    quiet = probe.probe(run, NAME, spec, 1, 0)
    real_query = TreeDS.query

    def collecting(self, q, counters=None):
        gc.collect(2)
        return real_query(self, q, counters)

    monkeypatch.setattr(TreeDS, "query", collecting)
    forced = probe.probe(run, NAME, spec, 1, 0)
    assert quiet["first_gen2"] < TINY["queries"] <= forced["first_gen2"]
    assert forced["first_gen2_s"] > 0
