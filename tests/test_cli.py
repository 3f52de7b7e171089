import csv

import pytest

from ofc2d.cli import main
from ofc2d.fileio import load_catalog, load_witness_shapes, save_queries
from ofc2d.gen import random_point
import random


def test_gen_random_path_deterministic(tmp_path):
    a, b = tmp_path / "a.cat", tmp_path / "b.cat"
    args = ["gen", "--kind", "random-path", "--vertices", "32",
            "--per-vertex", "64", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cat = load_catalog(a)
    assert cat.n == 32 * 64


def test_gen_lb_short_with_witness(tmp_path):
    out = tmp_path / "lb.cat"
    assert main(["gen", "--kind", "lb-short", "--n", "4096", "--h", "6",
                 "--seed", "1", "--out", str(out)]) == 0
    cat = load_catalog(out)
    shapes = load_witness_shapes(str(out) + ".witness")
    assert len(shapes) == cat.n


def test_gen_infeasible_params_exit_code(tmp_path):
    out = tmp_path / "bad.cat"
    assert main(["gen", "--kind", "lb-short", "--n", "4096", "--h", "60",
                 "--seed", "1", "--out", str(out)]) == 2


def test_gen_random_tree_loads(tmp_path):
    out = tmp_path / "t.cat"
    assert main(["gen", "--kind", "random-tree", "--vertices", "40",
                 "--height", "10", "--per-vertex", "8", "--seed", "3",
                 "--out", str(out)]) == 0
    cat = load_catalog(out)
    assert cat.height == 10


def test_build_stats_reports_entries(tmp_path, capsys):
    out = tmp_path / "t.cat"
    main(["gen", "--kind", "random-tree", "--vertices", "30", "--height", "6",
          "--per-vertex", "16", "--seed", "4", "--out", str(out)])
    assert main(["build-stats", "--instance", str(out), "--structure", "tree",
                 "--seed", "4"]) == 0
    text = capsys.readouterr().out
    fields = dict(line.split(maxsplit=1) for line in text.strip().splitlines())
    assert int(fields["stored_entries"]) > 0
    assert "bootstrap_layer_cells" in fields


def test_bench_empty_workload_header_only(tmp_path):
    inst = tmp_path / "p.cat"
    main(["gen", "--kind", "random-path", "--vertices", "8", "--per-vertex",
          "8", "--seed", "5", "--out", str(inst)])
    qf = tmp_path / "q.txt"
    qf.write_text("")
    out = tmp_path / "r.csv"
    assert main(["bench", "--instance", str(inst), "--structure", "path",
                 "--seed", "5", "--queries", str(qf), "--out", str(out)]) == 0
    with out.open() as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 and rows[0][0] == "query"


def test_bench_verify_all_match(tmp_path):
    inst = tmp_path / "t.cat"
    main(["gen", "--kind", "random-tree", "--vertices", "24", "--height", "5",
          "--per-vertex", "16", "--seed", "6", "--out", str(inst)])
    out = tmp_path / "r.csv"
    assert main(["bench", "--instance", str(inst), "--structure", "tree",
                 "--seed", "6", "--count", "25", "--verify",
                 "--out", str(out)]) == 0
    with out.open() as f:
        rows = list(csv.reader(f))
    body = rows[1:-1]
    assert len(body) == 25
    assert all(r[-1] == "True" for r in body)
    assert rows[-1][0] == "summary"


def test_bench_reproducible_counters(tmp_path):
    inst = tmp_path / "t.cat"
    main(["gen", "--kind", "random-tree", "--vertices", "24", "--height", "5",
          "--per-vertex", "16", "--seed", "7", "--out", str(inst)])
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        main(["bench", "--instance", str(inst), "--structure", "tree",
              "--seed", "7", "--count", "20", "--out", str(out)])
        with out.open() as f:
            rows = list(csv.reader(f))
        # Drop the wall-time column before comparing.
        outs.append([[c for i, c in enumerate(r) if i != 2] for r in rows])
    assert outs[0] == outs[1]


def test_bench_subgraph_queries_on_graph(tmp_path):
    inst = tmp_path / "g.cat"
    main(["gen", "--kind", "random-graph", "--vertices", "16", "--degree",
          "3", "--per-vertex", "8", "--seed", "9", "--out", str(inst)])
    g = load_catalog(inst)
    from ofc2d.catalog.model import SubgraphQuery

    rng = random.Random(9)
    qs = []
    for _ in range(10):
        seed_v = rng.choice(list(g.vertices))
        vs = {seed_v}
        for w in g.vertices[seed_v].adjacency[:2]:
            vs.add(w)
        qs.append(SubgraphQuery(random_point(g.bbox, rng), frozenset(vs)))
    qf = tmp_path / "q.txt"
    save_queries(qs, qf)
    out = tmp_path / "r.csv"
    assert main(["bench", "--instance", str(inst), "--structure", "graph",
                 "--seed", "9", "--queries", str(qf), "--verify",
                 "--out", str(out)]) == 0


def test_seed_is_mandatory(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "random-path", "--out", str(tmp_path / "x")])
