import csv

import pytest

from ofc2d.catalog.model import SubgraphQuery
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
    # Set-up entries per regime; a height-6 tree of 480 rects has no path
    # longer than t2 = 40, so it builds no long-path store.
    parts = [int(fields[f"entries_{r}"]) for r in ("short", "mid", "long")]
    assert parts[0] > 0 and parts[1] > 0 and parts[2] == 0
    assert sum(parts) == int(fields["stored_entries"])
    # The block size follows from n = 480 alone: 4 * ceil(log2 480) = 36.
    assert (fields["long_block_size"], fields["long_blocks"]) == ("36", "0")
    # The mid regime builds each (vertex, rho) cutting once, and every
    # root-leaf node that uses one counts it once; the pairs depend on the
    # tree alone, so mid-tree reports the same counts.
    built, used = int(fields["mid_cuttings_built"]), int(fields["mid_cuttings_used"])
    assert 30 <= built < used
    assert main(["build-stats", "--instance", str(out), "--structure", "mid-tree",
                 "--seed", "4"]) == 0
    mid = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.strip().splitlines())
    assert (int(mid["mid_cuttings_built"]), int(mid["mid_cuttings_used"])) == (built, used)
    chain = tmp_path / "chain.cat"
    main(["gen", "--kind", "random-path", "--vertices", "80", "--per-vertex", "4",
          "--seed", "4", "--out", str(chain)])
    assert main(["build-stats", "--instance", str(chain), "--structure", "tree",
                 "--seed", "4"]) == 0
    fields = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.strip().splitlines())
    assert int(fields["entries_long"]) > 0
    assert sum(int(fields[f"entries_{r}"]) for r in ("short", "mid", "long")) == \
        int(fields["stored_entries"])
    # An 80-vertex chain of 320 rects: blocks of 4 * ceil(log2 320) = 36
    # vertices, so ceil(80 / 36) = 3 blocks, in tree and long-path alike.
    assert (fields["long_block_size"], fields["long_blocks"]) == ("36", "3")
    assert main(["build-stats", "--instance", str(chain), "--structure", "long-path",
                 "--seed", "4"]) == 0
    lp = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.strip().splitlines())
    assert lp["stored_entries"] == fields["entries_long"]
    assert (lp["long_block_size"], lp["long_blocks"]) == ("36", "3")
    assert "entries_long" not in lp and "mid_cuttings_built" not in lp
    # Two vertices of one rect each: log2 log2 n is 0, so no exponent is fit.
    body = ("adj 0 1\nadj 1 0\nvertex 0 1\nbbox 0 8 0 8\nrect 0 0 8 0 8\n"
            "vertex 1 1\nbbox 0 8 0 8\nrect 1 0 8 0 8\n")
    tiny = tmp_path / "tiny.cat"
    for kind in ("short-tree", "mid-tree", "tree", "graph", "long-path"):
        header = "graph 2 1\n" if kind == "graph" else "tree 2 1\nroot 0\n"
        tiny.write_text(header + body)
        assert main(["build-stats", "--instance", str(tiny), "--structure",
                     kind, "--seed", "4"]) == 0
        fields = dict(line.split(maxsplit=1)
                      for line in capsys.readouterr().out.strip().splitlines())
        assert fields["total_rects"] == "2"
        assert fields["space_exponent"] == "0.000"
        # Only the tree and long-path structures have long-path stores.
        assert ("long_blocks" in fields) == (kind in ("tree", "long-path"))


def test_build_stats_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text("tree 1 0\nroot 0\nadj 0\nvertex 0 1\nbbox 0 8 0 8\n"
                   "rect 0 0 0 0 8\n")  # zero-width rect
    assert main(["build-stats", "--instance", str(bad), "--structure", "tree",
                 "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:6:")


@pytest.mark.parametrize("text,message", [
    # Loads line by line, but no vertex is the root.
    ("tree 1 0\nroot 5\nadj 0\nvertex 0 1\nbbox 0 8 0 8\nrect 0 0 8 0 8\n",
     "error: root 5"),
    (None, "error: [Errno 2]"),  # no such file
], ids=["rejected", "missing"])
def test_bad_instance_exit_code(tmp_path, capsys, text, message):
    inst = tmp_path / "i.cat"
    if text is not None:
        inst.write_text(text)
    for cmd in ("build-stats", "bench"):
        extra = ["--out", str(tmp_path / "r.csv")] if cmd == "bench" else []
        assert main([cmd, "--instance", str(inst), "--structure", "tree",
                     "--seed", "1", *extra]) == 2
        assert capsys.readouterr().err.startswith(message)


def test_bench_empty_workload_header_only(tmp_path):
    inst = tmp_path / "p.cat"
    main(["gen", "--kind", "random-path", "--vertices", "8", "--per-vertex",
          "8", "--seed", "5", "--out", str(inst)])
    qf = tmp_path / "q.txt"
    qf.write_text("")
    out = tmp_path / "r.csv"
    assert main(["bench", "--instance", str(inst), "--structure", "long-path",
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


def test_bench_without_verify_claims_no_match(tmp_path):
    inst = tmp_path / "t.cat"
    main(["gen", "--kind", "random-tree", "--vertices", "24", "--height", "5",
          "--per-vertex", "16", "--seed", "6", "--out", str(inst)])
    out = tmp_path / "r.csv"
    assert main(["bench", "--instance", str(inst), "--structure", "tree",
                 "--seed", "6", "--count", "5", "--out", str(out)]) == 0
    with out.open() as f:
        rows = list(csv.reader(f))
    assert len(rows) == 7 and rows[-1][0] == "summary"
    assert all(r[-1] == "" for r in rows[1:])


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


def test_bench_graph_walks_have_the_asked_length(tmp_path, capsys):
    """Every random walk on a graph has exactly --path-len vertices; a
    length no simple walk reaches exits 2."""
    inst = tmp_path / "g.cat"
    main(["gen", "--kind", "random-graph", "--vertices", "32", "--degree",
          "3", "--per-vertex", "8", "--seed", "1", "--out", str(inst)])
    out = tmp_path / "r.csv"
    bench = ["bench", "--instance", str(inst), "--structure", "graph",
             "--seed", "1", "--verify", "--out", str(out)]
    assert main(bench + ["--count", "200", "--path-len", "12"]) == 0
    with out.open() as f:
        rows = list(csv.reader(f))[1:-1]
    assert len(rows) == 200 and all(r[1] == "12" for r in rows)
    assert main(bench + ["--count", "1", "--path-len", "33"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_subgraph_queries_on_graph(tmp_path):
    inst = tmp_path / "g.cat"
    main(["gen", "--kind", "random-graph", "--vertices", "16", "--degree",
          "3", "--per-vertex", "8", "--seed", "9", "--out", str(inst)])
    g = load_catalog(inst)
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


@pytest.mark.parametrize("structure", ["tree", "short-tree", "long-path"])
def test_bench_subgraph_query_on_tree_exit_code(tmp_path, capsys, structure):
    inst = tmp_path / "p.cat"
    main(["gen", "--kind", "random-path", "--vertices", "6", "--per-vertex",
          "8", "--seed", "3", "--out", str(inst)])
    qf = tmp_path / "q.txt"
    save_queries([SubgraphQuery(random_point(load_catalog(inst).bbox, random.Random(3)),
                                frozenset({0, 1}))], qf)
    assert main(["bench", "--instance", str(inst), "--structure", structure,
                 "--seed", "3", "--queries", str(qf),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_seed_is_mandatory(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "random-path", "--out", str(tmp_path / "x")])
