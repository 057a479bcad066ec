import json
import shutil

import numpy as np
import pytest

import flowground.cli
import flowground.soft
from flowground.cli import main
from flowground.matio import read_matrix, write_matrix_csv

FIG_GRAPH = {
    "nodes": [{"id": i, "label": f"step {i}"} for i in range(1, 6)],
    "edges": [[1, 2], [2, 3], [1, 4], [3, 5], [4, 5]],
}


@pytest.fixture
def fig_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(FIG_GRAPH))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "0.1.0" in out


def test_schema_dump(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    doc = json.loads(out)
    assert {"flow_graph", "tsort_graph", "alignment", "matrix_csv"} <= set(doc)


def test_graph_validate(capsys, fig_graph):
    code, out, _ = run(capsys, "graph", "validate", "--in", fig_graph)
    assert code == 0
    assert json.loads(out) == {"nodes": 5, "edges": 5, "steps": 5, "valid": True}


def test_graph_sorts_spec_and_counts(capsys):
    code, out, _ = run(capsys, "graph", "sorts", "--spec", "2,1")
    assert code == 0
    assert json.loads(out)["count"] == 3
    code, out, _ = run(capsys, "graph", "counts", "--spec", "3,3,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_sorts"] == 1680
    assert doc["n_tsort_nodes"] == 145


def test_tsort_forward_backward_isomorphic_outputs(capsys, fig_graph, tmp_path):
    f_out = tmp_path / "f.json"
    b_out = tmp_path / "b.json"
    assert run(capsys, "tsort", "--in", fig_graph, "--algo", "forward", "--out", f_out)[0] == 0
    assert run(capsys, "tsort", "--in", fig_graph, "--algo", "backward", "--out", b_out)[0] == 0
    fwd = json.loads(f_out.read_text())
    bwd = json.loads(b_out.read_text())
    assert len(fwd["nodes"]) == len(bwd["nodes"])
    assert len(fwd["edges"]) == len(bwd["edges"])
    dot = tmp_path / "t.dot"
    assert run(capsys, "tsort", "--in", fig_graph, "--dot", dot)[0] == 0
    assert dot.read_text().startswith("digraph")


def test_ground_pipeline_exact_recovery(capsys, fig_graph, tmp_path):
    data = tmp_path / "data"
    code, *_ = run(
        capsys, "synth", "--graph", fig_graph, "--n", 1, "--dim", 8,
        "--noise", 0.0, "--bg", 0.0, "--seed", 3, "--out", data,
    )
    assert code == 0
    inst = data / "instance_000"
    align_path = tmp_path / "align.json"
    code, *_ = run(
        capsys, "ground", "--graph", inst / "graph.json",
        "--steps", inst / "steps.csv", "--clips", inst / "clips.csv",
        "--emit-labels", "--out", align_path,
    )
    assert code == 0
    alignment = json.loads(align_path.read_text())
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"labels": alignment["labels"]}))
    code, out, _ = run(capsys, "eval", "--pred", pred, "--gt", inst / "gt.json")
    assert code == 0
    scores = json.loads(out)
    assert scores["accuracy"] == 1.0
    assert scores["iou"] == 1.0


def test_ground_with_cost_matrix(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": [{"id": 0}, {"id": 1}], "edges": []}))
    costs = tmp_path / "c.csv"
    write_matrix_csv(costs, np.array([[10.0, 0.1], [0.1, 10.0]]))
    code, out, _ = run(capsys, "ground", "--graph", graph, "--costs", costs)
    assert code == 0
    doc = json.loads(out)
    assert doc["tau_star"] == [1, 0]


def test_ground_accepts_binary_costs(capsys, tmp_path):
    from flowground.matio import write_matrix_binary

    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": [{"id": 0}, {"id": 1}], "edges": []}))
    costs = tmp_path / "c.bin"
    write_matrix_binary(costs, np.array([[10.0, 0.1], [0.1, 10.0]]))
    code, out, _ = run(capsys, "ground", "--graph", graph, "--costs", costs)
    assert code == 0
    assert json.loads(out)["tau_star"] == [1, 0]


def test_graph_validate_writes_dot(capsys, fig_graph, tmp_path):
    dot = tmp_path / "g.dot"
    assert run(capsys, "graph", "validate", "--in", fig_graph, "--dot", dot)[0] == 0
    assert dot.read_text().startswith("digraph")


def test_tsort_node_cap_exit_code(capsys, tmp_path):
    graph = tmp_path / "bag.json"
    graph.write_text(json.dumps({"nodes": [{"id": i} for i in range(6)], "edges": []}))
    assert run(capsys, "tsort", "--in", graph, "--node-cap", 4)[0] == 2


def test_eval_steps_only_flag(capsys, tmp_path):
    pred = tmp_path / "p.json"
    gt = tmp_path / "g.json"
    pred.write_text(json.dumps({"labels": [1, 2, 2, -1]}))
    gt.write_text(json.dumps({"labels": [1, 1, 2, -1]}))
    code, out, _ = run(capsys, "eval", "--pred", pred, "--gt", gt, "--steps-only-denominator")
    assert code == 0
    assert json.loads(out)["accuracy"] == pytest.approx(2 / 3)


def test_bench_emits_report(capsys, tmp_path):
    costs = tmp_path / "c.csv"
    write_matrix_csv(costs, np.random.default_rng(0).uniform(0, 5, size=(3, 12)))
    report = tmp_path / "r.json"
    code, *_ = run(
        capsys, "bench", "--spec", "2,1", "--costs", costs, "--repeats", 2, "--out", report
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["n_sorts"] == 3
    assert doc["speedup"] > 0


def test_train_writes_trace(capsys, tmp_path):
    data = tmp_path / "data"
    code, *_ = run(
        capsys, "synth", "--spec", "1,1", "--n", 3, "--dim", 4,
        "--noise", 0.1, "--bg", 0.0, "--seed", 1, "--out", data,
    )
    assert code == 0
    trace = tmp_path / "loss.csv"
    code, out, _ = run(
        capsys, "train", "--data", data, "--gamma", 0.3, "--lr", 0.01,
        "--epochs", 3, "--trace", trace,
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert len(lines) == 4


@pytest.mark.parametrize("truncated", ["steps.csv", "gt.json"])
def test_train_rejects_an_instance_with_missing_rows(capsys, tmp_path, truncated):
    data = tmp_path / "data"
    code, *_ = run(
        capsys, "synth", "--spec", "2,1", "--n", 2, "--dim", 4, "--seed", 1,
        "--out", data,
    )
    assert code == 0
    path = data / "instance_001" / truncated
    if truncated == "steps.csv":
        write_matrix_csv(path, read_matrix(path)[:-1])
    else:
        gt = json.loads(path.read_text())
        gt["labels"].pop()
        path.write_text(json.dumps(gt))
    code, _, err = run(capsys, "train", "--data", data, "--epochs", 1)
    assert code == 1
    assert truncated in err


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("gt.json", '{"sort": [0, 1, 2]}', '"labels"'),
        ("gt.json", '{"labels": []}', '"sort"'),
        ("gt.json", "[0, 1, 2]", '"labels"'),
        ("gt.json", '{"labels": [[0]], "sort": []}', "not a number"),
        ("gt.json", "{bad", "invalid JSON"),
        ("graph.json", "{bad", "invalid JSON"),
    ],
)
def test_train_rejects_a_malformed_instance_file(capsys, tmp_path, name, text, message):
    data = tmp_path / "data"
    code, *_ = run(
        capsys, "synth", "--spec", "2,1", "--n", 2, "--dim", 4, "--seed", 1,
        "--out", data,
    )
    assert code == 0
    (data / "instance_001" / name).write_text(text)
    code, _, err = run(capsys, "train", "--data", data, "--epochs", 1)
    assert code == 1
    assert name in err and message in err
    assert "Traceback" not in err


def test_train_rejects_zero_epochs(capsys, tmp_path):
    data = tmp_path / "data"
    code, *_ = run(capsys, "synth", "--spec", "2,1", "--n", 2, "--dim", 4, "--out", data)
    assert code == 0
    code, _, err = run(capsys, "train", "--data", data, "--epochs", 0)
    assert code == 1
    assert "epochs" in err and "Traceback" not in err


def test_train_rejects_mixed_embedding_dimensions(capsys, tmp_path):
    data, other = tmp_path / "data", tmp_path / "other"
    for out, n, dim in ((data, 3, 8), (other, 1, 4)):
        code, *_ = run(capsys, "synth", "--spec", "2,1", "--n", n, "--dim", dim, "--out", out)
        assert code == 0
    shutil.rmtree(data / "instance_001")
    (other / "instance_000").rename(data / "instance_001")
    code, _, err = run(capsys, "train", "--data", data, "--epochs", 1)
    assert code == 1
    assert "instance 1" in err and "4-d" in err


def test_train_builds_one_meta_graph_per_procedure(capsys, tmp_path, monkeypatch):
    data, other = tmp_path / "data", tmp_path / "other"
    for out, spec, seed in ((data, "2,1", 1), (other, "1,1,1", 2)):
        code, *_ = run(
            capsys, "synth", "--spec", spec, "--n", 3, "--dim", 4, "--seed", seed,
            "--out", out,
        )
        assert code == 0
    for i in range(3):
        (other / f"instance_{i:03d}").rename(data / f"instance_{i + 3:03d}")
    built, batches = [], []
    real = flowground.soft.build_tsort_forward
    monkeypatch.setattr(
        flowground.soft, "build_tsort_forward", lambda g: built.append(g) or real(g)
    )
    real_batch = flowground.cli.graph_drop_dtw_batch
    monkeypatch.setattr(
        flowground.cli,
        "graph_drop_dtw_batch",
        lambda s, problems: batches.append(len(problems)) or real_batch(s, problems),
    )
    code, *_ = run(capsys, "train", "--data", data, "--epochs", 2)
    assert code == 0
    assert len(built) == 2
    # the eval grounds each procedure's instances in one batched hard DP per epoch
    assert batches == [3, 3, 3, 3]


def test_determinism_byte_identical(capsys, fig_graph, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, *_ = run(
            capsys, "synth", "--graph", fig_graph, "--n", 2, "--dim", 8,
            "--noise", 0.2, "--bg", 0.2, "--seed", 11, "--out", out,
        )
        assert code == 0
    for name in ("gt.json", "steps.csv", "clips.csv", "graph.json"):
        a = (out1 / "instance_001" / name).read_bytes()
        b = (out2 / "instance_001" / name).read_bytes()
        assert a == b, name


def test_exit_codes(capsys, tmp_path, fig_graph):
    # missing file -> 1, no partial outputs
    out = tmp_path / "never.json"
    code, _, err = run(capsys, "ground", "--graph", tmp_path / "nope.json", "--costs", "x.csv", "--out", out)
    assert code == 1
    assert not out.exists()
    assert err.strip()
    # cycle -> 1
    bad = tmp_path / "cyc.json"
    bad.write_text(json.dumps({"nodes": [{"id": 0}, {"id": 1}], "edges": [[0, 1], [1, 0]]}))
    assert run(capsys, "graph", "validate", "--in", bad)[0] == 1
    # infeasible (more steps than clips) -> 2
    costs = tmp_path / "c.csv"
    write_matrix_csv(costs, np.ones((5, 2)))
    assert run(capsys, "ground", "--graph", fig_graph, "--costs", costs)[0] == 2
    # cap errors -> 2
    assert run(capsys, "graph", "sorts", "--spec", "4,4,4", "--cap", 10)[0] == 2
    # unknown flag -> 1
    assert run(capsys, "graph", "validate", "--wat")[0] == 1
    # conflicting inputs -> 1
    assert run(capsys, "graph", "sorts")[0] == 1
