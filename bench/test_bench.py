"""Tests of the benchmark itself: generator, output checks and tracer.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowground as fg
import flowground.cli  # noqa: F401  (the CLI workloads look it up)

import checks
import gen
import tracing
import workloads
from checks import CheckFailed

HERE = Path(__file__).resolve().parent


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cls", [workloads.CliGround, workloads.Train])
def test_same_seed_gives_byte_identical_inputs(tmp_path, cls):
    trees = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        w = cls(fg, 5, tmp_path / run)
        for index in range(3 if cls is workloads.CliGround else 1):
            w.make(index, index)
        trees.append(_tree(tmp_path / run))
    assert trees[0] and trees[0] == trees[1]


def test_meta_graph_and_sort_counts_match_the_program():
    rng = np.random.default_rng(0)
    procs = [gen.chains((3, 3, 3)), gen.chains((15,)), gen.random_dag(rng, "r", (6, 8), (1, 10**6))]
    procs += [gen.cross_chains(rng, 300) for _ in range(4)]
    for proc in procs:
        g = fg.normalize(fg.parse_flow_graph(proc.document()))
        meta = fg.build_tsort_forward(g)
        assert (proc.n_states, proc.n_edges) == (len(meta.nodes), len(meta.edges))
        if proc.n_sorts < 5000:
            assert proc.n_sorts == len(fg.enumerate_topological_sorts(g))


def test_chain_aligner_matches_the_program():
    rng = np.random.default_rng(1)
    for _ in range(5):
        costs = rng.uniform(0, 5, size=(5, 40))
        drops = np.full(40, 1.5)
        order = [int(v) for v in rng.permutation(5)]
        want = fg.drop_dtw(order, fg.CostMatrix(costs), fg.DropCosts(drops))
        cost, labels = checks.chain_align(order, costs, drops)
        assert cost == pytest.approx(want.cost, abs=1e-12)
        assert labels == list(want.labels)


def test_library_check_accepts_the_program_and_trips_on_corruption(tmp_path):
    w = workloads.GroundReuse(fg, 3, tmp_path)
    w.prepare()
    op = w.make(0, 0)
    result = w.run(op)
    assert w.check(op, result).clips == len(op.video.labels)
    costs = gen.costs(op.video.steps, op.video.clips, workloads.TEMPERATURE)
    drops = checks.drop_costs(costs, workloads.PERCENTILE)
    tau, labels = list(result.tau_star), list(result.labels)
    first = tau[0]
    moved = list(labels)
    moved[labels.index(first)] = -1  # one clip of the first step dropped instead
    corrupt = [
        (result.cost + 1e-6, tau, labels),  # cost off
        (result.cost, tau[::-1], labels),  # order breaks an edge
        (result.cost, tau, moved),  # labels differ from the optimum
        (result.cost, tau, [v if v != first else -1 for v in labels]),  # a step without clips
    ]
    for cost, t, lab in corrupt:
        with pytest.raises(CheckFailed):
            checks.grounding(op.proc, costs, drops, cost, t, lab)


def test_oracle_check_trips_on_a_wrong_order():
    rng = np.random.default_rng(2)
    proc = gen.make_proc("two", 3, [(0, 2)])  # 3 sorts
    vid = gen.video(rng, proc, 30, noise=0.3)
    costs = gen.costs(vid.steps, vid.clips, 0.1)
    drops = checks.drop_costs(costs, 30.0)
    graph = fg.normalize(fg.parse_flow_graph(proc.document()))
    best = fg.graph_drop_dtw(fg.build_tsort_forward(graph), fg.CostMatrix(costs), fg.DropCosts(drops))
    checks.oracle(fg, graph, proc, costs, drops, best.cost, best.tau_star, best.labels)
    other = next(t for t in ([0, 1, 2], [0, 2, 1], [1, 0, 2]) if t != list(best.tau_star))
    cost, labels = checks.chain_align(other, costs, drops)
    with pytest.raises(CheckFailed):
        checks.oracle(fg, graph, proc, costs, drops, cost, other, labels)


def test_cli_check_trips_on_a_corrupted_output_file(tmp_path):
    w = workloads.CliGround(fg, 4, tmp_path)
    op = w.make(0, 0)
    assert w.run(op) == 0
    doc = json.loads(op.out.read_text())
    doc["cost"] += 1e-3
    op.out.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed):
        w.check(op, 0)


def test_train_check_trips_on_a_rising_loss(tmp_path):
    w = workloads.Train(fg, 4, tmp_path)
    op = workloads.TrainOp([], tmp_path, [(gen.chains((2,)), 100)])
    (tmp_path / "trace.csv").write_text("epoch,loss,accuracy\n0,2.0,0.5\n1,2.5,0.5\n")
    out = json.dumps({"epochs": 2, "initial_loss": 2.0, "final_loss": 2.5, "final_accuracy": 0.5})
    with pytest.raises(CheckFailed):
        w.check(op, (0, out))


def test_gradient_mass_check_trips_on_a_wrong_gradient(monkeypatch):
    proc = gen.chains((2, 2))
    meta = fg.build_tsort_forward(fg.normalize(fg.parse_flow_graph(proc.document())))
    costs = np.random.default_rng(3).uniform(0, 3, size=(4, 20))
    drops = np.full(20, 1.0)
    checks.gradient_mass(fg, meta, costs, drops)
    real = fg.soft_graph_drop_dtw

    def halved(*args):
        out = real(*args)
        return fg.LossValue(out.value, out.grad_costs / 2, out.grad_drops)

    monkeypatch.setattr(fg, "soft_graph_drop_dtw", halved)
    with pytest.raises(CheckFailed):
        checks.gradient_mass(fg, meta, costs, drops)


def test_tracer_records_nested_spans_and_restores(tmp_path):
    w = workloads.CliGround(fg, 6, tmp_path)
    op = w.make(0, 0)
    original = fg.cli.graph_drop_dtw
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fg.cli.graph_drop_dtw is not original
        tracer.op = 0
        assert w.run(op) == 0
        tracer.op = None
    finally:
        tracer.restore()
    assert fg.cli.graph_drop_dtw is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and "align.hard" in names and "tsort.build" in names
    own = tracer.self_times()
    main = tracer.spans[0]
    assert own[0] == pytest.approx(
        (main.end - main.start) - sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    )
    layers = tracing.layer_metrics(tracer, {0: 1.0}, set())
    assert layers["tsort.builds"] == 1 and layers["tsort.useful_ratio"] == 1
    assert layers["align.hard_cells"] == op.proc.n_states * len(op.video.labels)


def test_missing_entry_point_is_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + [("flowground.cli", "gone", "x", None)])
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="flowground.cli.gone"):
        tracer.install()
    assert not hasattr(fg.cli.graph_drop_dtw, "__wrapped__")


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-ground", "--seed", "1", "--seconds", "0.3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
