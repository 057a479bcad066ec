import numpy as np
import pytest

from flowground import (
    CapExceededError,
    CostMatrix,
    DropCosts,
    ThreadSpec,
    count_tsort_nodes_closed_form,
    drop_dtw,
    enumerate_paths,
    enumerate_topological_sorts,
    graph_drop_dtw,
    isomorphic,
    model_problem,
    normalize,
    parse_flow_graph,
)
from flowground.graph import FlowGraph, StepNode, iter_thread_specs
from flowground.tsort import TSortNode, build_tsort_backward, build_tsort_forward
from util import random_dag, random_dag_bounded

FIG_GRAPH = {
    "nodes": [{"id": i} for i in range(1, 6)],
    "edges": [[1, 2], [2, 3], [1, 4], [3, 5], [4, 5]],
}


def chain(n):
    g = FlowGraph(
        nodes=tuple(StepNode(id=i) for i in range(n)),
        edges=frozenset((i, i + 1) for i in range(n - 1)),
    )
    return normalize(g)


@pytest.mark.parametrize("build", [build_tsort_forward, build_tsort_backward])
def test_chain_meta_graph_is_chain(build):
    n = 5
    s = build(chain(n))
    assert s.num_nodes() == n + 1  # root state plus one state per step
    assert enumerate_paths(s) == [tuple(range(n))]


@pytest.mark.parametrize("build", [build_tsort_forward, build_tsort_backward])
def test_two_free_steps(build):
    g = normalize(FlowGraph(nodes=(StepNode(id=0), StepNode(id=1)), edges=frozenset()))
    s = build(g)
    assert sorted(enumerate_paths(s)) == [(0, 1), (1, 0)]
    assert s.num_nodes() == count_tsort_nodes_closed_form(ThreadSpec((1, 1)))


def test_figure_graph_paths_spell_all_sorts():
    g = normalize(parse_flow_graph(FIG_GRAPH))
    s = build_tsort_forward(g)
    assert set(enumerate_paths(s)) == set(enumerate_topological_sorts(g))
    assert len(enumerate_paths(s)) == 3


def test_backward_front_contains_documented_state():
    # root 0 feeding threads {1,2,3} and {4}: the state (3, {4}) must exist.
    doc = {"nodes": [{"id": i} for i in range(5)],
           "edges": [[0, 1], [1, 2], [2, 3], [0, 4]]}
    g = normalize(parse_flow_graph(doc))
    s = build_tsort_backward(g)
    assert TSortNode(active=3, mark=1 << 4) in s.nodes


@pytest.mark.parametrize("build", [build_tsort_forward, build_tsort_backward])
def test_model_problem_sizes_match_closed_form(build):
    for spec in iter_thread_specs(max_steps=9, max_threads=3):
        s = build(model_problem(spec))
        assert s.num_nodes() == count_tsort_nodes_closed_form(spec), spec


def test_model_problem_degree_bound():
    for spec in [ThreadSpec((3, 3)), ThreadSpec((2, 2, 2)), ThreadSpec((4, 1))]:
        s = build_tsort_forward(model_problem(spec))
        t = spec.n_threads
        for i in range(len(s.nodes)):
            assert len(s.predecessors[i]) <= t
            assert len(s.successors[i]) <= t


def test_single_root_and_sink():
    for spec in [ThreadSpec((2, 2)), ThreadSpec((3, 1, 1))]:
        s = build_tsort_forward(model_problem(spec))
        no_in = [i for i in range(len(s.nodes)) if not s.predecessors[i]]
        no_out = [i for i in range(len(s.nodes)) if not s.successors[i]]
        assert no_in == [s.root]
        assert no_out == [s.sink]


def test_every_node_on_a_root_sink_path():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_dag(rng, int(rng.integers(1, 7)), 0.3)
        s = build_tsort_forward(g)
        reach_fwd = {s.root}
        stack = [s.root]
        while stack:
            for w in s.successors[stack.pop()]:
                if w not in reach_fwd:
                    reach_fwd.add(w)
                    stack.append(w)
        reach_bwd = {s.sink}
        stack = [s.sink]
        while stack:
            for w in s.predecessors[stack.pop()]:
                if w not in reach_bwd:
                    reach_bwd.add(w)
                    stack.append(w)
        assert reach_fwd == reach_bwd == set(range(len(s.nodes)))


def test_completeness_and_equivalence_random():
    rng = np.random.default_rng(77)
    for _ in range(60):
        g = random_dag_bounded(rng, max_steps=8, max_sorts=3000)
        expected = set(enumerate_topological_sorts(g))
        fwd = build_tsort_forward(g)
        bwd = build_tsort_backward(g)
        paths_fwd = enumerate_paths(fwd)
        paths_bwd = enumerate_paths(bwd)
        assert len(paths_fwd) == len(set(paths_fwd))  # duplicate-free
        assert len(paths_bwd) == len(set(paths_bwd))
        assert set(paths_fwd) == expected
        assert set(paths_bwd) == expected
        assert isomorphic(fwd, bwd)


def test_prefix_merge_forward_marks_are_unique():
    # two partial traversals land on one node iff (active, visited) coincide
    s = build_tsort_forward(model_problem(ThreadSpec((2, 2))))
    keys = {(n.active, n.mark) for n in s.nodes}
    assert len(keys) == len(s.nodes)


@pytest.mark.parametrize("build", [build_tsort_forward, build_tsort_backward])
def test_plan_slots_list_predecessors_in_ascending_order(build):
    rng = np.random.default_rng(41)
    for _ in range(30):
        s = build(random_dag_bounded(rng, max_steps=6, max_sorts=500))
        plan, n_states = s.plan, len(s.nodes)
        assert len(plan.slots) == max(map(len, s.predecessors))
        for i, preds in enumerate(s.predecessors):
            pads = (n_states,) * (len(plan.slots) - len(preds))
            assert tuple(plan.slots[:, i]) == preds + pads
        assert not plan.slots.flags.writeable


def test_guards():
    wide = FlowGraph(nodes=tuple(StepNode(id=i) for i in range(70)), edges=frozenset())
    with pytest.raises(CapExceededError, match="cap"):
        build_tsort_forward(normalize(wide), node_cap=1000)
    with pytest.raises(CapExceededError, match="cap"):
        build_tsort_forward(model_problem(ThreadSpec((3, 3))), node_cap=5)
    with pytest.raises(CapExceededError):
        enumerate_paths(build_tsort_forward(model_problem(ThreadSpec((3, 3)))), cap=2)


def test_long_chain_builds_and_grounds():
    # node sets are unbounded ints: a 70-step chain has a 71-state meta-graph
    g = chain(70)
    fwd, bwd = build_tsort_forward(g), build_tsort_backward(g)
    assert fwd.num_nodes() == bwd.num_nodes() == 71
    assert isomorphic(fwd, bwd)
    rng = np.random.default_rng(70)
    c = CostMatrix(rng.uniform(0.0, 5.0, size=(70, 90)))
    d = DropCosts(rng.uniform(0.0, 2.0, size=90))
    a = graph_drop_dtw(fwd, c, d)
    assert a.tau_star == tuple(range(70))
    assert a.cost == drop_dtw(range(70), c, d).cost


def test_json_and_dot_export():
    s = build_tsort_forward(model_problem(ThreadSpec((1, 1))))
    doc = s.to_json_dict()
    assert doc["variant"] == "forward"
    assert len(doc["nodes"]) == len(s.nodes)
    assert all(set(n) >= {"id", "active", "mark"} for n in doc["nodes"])
    dot = s.to_dot()
    assert dot.startswith("digraph")
