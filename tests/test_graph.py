import json

import numpy as np
import pytest

from flowground import (
    CapExceededError,
    ThreadSpec,
    ValidationError,
    complexity_ratio,
    count_tsort_nodes_closed_form,
    count_tsorts_closed_form,
    enumerate_topological_sorts,
    model_problem,
    normalize,
    parse_flow_graph,
)
from flowground.graph import FlowGraph, StepNode, iter_thread_specs
from util import random_dag

FIG_GRAPH = {
    "nodes": [{"id": i, "label": f"step {i}"} for i in range(1, 6)],
    "edges": [[1, 2], [2, 3], [1, 4], [3, 5], [4, 5]],
}


def chain(n):
    nodes = tuple(StepNode(id=i) for i in range(n))
    return FlowGraph(nodes=nodes, edges=frozenset((i, i + 1) for i in range(n - 1)))


# -- parsing ---------------------------------------------------------------


def test_parse_minimal_chain():
    g = parse_flow_graph(
        {"nodes": [{"id": 0, "label": "boil water"}, {"id": 1, "label": "add pasta"}],
         "edges": [[0, 1]]}
    )
    assert g.n_nodes == 2
    assert g.edges == frozenset({(0, 1)})
    assert g.nodes[0].label == "boil water"


def test_parse_smallest_cycle_reports_it():
    doc = {"nodes": [{"id": 0}, {"id": 1}], "edges": [[0, 1], [1, 0]]}
    with pytest.raises(ValidationError, match="cycle"):
        parse_flow_graph(doc)


def test_parse_figure_graph_remaps_ids():
    g = parse_flow_graph(json.dumps(FIG_GRAPH))
    assert g.n_nodes == 5
    assert len(g.edges) == 5
    # 1-based document ids preserved as external ids
    assert [n.external_id for n in g.nodes] == [1, 2, 3, 4, 5]
    assert [n.id for n in g.nodes] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"nodes": []}, "nodes"),
        ({"nodes": [{"id": 0}], "edges": [[0, 0]]}, "self-loop"),
        ({"nodes": [{"id": 0}, {"id": 0}], "edges": []}, "duplicate node"),
        ({"nodes": [{"id": 0}], "edges": [[0, 3]]}, "unknown node"),
        ({"nodes": [{"id": 0}, {"id": 1}], "edges": [[0, 1], [0, 1]]}, "duplicate edge"),
        ({"nodes": [{"id": -2}], "edges": []}, "negative"),
        ("not json {", "invalid JSON"),
    ],
)
def test_parse_rejects_malformed(doc, message):
    with pytest.raises(ValidationError, match=message):
        parse_flow_graph(doc)


# -- normalization ----------------------------------------------------------


def test_normalize_chain_attaches_endpoints():
    g = normalize(chain(3))
    assert g.is_normalized
    assert g.n_steps == 3
    assert g.predecessors(0) == {g.root_id}
    assert g.descendants(2) == {g.sink_id}


def test_normalize_is_idempotent():
    g = normalize(chain(4))
    assert normalize(g) is g


def test_normalize_bag_becomes_star():
    bag = FlowGraph(nodes=tuple(StepNode(id=i) for i in range(4)), edges=frozenset())
    g = normalize(bag)
    for v in range(4):
        assert g.predecessors(v) == {g.root_id}
        assert g.descendants(v) == {g.sink_id}


def test_normalize_two_parallel_steps_is_diamond():
    g = normalize(
        FlowGraph(nodes=(StepNode(id=0), StepNode(id=1)), edges=frozenset())
    )
    assert g.predecessors(g.sink_id) == {0, 1}
    assert g.descendants(g.root_id) == {0, 1}


def test_virtual_nodes_take_the_highest_ids():
    # cost row i is step id i, so steps must be 0..K-1 with the virtual
    # root and sink after them; here the root is 0 and the steps 1..3
    k = 3
    nodes = (
        (StepNode(id=0, is_virtual=True),)
        + tuple(StepNode(id=i) for i in range(1, k + 1))
        + (StepNode(id=k + 1, is_virtual=True),)
    )
    edges = frozenset({(0, 1), (1, 2), (2, 3), (3, k + 1)})
    with pytest.raises(ValidationError, match="highest ids"):
        FlowGraph(nodes=nodes, edges=edges, root_id=0, sink_id=k + 1)


# -- relations ----------------------------------------------------------------


def test_relation_queries():
    g = normalize(chain(3))
    assert g.is_ancestor(0, 2)
    assert not g.is_ancestor(2, 0)
    assert not g.is_ancestor(0, 0)
    two = normalize(FlowGraph(nodes=(StepNode(id=0), StepNode(id=1)), edges=frozenset()))
    assert not two.is_ancestor(0, 1)
    assert not two.is_ancestor(1, 0)
    with pytest.raises(ValidationError):
        g.predecessors(99)


# -- enumeration ---------------------------------------------------------------


def test_chain_has_unique_sort():
    assert enumerate_topological_sorts(normalize(chain(3))) == [(0, 1, 2)]


def test_model_problem_2_1_has_three_sorts():
    sorts = enumerate_topological_sorts(model_problem(ThreadSpec((2, 1))))
    assert len(sorts) == 3
    assert sorts == sorted(sorts)  # lexicographic
    assert len(set(sorts)) == 3


def test_model_problem_2_2_riffle_shuffles():
    sorts = enumerate_topological_sorts(model_problem(ThreadSpec((2, 2))))
    assert len(sorts) == 6
    for tau in sorts:
        assert tau.index(0) < tau.index(1)
        assert tau.index(2) < tau.index(3)


def test_figure_graph_sorts():
    g = normalize(parse_flow_graph(FIG_GRAPH))
    sorts = enumerate_topological_sorts(g)
    # in external ids: [1,2,3,4,5], [1,2,4,3,5], [1,4,2,3,5]
    ext = [n.external_id for n in g.nodes]
    named = {tuple(ext[v] for v in tau) for tau in sorts}
    assert named == {(1, 2, 3, 4, 5), (1, 2, 4, 3, 5), (1, 4, 2, 3, 5)}


def test_enumeration_cap():
    bag = normalize(
        FlowGraph(nodes=tuple(StepNode(id=i) for i in range(6)), edges=frozenset())
    )
    with pytest.raises(CapExceededError):
        enumerate_topological_sorts(bag, cap=100)


def test_sorts_respect_edges_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_dag(rng, int(rng.integers(2, 7)), 0.4)
        step_edges = [
            (u, v)
            for u, v in g.edges
            if not (g.nodes[u].is_virtual or g.nodes[v].is_virtual)
        ]
        for tau in enumerate_topological_sorts(g):
            pos = {v: i for i, v in enumerate(tau)}
            assert all(pos[u] < pos[v] for u, v in step_edges)


# -- closed forms ---------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes, expected",
    [((2, 1), 3), ((5,), 1), ((3, 3, 3), 1680), ((2, 2), 6)],
)
def test_count_tsorts_closed_form(sizes, expected):
    assert count_tsorts_closed_form(ThreadSpec(sizes)) == expected


@pytest.mark.parametrize(
    "sizes, expected",
    [((1, 1), 5), ((4,), 5), ((2, 2), 13)],
)
def test_count_tsort_nodes_closed_form(sizes, expected):
    assert count_tsort_nodes_closed_form(ThreadSpec(sizes)) == expected


def test_enumeration_matches_closed_form_small():
    for spec in iter_thread_specs(max_steps=6, max_threads=3):
        got = len(enumerate_topological_sorts(model_problem(spec)))
        assert got == count_tsorts_closed_form(spec), spec


def test_count_is_one_iff_single_thread():
    for spec in iter_thread_specs(max_steps=5, max_threads=3):
        count = count_tsorts_closed_form(spec)
        assert count >= 1
        assert (count == 1) == (spec.n_threads == 1)


def test_complexity_ratio_values():
    assert complexity_ratio(ThreadSpec((1, 1))) == pytest.approx(0.4)
    for n in (2, 5, 9):
        assert complexity_ratio(ThreadSpec((n,))) == pytest.approx(n / (n + 1))
    spec = ThreadSpec((3, 3, 3))
    expected = 1680 * 9 / (3 * count_tsort_nodes_closed_form(spec))
    assert complexity_ratio(spec) == pytest.approx(expected)


def test_big_integer_counts():
    spec = ThreadSpec((20, 20, 20))
    count = count_tsorts_closed_form(spec)
    assert count == (
        __import__("math").factorial(60)
        // __import__("math").factorial(20) ** 3
    )
    assert count > 2**64  # must not fit in machine integers


# -- export ---------------------------------------------------------------------


def test_json_roundtrip_uses_external_ids():
    g = parse_flow_graph(FIG_GRAPH)
    doc = g.to_json_dict()
    assert {n["id"] for n in doc["nodes"]} == {1, 2, 3, 4, 5}
    again = parse_flow_graph(doc)
    assert again.edges == g.edges


def test_dot_export_mentions_labels():
    g = normalize(parse_flow_graph(FIG_GRAPH))
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "step 1" in dot
    assert "root" in dot and "sink" in dot
