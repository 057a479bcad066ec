import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowground import (
    CostMatrix,
    DropCosts,
    DROP,
    EmbeddingSequence,
    InfeasibleError,
    ThreadSpec,
    ValidationError,
    brute_force_ground,
    build_tsort_backward,
    build_tsort_forward,
    compute_cost_matrix,
    compute_drop_costs,
    drop_dtw,
    graph_drop_dtw,
    model_problem,
)
from util import EDGE_PROBS, random_costs, random_dag, random_dag_bounded


# -- cost construction -------------------------------------------------------


def test_single_step_costs_are_zero():
    steps = EmbeddingSequence(np.ones((1, 3)), kind="step")
    clips = EmbeddingSequence(np.random.default_rng(0).normal(size=(4, 3)), kind="clip")
    c = compute_cost_matrix(steps, clips)
    assert np.allclose(c.values, 0.0)


def test_two_step_closed_form():
    steps = EmbeddingSequence(np.eye(2), kind="step")
    clips = EmbeddingSequence(np.array([[1.0, 0.0]]), kind="clip")
    c = compute_cost_matrix(steps, clips, temperature=1.0)
    e = np.e
    assert c.values[0, 0] == pytest.approx(-np.log(e / (e + 1)), abs=1e-12)
    assert c.values[1, 0] == pytest.approx(-np.log(1 / (e + 1)), abs=1e-12)


def test_columns_are_normalized():
    rng = np.random.default_rng(3)
    steps = EmbeddingSequence(rng.normal(size=(4, 6)), kind="step")
    clips = EmbeddingSequence(rng.normal(size=(9, 6)), kind="clip")
    c = compute_cost_matrix(steps, clips, temperature=0.7)
    assert np.allclose(np.exp(-c.values).sum(axis=0), 1.0)


def test_cost_matrix_validation():
    steps = EmbeddingSequence(np.eye(2), kind="step")
    clips = EmbeddingSequence(np.ones((3, 5)), kind="clip")
    with pytest.raises(ValidationError, match="dimension"):
        compute_cost_matrix(steps, clips)
    with pytest.raises(ValidationError, match="temperature"):
        compute_cost_matrix(steps, EmbeddingSequence(np.eye(2)), temperature=0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        EmbeddingSequence(np.array([[np.nan, 1.0]]))


# -- drop costs ---------------------------------------------------------------


def test_drop_costs_constant_matrix():
    c = CostMatrix(np.full((3, 4), 5.0))
    assert np.allclose(compute_drop_costs(c).values, 5.0)


def test_drop_costs_linear_interpolation():
    c = CostMatrix(np.arange(1.0, 11.0).reshape(2, 5))
    d = compute_drop_costs(c, percentile=30.0)
    assert d.values[0] == pytest.approx(3.7)
    assert len(d) == 5


def test_drop_costs_percentile_100_is_max():
    rng = np.random.default_rng(1)
    c = CostMatrix(rng.uniform(size=(4, 6)))
    assert compute_drop_costs(c, 100.0).values[0] == pytest.approx(c.values.max())


def test_drop_costs_per_column():
    c = CostMatrix(np.array([[1.0, 10.0], [3.0, 30.0]]))
    d = compute_drop_costs(c, 50.0, per_column=True)
    assert d.values == pytest.approx([2.0, 20.0])


def test_drop_costs_bad_percentile():
    c = CostMatrix(np.ones((1, 1)))
    with pytest.raises(ValidationError):
        compute_drop_costs(c, 0.0)


# -- drop_dtw ------------------------------------------------------------------


def test_single_step_drops_all_but_best():
    c = CostMatrix(np.array([[5.0, 0.5, 5.0, 5.0]]))
    d = DropCosts(np.full(4, 1.0))
    a = drop_dtw([0], c, d)
    assert a.cost == pytest.approx(3.5)
    assert a.labels == (DROP, 0, DROP, DROP)
    assert a.dropped == {0, 2, 3}
    assert a.segments == {0: (1, 1)}


def test_identity_block_costs():
    c = CostMatrix(np.where(np.eye(3) > 0, 0.0, 10.0))
    d = DropCosts(np.full(3, 100.0))
    a = drop_dtw([0, 1, 2], c, d)
    assert a.cost == 0.0
    assert a.labels == (0, 1, 2)


def test_every_step_matched_even_when_drops_cheaper():
    c = CostMatrix(np.array([[5.0, 5.0]]))
    d = DropCosts(np.full(2, 1.0))
    a = drop_dtw([0], c, d)
    assert a.cost == pytest.approx(6.0)
    assert sorted(a.segments) == [0]


def test_infeasible_more_steps_than_clips():
    c = CostMatrix(np.ones((3, 2)))
    d = DropCosts(np.ones(2))
    with pytest.raises(InfeasibleError):
        drop_dtw([0, 1, 2], c, d)


def test_step_order_must_be_permutation():
    c = CostMatrix(np.ones((2, 4)))
    d = DropCosts(np.ones(4))
    with pytest.raises(ValidationError):
        drop_dtw([0, 0], c, d)
    with pytest.raises(ValidationError):
        drop_dtw([0], c, d)


# -- graph_drop_dtw ---------------------------------------------------------------


def test_chain_forced_block_diagonal():
    g = model_problem(ThreadSpec((3,)))
    c = CostMatrix(
        np.array(
            [
                [0.1, 0.1, 9.0, 9.0, 9.0, 9.0],
                [9.0, 9.0, 0.1, 9.0, 9.0, 9.0],
                [9.0, 9.0, 9.0, 0.1, 0.1, 0.1],
            ]
        )
    )
    d = DropCosts(np.full(6, 50.0))
    a = graph_drop_dtw(build_tsort_forward(g), c, d)
    assert a.labels == (0, 0, 1, 2, 2, 2)
    assert a.cost == pytest.approx(0.6)
    assert not a.dropped


def test_two_free_steps_pick_observed_order():
    g = model_problem(ThreadSpec((1, 1)))
    c = CostMatrix(np.array([[10.0, 0.1], [0.1, 10.0]]))
    d = DropCosts(np.full(2, 100.0))
    a = graph_drop_dtw(build_tsort_forward(g), c, d)
    assert a.tau_star == (1, 0)
    assert a.labels == (1, 0)
    assert a.cost == pytest.approx(0.2)


def test_chain_consistency_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        n_clips = int(rng.integers(n, 9))
        c, d = random_costs(rng, n, n_clips)
        g = model_problem(ThreadSpec((n,)))
        via_graph = graph_drop_dtw(build_tsort_forward(g), c, d)
        via_chain = drop_dtw(list(range(n)), c, d)
        assert via_graph.cost == via_chain.cost  # bit for bit
        assert via_graph.labels == via_chain.labels
        assert via_graph.tau_star == via_chain.tau_star


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        g = random_dag_bounded(rng, max_steps=6, max_sorts=400)
        n_clips = int(rng.integers(g.n_steps, 10) if g.n_steps < 10 else g.n_steps)
        c, d = random_costs(rng, g.n_steps, n_clips)
        a = graph_drop_dtw(build_tsort_forward(g), c, d)
        b = brute_force_ground(g, c, d)
        assert a.cost == pytest.approx(b.cost, abs=1e-9)
        assert a.tau_star == b.tau_star
        assert a.labels == b.labels


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 6),
    edge_prob=st.sampled_from(EDGE_PROBS),
    build=st.sampled_from([build_tsort_forward, build_tsort_backward]),
    ties=st.booleans(),
)
def test_graph_dp_equals_chain_dp_on_its_sort(seed, n_steps, edge_prob, build, ties):
    # Pins the traceback's tie rules: integer-rounded costs tie often, and
    # the chain DP breaks ties by the same rules in its own code.
    rng = np.random.default_rng(seed)
    g = random_dag(rng, n_steps, edge_prob)
    c, d = random_costs(rng, n_steps, int(rng.integers(n_steps, n_steps + 12)))
    if ties:
        c, d = CostMatrix(np.round(c.values)), DropCosts(np.round(d.values))
    a = graph_drop_dtw(build(g), c, d)
    b = drop_dtw(a.tau_star, c, d)
    assert a.cost == b.cost  # bit for bit
    assert a.labels == b.labels


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    build=st.sampled_from([build_tsort_forward, build_tsort_backward]),
    ties=st.booleans(),
)
def test_hard_dp_matches_brute_force_oracle(seed, build, ties):
    # The optimum's cost always agrees. Under the ties of integer-rounded
    # costs the order may not: brute force keeps the lexicographically
    # smallest sort, the traceback the lowest predecessor index.
    rng = np.random.default_rng(seed)
    g = random_dag_bounded(rng, max_steps=7, max_sorts=24)
    c, d = random_costs(rng, g.n_steps, int(rng.integers(g.n_steps, g.n_steps + 8)))
    if ties:
        c, d = CostMatrix(np.round(c.values)), DropCosts(np.round(d.values))
    a = graph_drop_dtw(build(g), c, d)
    b = brute_force_ground(g, c, d)
    assert a.cost == b.cost
    if not ties:
        assert (a.tau_star, a.labels) == (b.tau_star, b.labels)


@pytest.mark.parametrize(
    "spec, build, order",
    [
        ((2, 2), build_tsort_forward, (0, 1, 2, 3)),
        ((2, 2), build_tsort_backward, (2, 3, 0, 1)),
        ((3, 3), build_tsort_forward, (0, 1, 2, 3, 4, 5)),
        ((3, 3), build_tsort_backward, (3, 4, 5, 0, 1, 2)),
    ],
)
@pytest.mark.parametrize("extra", [0, 3])
def test_all_equal_costs_follow_the_tie_rules(spec, build, order, extra):
    # Every match and drop ties. Match beats drop and staying beats
    # transitioning, so the last step takes the surplus clips; the lowest
    # predecessor index picks the sort, which differs between the builds.
    g = model_problem(ThreadSpec(spec))
    n_clips = g.n_steps + extra
    c, d = CostMatrix(np.ones((g.n_steps, n_clips))), DropCosts(np.ones(n_clips))
    a = graph_drop_dtw(build(g), c, d)
    assert a.tau_star == order
    assert a.labels == order + (order[-1],) * extra
    assert a.cost == n_clips
    chain = drop_dtw(a.tau_star, c, d)
    assert (chain.cost, chain.labels) == (a.cost, a.labels)


def test_hard_dp_memory_is_the_value_table():
    # 8 B per state and clip column; the per-call buffers and the clip-major
    # costs are O(S + E) and O(N K) on top.
    g = model_problem(ThreadSpec((4, 4, 4, 4)))
    s = build_tsort_forward(g)
    s.plan  # compiled once per meta-graph, outside the per-call peak
    rng = np.random.default_rng(3)
    n_clips = 400
    c, d = random_costs(rng, g.n_steps, n_clips)
    tracemalloc.start()
    try:
        graph_drop_dtw(s, c, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s.nodes) == 2002
    assert peak <= 10 * len(s.nodes) * (n_clips + 1)


def test_one_to_many_with_infinite_drop_cost():
    # huge (not literally infinite: costs must stay finite) drop cost forces
    # every clip into a segment and segments tile the timeline contiguously
    rng = np.random.default_rng(4)
    g = model_problem(ThreadSpec((2, 1)))
    c = CostMatrix(rng.uniform(0, 1, size=(3, 8)))
    d = DropCosts(np.full(8, 1e9))
    a = graph_drop_dtw(build_tsort_forward(g), c, d)
    assert not a.dropped
    covered = []
    for step in a.tau_star:
        start, end = a.segments[step]
        covered.extend(range(start, end + 1))
    assert covered == list(range(8))


def test_alignment_invariants_random():
    rng = np.random.default_rng(9)
    for _ in range(30):
        g = random_dag_bounded(rng, max_steps=5, max_sorts=200)
        n_clips = int(rng.integers(g.n_steps, g.n_steps + 5))
        c, d = random_costs(rng, g.n_steps, n_clips)
        a = graph_drop_dtw(build_tsort_forward(g), c, d)
        # every step appears in exactly one segment
        assert set(a.segments) == set(range(g.n_steps))
        assert sorted(a.tau_star) == list(range(g.n_steps))
        # dropped is exactly the DROP positions of labels, and each segment
        # is the hull of its step's positions there
        assert len(a.labels) == n_clips
        assert a.dropped == {j for j, lab in enumerate(a.labels) if lab == DROP}
        for step, (start, end) in a.segments.items():
            at = [j for j, lab in enumerate(a.labels) if lab == step]
            assert (start, end) == (at[0], at[-1])
        # segment hulls appear in tau_star order and never interleave
        hulls = [a.segments[s] for s in a.tau_star]
        assert all(h1[1] < h2[0] for h1, h2 in zip(hulls, hulls[1:]))
        # tau_star respects the graph edges
        pos = {v: i for i, v in enumerate(a.tau_star)}
        for u, v in g.edges:
            if not (g.nodes[u].is_virtual or g.nodes[v].is_virtual):
                assert pos[u] < pos[v]


def test_shift_covariance_hard():
    rng = np.random.default_rng(31)
    g = model_problem(ThreadSpec((2, 2)))
    s = build_tsort_forward(g)
    c, d = random_costs(rng, 4, 7)
    base = graph_drop_dtw(s, c, d).cost
    for delta in rng.uniform(-1, 1, size=5):
        shifted = graph_drop_dtw(
            s, CostMatrix(c.values + delta), DropCosts(d.values + delta)
        ).cost
        assert shifted == pytest.approx(base + 7 * delta, abs=1e-9)


def test_concurrent_alignments_share_inputs():
    # batch parallelism contract: independent alignments over shared
    # immutable inputs agree with sequential results
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(6)
    g = model_problem(ThreadSpec((2, 2)))
    s = build_tsort_forward(g)
    jobs = [random_costs(rng, 4, 9) for _ in range(16)]
    sequential = [graph_drop_dtw(s, c, d) for c, d in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda cd: graph_drop_dtw(s, *cd), jobs))
    for a, b in zip(sequential, parallel):
        assert a.cost == b.cost
        assert a.labels == b.labels


def test_mismatched_drop_vector_rejected():
    g = model_problem(ThreadSpec((1, 1)))
    c = CostMatrix(np.ones((2, 4)))
    with pytest.raises(ValidationError):
        graph_drop_dtw(build_tsort_forward(g), c, DropCosts(np.ones(3)))


# -- labels -------------------------------------------------------------------


def test_interior_drop_spans_segment_hull():
    # dropping a bad clip mid-step is allowed; the hull spans the drop and
    # labels stay authoritative
    c = CostMatrix(np.array([[0.1, 5.0, 0.1]]))
    d = DropCosts(np.full(3, 1.0))
    a = drop_dtw([0], c, d)
    assert a.cost == pytest.approx(1.2)
    assert a.labels == (0, DROP, 0)
    assert a.segments == {0: (0, 2)}
    assert a.dropped == {1}
