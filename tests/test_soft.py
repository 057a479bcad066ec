import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import flowground.soft
from flowground import (
    CostMatrix,
    DropCosts,
    EmbeddingSequence,
    ProjectionModel,
    SmoothingConfig,
    ThreadSpec,
    TrainingDivergedError,
    ValidationError,
    brute_force_ground,
    build_tsort_backward,
    build_tsort_forward,
    clustering_loss,
    combined_loss,
    drop_dtw,
    graph_drop_dtw,
    graph_drop_dtw_batch,
    model_problem,
    smooth_min,
    smooth_min_grad,
    soft_graph_drop_dtw,
    soft_graph_drop_dtw_batch,
    train_projection,
)
from util import EDGE_PROBS, random_costs, random_dag, random_dag_bounded


def rel_err(a, b, floor=1e-6):
    return np.max(np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b))))


# -- smooth_min ------------------------------------------------------------------


def test_smooth_min_single_element():
    for gamma in (0.01, 1.0, 100.0):
        assert smooth_min([7.25], gamma) == pytest.approx(7.25, abs=1e-12)


def test_smooth_min_hard_limit():
    assert smooth_min([0.0, 10.0], 0.01) == pytest.approx(0.0, abs=1e-6)


def test_smooth_min_closed_form_pair():
    expected = (np.exp(-1) + 2 * np.exp(-2)) / (np.exp(-1) + np.exp(-2))
    assert smooth_min([1.0, 2.0], 1.0) == pytest.approx(expected, abs=1e-12)


def test_smooth_min_bounds_and_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.uniform(-3, 3, size=int(rng.integers(2, 6)))
        gamma = float(rng.uniform(0.05, 2.0))
        m = smooth_min(v, gamma)
        assert m >= v.min() - gamma * np.log(len(v)) - 1e-12
        assert m <= np.mean(v) + 1e-12
    pair = np.array([0.3, 1.9])
    values = [smooth_min(pair, g) for g in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(pair.mean(), abs=1e-2)


def test_smooth_min_rejects_bad_input():
    with pytest.raises(ValidationError):
        smooth_min([], 1.0)
    with pytest.raises(ValidationError):
        smooth_min([1.0], 0.0)


def test_smooth_min_grad_matches_fd():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        v = rng.uniform(-2, 2, size=4)
        gamma = float(rng.uniform(0.1, 1.5))
        _, grads = smooth_min_grad(v, gamma)
        fd = np.zeros(4)
        for i in range(4):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (smooth_min(vp, gamma) - smooth_min(vm, gamma)) / (2 * h)
        assert rel_err(grads, fd) < 1e-4
        assert grads.sum() == pytest.approx(1.0, abs=1e-12)


# -- soft DP ----------------------------------------------------------------------


def test_soft_value_converges_to_hard():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_dag_bounded(rng, max_steps=5, max_sorts=300)
        c, d = random_costs(rng, g.n_steps, g.n_steps + 3)
        s = build_tsort_forward(g)
        hard = graph_drop_dtw(s, c, d).cost
        soft = soft_graph_drop_dtw(s, c, d, SmoothingConfig(1e-6)).value
        assert abs(soft - hard) <= 1e-4


def test_soft_value_decreases_monotonically_with_gamma():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_dag_bounded(rng, max_steps=5, max_sorts=300)
        c, d = random_costs(rng, g.n_steps, g.n_steps + 3)
        s = build_tsort_forward(g)
        hard = graph_drop_dtw(s, c, d).cost
        gaps = [
            soft_graph_drop_dtw(s, c, d, SmoothingConfig(gamma)).value - hard
            for gamma in (1.0, 0.1, 0.01, 0.001)
        ]
        assert all(gap >= -1e-9 for gap in gaps)
        assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_soft_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    cfg = SmoothingConfig(0.3)
    h = 1e-5
    for _ in range(8):
        g = random_dag_bounded(rng, max_steps=4, max_sorts=100)
        n, n_clips = g.n_steps, g.n_steps + 2
        c, d = random_costs(rng, n, n_clips)
        s = build_tsort_forward(g)
        got = soft_graph_drop_dtw(s, c, d, cfg)
        fd_c = np.zeros_like(c.values)
        for i in range(n):
            for j in range(n_clips):
                up, down = c.values.copy(), c.values.copy()
                up[i, j] += h
                down[i, j] -= h
                fd_c[i, j] = (
                    soft_graph_drop_dtw(s, CostMatrix(up), d, cfg).value
                    - soft_graph_drop_dtw(s, CostMatrix(down), d, cfg).value
                ) / (2 * h)
        fd_d = np.zeros(n_clips)
        for j in range(n_clips):
            up, down = d.values.copy(), d.values.copy()
            up[j] += h
            down[j] -= h
            fd_d[j] = (
                soft_graph_drop_dtw(s, c, DropCosts(up), cfg).value
                - soft_graph_drop_dtw(s, c, DropCosts(down), cfg).value
            ) / (2 * h)
        assert rel_err(got.grad_costs, fd_c) < 1e-4
        assert rel_err(got.grad_drops, fd_d) < 1e-4


def test_gradient_mass_equals_clip_count():
    rng = np.random.default_rng(15)
    cfg = SmoothingConfig(0.4)
    for _ in range(10):
        g = random_dag_bounded(rng, max_steps=5, max_sorts=300)
        n_clips = g.n_steps + 3
        c, d = random_costs(rng, g.n_steps, n_clips)
        lv = soft_graph_drop_dtw(build_tsort_forward(g), c, d, cfg)
        total = lv.grad_costs.sum() + lv.grad_drops.sum()
        assert total == pytest.approx(n_clips, abs=1e-8)


def test_soft_shift_covariance_exact():
    rng = np.random.default_rng(16)
    cfg = SmoothingConfig(0.2)
    g = model_problem(ThreadSpec((2, 1)))
    s = build_tsort_forward(g)
    c, d = random_costs(rng, 3, 6)
    base = soft_graph_drop_dtw(s, c, d, cfg).value
    for delta in rng.uniform(-1, 1, size=5):
        shifted = soft_graph_drop_dtw(
            s, CostMatrix(c.values + delta), DropCosts(d.values + delta), cfg
        ).value
        assert shifted == pytest.approx(base + 6 * delta, abs=1e-9)


ROUTES = {
    "hard": graph_drop_dtw,
    "soft": lambda s, c, d: soft_graph_drop_dtw(s, c, d, SmoothingConfig()),
    "chain": lambda s, c, d: drop_dtw(range(s.origin.n_steps), c, d),
    "brute": lambda s, c, d: brute_force_ground(s.origin, c, d),
}


@pytest.mark.parametrize(
    "shape",
    [(3, 5), (3, 7), (2, 6), (4, 6)],
    ids=["fewer-clips", "more-clips", "missing", "extra"],
)
@pytest.mark.parametrize("route", ROUTES)
def test_cost_rows_must_be_exactly_the_graph_steps(route, shape):
    # cost row i is step i: three steps need three rows and, with six drop
    # costs, six clips
    s = build_tsort_forward(model_problem(ThreadSpec((2, 1))))
    c = CostMatrix(np.ones(shape))
    with pytest.raises(ValidationError):
        ROUTES[route](s, c, DropCosts(np.ones(6)))


def test_dps_agree_on_forward_and_backward_meta_graphs():
    rng = np.random.default_rng(18)
    cfg = SmoothingConfig(0.3)
    for _ in range(100):
        g = random_dag_bounded(rng, max_steps=5, max_sorts=300)
        c, d = random_costs(rng, g.n_steps, g.n_steps + 3)
        fwd, bwd = build_tsort_forward(g), build_tsort_backward(g)
        assert bwd.root != 0 and bwd.sink == 0
        assert bwd.plan is bwd.plan
        a, b = graph_drop_dtw(fwd, c, d), graph_drop_dtw(bwd, c, d)
        assert abs(a.cost - b.cost) <= 1e-12
        assert (a.tau_star, a.labels) == (b.tau_star, b.labels)
        sa, sb = soft_graph_drop_dtw(fwd, c, d, cfg), soft_graph_drop_dtw(bwd, c, d, cfg)
        assert abs(sa.value - sb.value) <= 1e-9
        assert np.max(np.abs(sa.grad_costs - sb.grad_costs)) <= 1e-9
        assert np.max(np.abs(sa.grad_drops - sb.grad_drops)) <= 1e-9


def _bits(lv):
    return lv.value, lv.grad_costs.tobytes(), lv.grad_costs.shape, lv.grad_drops.tobytes()


# Near-edgeless 9-11-step DAGs give meta-states 8 or more incoming edges,
# where numpy's segment sums switch to their unrolled loop.
@example(seed=9, n_steps=9, edge_prob=0.0, build=build_tsort_forward, gamma=0.1, n_problems=3, route="soft")
@example(seed=10, n_steps=10, edge_prob=0.05, build=build_tsort_backward, gamma=1.0, n_problems=4, route="soft")
@example(seed=11, n_steps=11, edge_prob=0.0, build=build_tsort_backward, gamma=0.01, n_problems=2, route="soft")
@example(seed=9, n_steps=9, edge_prob=0.0, build=build_tsort_forward, gamma=0.1, n_problems=3, route="hard")
@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 6),
    edge_prob=st.sampled_from(EDGE_PROBS),
    build=st.sampled_from([build_tsort_forward, build_tsort_backward]),
    gamma=st.sampled_from([0.01, 0.1, 1.0]),
    n_problems=st.integers(1, 5),
    route=st.sampled_from(["hard", "soft"]),
)
def test_batched_soft_dp_equals_single(seed, n_steps, edge_prob, build, gamma, n_problems, route):
    # Problems of mixed lengths share one padded DP; each result must keep
    # the bits of grounding that problem alone, for the soft DP and the hard.
    rng = np.random.default_rng(seed)
    s = build(random_dag(rng, n_steps, edge_prob))
    cfg = SmoothingConfig(gamma)
    problems = [
        random_costs(rng, n_steps, int(rng.integers(n_steps, n_steps + 12)))
        for _ in range(n_problems)
    ]
    if route == "hard":
        single = [graph_drop_dtw(s, c, d) for c, d in problems]
        batched = graph_drop_dtw_batch(s, problems)
        assert [a.cost.hex() for a in batched] == [a.cost.hex() for a in single]
        assert batched == single
    else:
        single = [soft_graph_drop_dtw(s, c, d, cfg) for c, d in problems]
        batched = soft_graph_drop_dtw_batch(s, problems, cfg)
        assert [_bits(b) for b in batched] == [_bits(a) for a in single]


def test_soft_dp_memory_is_the_value_table():
    # 8 B per state and clip column: the reverse sweep recomputes each
    # column's partials from the value table instead of storing them.
    g = model_problem(ThreadSpec((4, 4, 4, 4)))
    s = build_tsort_forward(g)
    s.plan  # compiled once per meta-graph, outside the per-call peak
    rng = np.random.default_rng(3)
    n_clips = 400
    c, d = random_costs(rng, g.n_steps, n_clips)
    tracemalloc.start()
    try:
        soft_graph_drop_dtw(s, c, d, SmoothingConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s.nodes) == 2002
    assert peak <= 12 * len(s.nodes) * (n_clips + 1)


# -- clustering -------------------------------------------------------------------


def test_clustering_loss_zero_on_perfect_match():
    steps = EmbeddingSequence(np.eye(3), kind="step")
    clips = EmbeddingSequence(np.eye(3), kind="clip")
    lv = clustering_loss(steps, clips, 0.001)
    assert lv.value == pytest.approx(0.0, abs=1e-6)


def test_clustering_loss_single_pair():
    v = np.array([[1.0, 0.0]])
    lv = clustering_loss(
        EmbeddingSequence(v, kind="step"), EmbeddingSequence(v, kind="clip"), 0.5
    )
    assert lv.value == pytest.approx(0.0, abs=1e-12)


def test_clustering_loss_matches_direct_formula():
    rng = np.random.default_rng(18)
    v = rng.normal(size=(3, 5))
    x = rng.normal(size=(7, 5))
    gamma = 0.6
    att = np.exp(v @ x.T / gamma)
    att /= att.sum(axis=1, keepdims=True)
    expected = np.linalg.norm(np.eye(3) - (att @ x) @ v.T)
    lv = clustering_loss(
        EmbeddingSequence(v, kind="step"), EmbeddingSequence(x, kind="clip"), gamma
    )
    assert lv.value == pytest.approx(expected, abs=1e-10)


def test_clustering_gradient_matches_fd():
    rng = np.random.default_rng(19)
    steps = EmbeddingSequence(rng.normal(size=(3, 4)), kind="step")
    x = rng.normal(size=(5, 4))
    gamma = 0.8
    lv = clustering_loss(steps, EmbeddingSequence(x, kind="clip"), gamma)
    h = 1e-6
    fd = np.zeros_like(x)
    for j in range(5):
        for k in range(4):
            up, down = x.copy(), x.copy()
            up[j, k] += h
            down[j, k] -= h
            fd[j, k] = (
                clustering_loss(steps, EmbeddingSequence(up, kind="clip"), gamma).value
                - clustering_loss(steps, EmbeddingSequence(down, kind="clip"), gamma).value
            ) / (2 * h)
    assert rel_err(lv.grad_clips, fd) < 1e-4


# -- combined loss ------------------------------------------------------------------


def test_combined_equals_grounding_when_clustering_off():
    rng = np.random.default_rng(20)
    g = model_problem(ThreadSpec((1, 1)))
    steps = EmbeddingSequence(rng.normal(size=(2, 4)), kind="step")
    clips = EmbeddingSequence(rng.normal(size=(5, 4)), kind="clip")
    cfg = SmoothingConfig(0.3)
    combined = combined_loss(g, steps, clips, cfg, clust_weight=0.0)
    from flowground import compute_cost_matrix, compute_drop_costs

    c = compute_cost_matrix(steps, clips)
    d = compute_drop_costs(c)
    direct = soft_graph_drop_dtw(build_tsort_forward(g), c, d, cfg)
    assert combined.value == pytest.approx(direct.value, abs=1e-12)


def test_combined_gradients_are_additive():
    rng = np.random.default_rng(21)
    g = model_problem(ThreadSpec((2, 1)))
    steps = EmbeddingSequence(rng.normal(size=(3, 5)), kind="step")
    clips = EmbeddingSequence(rng.normal(size=(6, 5)), kind="clip")
    cfg = SmoothingConfig(0.4)
    ground_only = combined_loss(g, steps, clips, cfg, clust_weight=0.0)
    both = combined_loss(g, steps, clips, cfg, clust_weight=1.0)
    clust = clustering_loss(steps, clips, cfg.gamma)
    assert both.value == pytest.approx(ground_only.value + clust.value, abs=1e-10)
    assert np.allclose(
        both.grad_clips, ground_only.grad_clips + clust.grad_clips, atol=1e-10
    )


def test_combined_end_to_end_gradient_check():
    # (1,1) model problem, d=4, N=5, against central differences
    rng = np.random.default_rng(22)
    g = model_problem(ThreadSpec((1, 1)))
    steps = EmbeddingSequence(rng.normal(size=(2, 4)), kind="step")
    x = rng.normal(size=(5, 4))
    cfg = SmoothingConfig(0.3)
    lv = combined_loss(g, steps, EmbeddingSequence(x, kind="clip"), cfg)
    h = 1e-5
    fd = np.zeros_like(x)
    for j in range(5):
        for k in range(4):
            up, down = x.copy(), x.copy()
            up[j, k] += h
            down[j, k] -= h
            fd[j, k] = (
                combined_loss(g, steps, EmbeddingSequence(up, kind="clip"), cfg).value
                - combined_loss(g, steps, EmbeddingSequence(down, kind="clip"), cfg).value
            ) / (2 * h)
    assert rel_err(lv.grad_clips, fd) < 1e-3


# -- training -----------------------------------------------------------------------


def _toy_dataset(n=4, seed=0):
    from flowground import SynthParams, generate

    g = model_problem(ThreadSpec((1, 1)))
    out = []
    for i in range(n):
        inst = generate(
            g, SynthParams(dim=4, clips_per_step=(1, 2), noise_sigma=0.1, seed=seed + i)
        )
        out.append((g, inst.clips, inst.step_embeddings))
    return out


def test_zero_learning_rate_keeps_parameters():
    dataset = _toy_dataset()
    model = ProjectionModel.identity(4)
    trained, trace = train_projection(
        dataset, model, SmoothingConfig(0.3), lr=0.0, epochs=4
    )
    assert np.array_equal(trained.weight, model.weight)
    assert np.array_equal(trained.bias, model.bias)
    losses = [row[1] for row in trace]
    assert max(losses) - min(losses) < 1e-12


def test_training_reduces_loss():
    dataset = _toy_dataset(n=6, seed=3)
    model, trace = train_projection(
        dataset, ProjectionModel.identity(4), SmoothingConfig(0.3), lr=0.05, epochs=25
    )
    assert trace[-1][1] < trace[0][1]


def test_training_divergence_detection():
    dataset = _toy_dataset(n=2, seed=5)
    with pytest.raises(TrainingDivergedError) as excinfo:
        train_projection(
            dataset, ProjectionModel.identity(4), SmoothingConfig(0.3), lr=1e308, epochs=5
        )
    assert excinfo.value.trace  # partial loss trace attached for the report


def test_training_builds_one_meta_graph_per_distinct_flow_graph(monkeypatch):
    built = []
    real = flowground.soft.build_tsort_forward
    monkeypatch.setattr(
        flowground.soft, "build_tsort_forward", lambda g: built.append(g) or real(g)
    )
    dataset = _toy_dataset(n=3) + _toy_dataset(n=2, seed=9)
    # equal graphs built separately still share one meta-graph
    dataset = [(model_problem(ThreadSpec((1, 1))), x, v) for _, x, v in dataset]
    dataset.append((model_problem(ThreadSpec((2,))), *dataset[0][1:]))
    train_projection(dataset, ProjectionModel.identity(4), SmoothingConfig(0.3), 0.01, 1)
    assert len(built) == 2


def test_projection_model_validation():
    with pytest.raises(ValidationError):
        ProjectionModel(weight=np.ones((2, 2)), bias=np.ones(3))
