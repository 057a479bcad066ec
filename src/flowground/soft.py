"""Differentiable grounding: smooth-min DP, losses, gradients, training.

The hard recursion's minimum operators are replaced by a smooth minimum

    smoothmin(v; gamma) = sum_i v_i * w_i,   w = softmax(-v / gamma),

whose partial derivatives are w_i * (1 - (v_i - smoothmin) / gamma) and sum
to one, so the soft cost inherits the hard cost's exact shift covariance.
As gamma -> 0 the weights collapse onto the minimum and the soft value
converges to the hard one.

Every smooth-min keeps the nesting of the hard recursion (inner minimum over
meta-predecessors, then against staying, then match against drop), and all
softmax weights are stored during the forward pass so gradients with respect
to the match costs and drop costs come out of one reverse sweep over the DP
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .align import (
    CostMatrix,
    DropCosts,
    EmbeddingSequence,
    _bind_costs,
    compute_cost_matrix,
)
from .errors import TrainingDivergedError, ValidationError
from .graph import FlowGraph, normalize
from .tsort import DPPlan, TSortGraph, build_tsort_forward


@dataclass(frozen=True)
class SmoothingConfig:
    """Temperature of the smooth-min relaxation."""

    gamma: float = 0.1

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError("gamma must be positive")


@dataclass(frozen=True, eq=False)
class LossValue:
    """A scalar loss plus whichever gradients the producing operation defines."""

    value: float
    grad_costs: np.ndarray | None = None  # (K, N) d/dC
    grad_drops: np.ndarray | None = None  # (N,)  d/dd
    grad_clips: np.ndarray | None = None  # (N, d) d/dX


def smooth_min(values: Sequence[float] | np.ndarray, gamma: float) -> float:
    """Exponentially weighted soft minimum (max-shift stabilized)."""
    value, _ = smooth_min_grad(values, gamma)
    return value


def smooth_min_grad(
    values: Sequence[float] | np.ndarray, gamma: float
) -> tuple[float, np.ndarray]:
    """Smooth minimum and its partial derivatives w.r.t. each input."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("smooth_min needs a non-empty 1-D input")
    low = v.min()
    if not np.isfinite(low):
        return float(low), np.zeros_like(v)
    shifted = np.where(np.isfinite(v), v - low, np.inf)
    w = np.exp(-shifted / gamma)
    w /= w.sum()
    m = low + float(np.where(w > 0, w * shifted, 0.0).sum())
    with np.errstate(invalid="ignore"):  # masked lanes may hold inf - inf
        grads = np.where(w > 0, w * (1.0 - (v - m) / gamma), 0.0)
    return m, grads


def _smooth_min2(x: np.ndarray, y: np.ndarray, gamma: float):
    """Elementwise smooth minimum of two arrays, with partials for both."""
    low = np.minimum(x, y)
    finite = np.isfinite(low)  # low infinite <=> both inputs infinite
    with np.errstate(invalid="ignore"):  # masked lanes may hold inf - inf
        xs = np.where(np.isfinite(x), x - low, np.inf)
        ys = np.where(np.isfinite(y), y - low, np.inf)
        wx = np.exp(-xs / gamma)
        wy = np.exp(-ys / gamma)
        z = np.where(finite, wx + wy, 1.0)
        wx /= z
        wy /= z
        m = low + np.where(wx > 0, wx * xs, 0.0) + np.where(wy > 0, wy * ys, 0.0)
        px = np.where(
            wx > 0, wx * (1.0 - np.where(np.isfinite(x), x - m, 0.0) / gamma), 0.0
        )
        py = np.where(
            wy > 0, wy * (1.0 - np.where(np.isfinite(y), y - m, 0.0) / gamma), 0.0
        )
    px[~finite] = 0.0
    py[~finite] = 0.0
    return m, px, py


def _segment_smooth_min(vals: np.ndarray, plan: DPPlan, gamma: float):
    """Smooth minimum over incoming edge values, grouped by destination."""
    seg_starts, seg_repeat = plan.seg_starts, plan.seg_repeat
    low = np.minimum.reduceat(vals, seg_starts)
    low_edge = np.repeat(low, seg_repeat)
    with np.errstate(invalid="ignore"):  # masked lanes may hold inf - inf
        shifted = np.where(np.isfinite(vals), vals - low_edge, np.inf)
        w = np.exp(-shifted / gamma)
        z = np.add.reduceat(w, seg_starts)
        z_edge = np.repeat(np.where(z > 0, z, 1.0), seg_repeat)
        w /= z_edge
        seg_sum = np.add.reduceat(np.where(w > 0, w * shifted, 0.0), seg_starts)
        m_seg = low + seg_sum
        pool_min = np.full(len(plan.active), np.inf)
        pool_min[plan.seg_dst] = m_seg
        m_edge = np.repeat(m_seg, seg_repeat)
        partials = np.where(
            w > 0,
            w * (1.0 - np.where(np.isfinite(vals), vals - m_edge, 0.0) / gamma),
            0.0,
        )
    return pool_min, partials


def soft_graph_drop_dtw(
    s: TSortGraph, c: CostMatrix, d: DropCosts, cfg: SmoothingConfig
) -> LossValue:
    """Soft grounding cost with exact reverse-mode gradients.

    The forward table mirrors :func:`flowground.align.graph_drop_dtw` with
    every minimum smoothed; the returned gradients are d(value)/dC and
    d(value)/dd obtained by reverse accumulation through the stored softmax
    weights.
    """
    plan = s.plan
    padded = _bind_costs(s, c, d)
    cost_rows = padded[plan.active]
    n_rows, n_clips = cost_rows.shape
    gamma = cfg.gamma

    drops = d.values
    dp = np.full((n_rows, n_clips + 1), np.inf)
    dp[s.root, 0] = 0.0
    # Stored partials: inner pool per edge; (pool, stay) pair; (match, drop) pair.
    pe = np.zeros((len(plan.esrc), n_clips + 1))
    pa = np.zeros((n_rows, n_clips + 1))  # d plus / d pool
    pb = np.zeros((n_rows, n_clips + 1))  # d plus / d stay
    pp = np.zeros((n_rows, n_clips + 1))  # d cell / d plus
    pq = np.zeros((n_rows, n_clips + 1))  # d cell / d minus

    for j in range(1, n_clips + 1):
        prev = dp[:, j - 1]
        pool, pe_col = _segment_smooth_min(prev[plan.esrc], plan, gamma)
        core, a_col, b_col = _smooth_min2(pool, prev, gamma)
        plus = cost_rows[:, j - 1] + core
        minus = prev + drops[j - 1]
        cell, p_col, q_col = _smooth_min2(plus, minus, gamma)
        # The root row accumulates prefix drops with no choice to smooth.
        cell[s.root] = prev[s.root] + drops[j - 1]
        p_col[s.root] = 0.0
        q_col[s.root] = 1.0
        a_col[s.root] = b_col[s.root] = 0.0
        dp[:, j] = cell
        pe[:, j] = pe_col
        pa[:, j] = a_col
        pb[:, j] = b_col
        pp[:, j] = p_col
        pq[:, j] = q_col

    finals = list(plan.finals)
    value, w_final = smooth_min_grad(dp[finals, n_clips], gamma)

    grad_padded = np.zeros_like(padded)  # the virtual states' rows are dropped
    grad_drops = np.zeros(n_clips)
    adj = np.zeros((n_rows, n_clips + 1))
    adj[finals, n_clips] = w_final

    for j in range(n_clips, 0, -1):
        a_j = adj[:, j]
        if not a_j.any():
            continue
        a_plus = a_j * pp[:, j]
        a_minus = a_j * pq[:, j]
        np.add.at(grad_padded[:, j - 1], plan.active, a_plus)
        grad_drops[j - 1] += a_minus.sum()
        adj[:, j - 1] += a_plus * pb[:, j] + a_minus
        pool_adj = a_plus * pa[:, j]
        np.add.at(adj[:, j - 1], plan.esrc, pool_adj[plan.edst] * pe[:, j])

    return LossValue(
        value=float(value), grad_costs=grad_padded[: c.n_steps], grad_drops=grad_drops
    )


def clustering_loss(
    steps: EmbeddingSequence, clips: EmbeddingSequence, gamma: float
) -> LossValue:
    """Frobenius mismatch between attention-pooled clips and the steps.

    Pulls every step toward having a unique matching region in the clip
    sequence; the returned gradient is with respect to the clip embeddings.
    """
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    if steps.dim != clips.dim:
        raise ValidationError("embedding dimensions differ")
    x = clips.vectors  # (N, d)
    v = steps.vectors  # (K, d)
    scores = v @ x.T / gamma  # (K, N)
    scores -= scores.max(axis=1, keepdims=True)
    att = np.exp(scores)
    att /= att.sum(axis=1, keepdims=True)
    pooled = att @ x  # (K, d)
    mism = np.eye(len(steps)) - pooled @ v.T  # (K, K)
    value = float(np.linalg.norm(mism))
    if value == 0.0:
        return LossValue(value=0.0, grad_clips=np.zeros_like(x))
    r = -(mism / value) @ v  # (K, d) = dL/d pooled
    term1 = att.T @ r
    rx = r @ x.T  # (K, N)
    rp = np.sum(r * pooled, axis=1)  # (K,)
    coef = att * (rx - rp[:, None]) / gamma
    grad_x = term1 + coef.T @ v
    return LossValue(value=value, grad_clips=grad_x)


def _percentile_support(values: np.ndarray, percentile: float):
    """Value of the linear-interpolation percentile plus its (entry, weight) support."""
    flat = values.ravel()
    order = np.argsort(flat, kind="stable")
    pos = (percentile / 100.0) * (flat.size - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    value = (1.0 - frac) * flat[order[lo]] + frac * flat[order[hi]]
    support = [(int(order[lo]), 1.0 - frac)]
    if hi != lo:
        support.append((int(order[hi]), frac))
    return float(value), support


def _meta_graph(graph: FlowGraph | TSortGraph) -> TSortGraph:
    """The forward meta-graph of a flow graph; a meta-graph passes through."""
    if isinstance(graph, TSortGraph):
        return graph
    return build_tsort_forward(normalize(graph))


def combined_loss(
    graph: FlowGraph | TSortGraph,
    steps: EmbeddingSequence,
    clips: EmbeddingSequence,
    cfg: SmoothingConfig,
    temperature: float = 1.0,
    drop_percentile: float = 30.0,
    clust_weight: float = 1.0,
) -> LossValue:
    """Soft grounding loss plus the clustering regularizer, end to end.

    Differentiates through the softmax cost construction and through the
    drop-cost percentile, returning the gradient with respect to the clip
    embeddings (the trainable side).
    """
    ts = _meta_graph(graph)
    c = compute_cost_matrix(steps, clips, temperature)
    drop_value, support = _percentile_support(c.values, drop_percentile)
    d = DropCosts(np.full(c.n_clips, drop_value))

    ground = soft_graph_drop_dtw(ts, c, d, cfg)
    total_dc = ground.grad_costs.copy()
    drop_weight = float(ground.grad_drops.sum())
    flat = total_dc.ravel()
    for idx, w in support:
        flat[idx] += drop_weight * w

    # Chain rule through C = -log softmax(V X^T / temperature) into X.
    likel = np.exp(-c.values)  # softmax over step rows, per clip column
    col_tot = total_dc.sum(axis=0, keepdims=True)
    d_scores = likel * col_tot - total_dc  # (K, N)
    grad_x = d_scores.T @ steps.vectors / temperature

    value = ground.value
    if clust_weight != 0.0:
        clust = clustering_loss(steps, clips, cfg.gamma)
        value += clust_weight * clust.value
        grad_x = grad_x + clust_weight * clust.grad_clips
    return LossValue(value=float(value), grad_clips=grad_x)


# ---------------------------------------------------------------------------
# toy training


@dataclass
class ProjectionModel:
    """Affine map applied to clip embeddings before grounding."""

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValidationError("weight must be (d_out, d_in) with matching bias")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValidationError("model parameters must be finite")

    @classmethod
    def identity(cls, dim: int) -> "ProjectionModel":
        return cls(weight=np.eye(dim), bias=np.zeros(dim))

    def apply(self, clips: EmbeddingSequence) -> EmbeddingSequence:
        return EmbeddingSequence(
            vectors=clips.vectors @ self.weight.T + self.bias, kind="clip"
        )


def train_projection(
    dataset: Sequence[tuple[FlowGraph | TSortGraph, EmbeddingSequence, EmbeddingSequence]],
    model: ProjectionModel,
    cfg: SmoothingConfig,
    lr: float,
    epochs: int,
    eval_fn: Callable[[ProjectionModel], float] | None = None,
    temperature: float = 1.0,
    drop_percentile: float = 30.0,
    clust_weight: float = 1.0,
) -> tuple[ProjectionModel, list[tuple[int, float, float]]]:
    """Plain gradient descent of the combined loss over projected clips.

    Dataset entries are (flow graph or its meta-graph, clip embeddings, step
    embeddings); a flow graph's meta-graph is built once, before the first
    epoch.
    Returns the trained model and a trace of (epoch, mean loss, eval value)
    rows, with the loss measured before each step so row 0 is the starting
    loss. Aborts with :class:`TrainingDivergedError` on a non-finite loss.
    """
    if not dataset:
        raise ValidationError("training dataset is empty")
    weight = model.weight.copy()
    bias = model.bias.copy()
    tsorts = [_meta_graph(g) for g, _, _ in dataset]
    trace: list[tuple[int, float, float]] = []

    for epoch in range(epochs):
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise TrainingDivergedError(
                f"non-finite parameters entering epoch {epoch}", trace=trace
            )
        current = ProjectionModel(weight=weight.copy(), bias=bias.copy())
        grad_w = np.zeros_like(weight)
        grad_b = np.zeros_like(bias)
        losses = []
        for ts, (_, clips, steps) in zip(tsorts, dataset):
            projected = current.apply(clips)
            loss = combined_loss(
                ts,
                steps,
                projected,
                cfg,
                temperature=temperature,
                drop_percentile=drop_percentile,
                clust_weight=clust_weight,
            )
            losses.append(loss.value)
            grad_w += loss.grad_clips.T @ clips.vectors
            grad_b += loss.grad_clips.sum(axis=0)
        mean_loss = float(np.mean(losses))
        score = float(eval_fn(current)) if eval_fn is not None else float("nan")
        trace.append((epoch, mean_loss, score))
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(
                f"non-finite mean loss {mean_loss} at epoch {epoch}", trace=trace
            )
        with np.errstate(over="ignore"):  # overflow lands in the epoch-entry check
            weight -= lr * grad_w / len(dataset)
            bias -= lr * grad_b / len(dataset)

    return ProjectionModel(weight=weight, bias=bias), trace
