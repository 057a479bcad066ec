"""Differentiable grounding: smooth-min DP, losses, gradients, training.

The hard recursion's minimum operators are replaced by a smooth minimum

    smoothmin(v; gamma) = sum_i v_i * w_i,   w = softmax(-v / gamma),

whose partial derivatives are w_i * (1 - (v_i - smoothmin) / gamma) and sum
to one, so the soft cost inherits the hard cost's exact shift covariance.
As gamma -> 0 the weights collapse onto the minimum and the soft value
converges to the hard one.

Every smooth-min keeps the nesting of the hard recursion (inner minimum over
meta-predecessors, then against staying, then match against drop), and the
gradients with respect to the match costs and drop costs come out of one
reverse sweep over the DP table. The forward keeps only the value table, 8 B
per meta-state and clip; the reverse sweep recomputes each column's
smooth-min partials from the previous value column, with the forward's own
arithmetic, so they hold the forward's bits.

One DP grounds a batch of problems that share a meta-graph
(:func:`soft_graph_drop_dtw_batch`), on the hard DP's layout: disjoint copies
of the meta-graph on one flat state axis. Training batches all the instances
of each meta-graph this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .align import (
    CostMatrix,
    DropCosts,
    EmbeddingSequence,
    _bind_batch,
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


def _smooth_min2(x: np.ndarray, y: np.ndarray, gamma: float, partials: bool):
    """Elementwise smooth minimum of two arrays, and its partials if asked.

    The lower input's weight numerator is exp(0) = 1, so one exp serves both
    inputs. Lanes where both inputs are +inf give +inf and zero partials.
    """
    low = np.minimum(x, y)
    high = np.maximum(x, y)
    gap = high - low  # +inf where only ``high`` is; nan where both are
    e = gap / -gamma
    np.exp(e, out=e)
    z = 1.0 + e
    w_high = e / z
    m = low + np.fmax(w_high * gap, 0.0)  # fmax turns 0 * inf and nan into 0
    if not partials:
        return m, None, None
    # the low side's partial is at least its weight, 1 / z >= 1/2, or nan
    p_low = np.fmax((1.0 / z) * (1.0 - (low - m) / gamma), 0.0)
    p_high = np.where(w_high > 0, w_high * (1.0 - (high - m) / gamma), 0.0)
    x_low = x <= y
    return m, np.where(x_low, p_low, p_high), np.where(x_low, p_high, p_low)


def _segment_smooth_min(vals: np.ndarray, plan: DPPlan, gamma: float, partials: bool):
    """Smooth minimum over each state's incoming edge values, per destination."""
    low = np.minimum.reduceat(vals, plan.seg_starts)
    # +inf edges stay +inf, also where the whole segment is +inf
    shifted = vals - np.where(np.isfinite(low), low, 0.0).take(plan.eseg)
    w = shifted / -gamma
    np.exp(w, out=w)
    z = np.add.reduceat(w, plan.seg_starts)  # >= 1 (the minimum's term is 1) or 0
    w /= np.maximum(z, 1.0).take(plan.eseg)
    m_seg = low + np.add.reduceat(np.fmax(w * shifted, 0.0), plan.seg_starts)
    if not partials:
        return m_seg, None
    m_edge = m_seg.take(plan.eseg)
    return m_seg, np.where(w > 0, w * (1.0 - (vals - m_edge) / gamma), 0.0)


def _soft_column(prev, match, drop, plan: DPPlan, gamma: float, partials: bool):
    """One clip column of the batched soft DP, and its partials if asked.

    ``drop`` holds one (B, 1) drop cost per copy; ``match`` is overwritten.
    The partials are d pool / d edge value, d core / d pool, d core / d stay,
    d cell / d plus and d cell / d minus. The root has no in-edges and a +inf
    cost column, so its cell smooths to its drop term with no special case.
    """
    m_seg, pe = _segment_smooth_min(prev.take(plan.esrc), plan, gamma, partials)
    pool = np.full_like(prev, np.inf)  # +inf stays where no edge comes in
    pool[plan.seg_dst] = m_seg
    core, pa, pb = _smooth_min2(pool, prev, gamma, partials)
    minus = (prev.reshape(len(drop), -1) + drop).ravel()
    match += core
    cell, pp, pq = _smooth_min2(match, minus, gamma, partials)
    if not partials:
        return cell, None
    return cell, (pe, pa, pb, pp, pq)


def soft_graph_drop_dtw_batch(
    s: TSortGraph,
    problems: Sequence[tuple[CostMatrix, DropCosts]],
    cfg: SmoothingConfig,
) -> list[LossValue]:
    """Soft grounding of several (costs, drops) problems on one meta-graph.

    One DP runs over the whole batch (see :func:`flowground.align._bind_batch`),
    and each value is read at its own clip count. Every result equals
    :func:`soft_graph_drop_dtw` on that problem alone, bit for bit.
    """
    if not problems:
        return []
    costs, drops, lengths, plan = _bind_batch(s, problems)
    gamma, n_steps, n_ids = cfg.gamma, s.origin.n_steps, s.origin.n_nodes
    n_batch, n_rows = len(problems), len(s.plan.active)
    n_max, width = len(costs), len(plan.active)

    # dp[j] is the flat column after j clips, and all the forward keeps.
    dp = np.empty((n_max + 1, width))
    dp[0] = np.inf
    dp[0, s.root :: n_rows] = 0.0

    def column(j: int, partials: bool):
        match = costs[j].take(plan.active)
        return _soft_column(dp[j], match, drops[j], plan, gamma, partials)

    with np.errstate(invalid="ignore"):  # masked lanes may hold inf - inf
        for j in range(n_max):
            dp[j + 1], _ = column(j, False)

        finals = np.arange(n_batch)[:, None] * n_rows + s.plan.finals  # (B, F)
        seeds = [smooth_min_grad(dp[n, finals[b]], gamma) for b, n in enumerate(lengths)]
        grad = np.empty((n_max, n_batch * n_ids))
        grad_drops = np.zeros((n_max, n_batch))
        adj = np.zeros(width)
        # A state's adjoint takes its own terms first and then its out-edges'
        # in edge order: the single-problem sweep's order of additions.
        adj_bins = np.r_[np.arange(width), plan.esrc]
        for j in range(n_max, 0, -1):
            for b, n in enumerate(lengths):
                if n == j:  # the problem's adjoints past its own end are all 0.0
                    adj[finals[b]] = seeds[b][1]
            pe, pa, pb, pp, pq = column(j - 1, True)[1]
            a_plus = adj * pp
            a_minus = adj * pq
            grad[j - 1] = np.bincount(plan.active, a_plus, n_batch * n_ids)
            # 0.0 + sum, as in a zeroed table
            grad_drops[j - 1] += a_minus.reshape(n_batch, n_rows).sum(axis=1)
            own = a_plus * pb + a_minus
            edges = (a_plus * pa).take(plan.edst) * pe
            adj = np.bincount(adj_bins, np.concatenate([own, edges]), width)

    return [
        LossValue(
            value=float(value),
            grad_costs=np.ascontiguousarray(grad[:n, b * n_ids : b * n_ids + n_steps].T),
            grad_drops=grad_drops[:n, b].copy(),
        )
        for b, (n, (value, _)) in enumerate(zip(lengths, seeds))
    ]


def soft_graph_drop_dtw(
    s: TSortGraph, c: CostMatrix, d: DropCosts, cfg: SmoothingConfig
) -> LossValue:
    """Soft grounding cost with exact reverse-mode gradients.

    The forward table mirrors :func:`flowground.align.graph_drop_dtw` with
    every minimum smoothed; the returned gradients are d(value)/dC and
    d(value)/dd obtained by reverse accumulation through the DP table.
    This is :func:`soft_graph_drop_dtw_batch` on a batch of one.
    """
    (out,) = soft_graph_drop_dtw_batch(s, [(c, d)], cfg)
    return out


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


def _meta_graphs(
    graphs: Sequence[FlowGraph | TSortGraph],
) -> list[TSortGraph]:
    """Each entry's meta-graph, built once per distinct (equal) flow graph."""
    built: dict = {}
    for g in graphs:
        if g not in built:
            built[g] = _meta_graph(g)
    return [built[g] for g in graphs]


def _per_meta_graph(ground: Callable, metas: Sequence[TSortGraph], problems, *args):
    """Call ``ground(meta, its problems, *args)`` once per distinct meta-graph.

    ``metas[i]`` is problem i's meta-graph; results come back in input order.
    """
    out: list = [None] * len(problems)
    for ts in dict.fromkeys(metas):
        idx = [i for i, m in enumerate(metas) if m is ts]
        for i, result in zip(idx, ground(ts, [problems[i] for i in idx], *args)):
            out[i] = result
    return out


def _loss_problem(
    steps: EmbeddingSequence,
    clips: EmbeddingSequence,
    temperature: float,
    drop_percentile: float,
) -> tuple[CostMatrix, DropCosts, list[tuple[int, float]]]:
    """Costs, percentile drop costs and the percentile's (entry, weight) support."""
    c = compute_cost_matrix(steps, clips, temperature)
    drop_value, support = _percentile_support(c.values, drop_percentile)
    return c, DropCosts(np.full(c.n_clips, drop_value)), support


def _chain_to_clips(
    ground: LossValue,
    c: CostMatrix,
    support: list[tuple[int, float]],
    steps: EmbeddingSequence,
    clips: EmbeddingSequence,
    cfg: SmoothingConfig,
    temperature: float,
    clust_weight: float,
) -> LossValue:
    """Chain a soft grounding's gradients into the clips; add the clustering term."""
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
    c, d, support = _loss_problem(steps, clips, temperature, drop_percentile)
    ground = soft_graph_drop_dtw(ts, c, d, cfg)
    return _chain_to_clips(ground, c, support, steps, clips, cfg, temperature, clust_weight)


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
    embeddings). One meta-graph is built per distinct flow graph, before the
    first epoch, and each epoch grounds all the entries of one meta-graph in
    a single batched soft DP; losses and gradients are summed in dataset
    order, so the result equals one :func:`combined_loss` call per entry.
    Returns the trained model and a trace of (epoch, mean loss, eval value)
    rows, with the loss measured before each step so row 0 is the starting
    loss. Aborts with :class:`TrainingDivergedError` on a non-finite loss.
    """
    if not dataset:
        raise ValidationError("training dataset is empty")
    if epochs < 1:
        raise ValidationError(f"epochs must be at least 1, got {epochs}")
    d_out, d_in = model.weight.shape
    for i, (_, clips, steps) in enumerate(dataset):
        if clips.dim != d_in or steps.dim != d_out:
            raise ValidationError(
                f"training instance {i} has {clips.dim}-d clips and {steps.dim}-d steps; "
                f"the model maps {d_in}-d clips to {d_out}-d"
            )
    weight = model.weight.copy()
    bias = model.bias.copy()
    metas = _meta_graphs([g for g, _, _ in dataset])
    trace: list[tuple[int, float, float]] = []

    for epoch in range(epochs):
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise TrainingDivergedError(
                f"non-finite parameters entering epoch {epoch}", trace=trace
            )
        current = ProjectionModel(weight=weight.copy(), bias=bias.copy())
        projected = [current.apply(clips) for _, clips, _ in dataset]
        problems = [
            _loss_problem(steps, x, temperature, drop_percentile)
            for x, (_, _, steps) in zip(projected, dataset)
        ]
        grounds = _per_meta_graph(
            soft_graph_drop_dtw_batch, metas, [p[:2] for p in problems], cfg
        )
        grad_w = np.zeros_like(weight)
        grad_b = np.zeros_like(bias)
        losses = []
        for (_, clips, steps), x, (c, _, support), ground in zip(
            dataset, projected, problems, grounds
        ):
            loss = _chain_to_clips(
                ground, c, support, steps, x, cfg, temperature, clust_weight
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
