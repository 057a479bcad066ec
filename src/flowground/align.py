"""Hard (discrete) grounding: cost construction and drop-aware alignment DPs.

``graph_drop_dtw`` aligns a tSort meta-graph to a clip sequence; every clip
is either matched to the active step of some meta-state or dropped at a
per-clip cost, and steps can never be dropped (each ends up with at least
one clip). ``drop_dtw`` is the classical single-order special case and is
implemented independently so the two can serve as cross-checks.

All DP arithmetic is 64-bit floating point. Both DPs advance one clip per
column, so each column depends only on the previous one; columns are
processed with vectorized numpy operations.

``graph_drop_dtw_batch`` grounds B problems on one meta-graph as one DP over
B disjoint copies of it on a single flat state axis (``_bind_batch``, which
the soft DP shares); ``graph_drop_dtw`` is the batch of one. It keeps values
only: one clip-major float64 table, 8 bytes per state of each copy per clip,
whose column ``dp[j]`` is contiguous and ends with one +inf entry, the
sentinel that pads the plan's predecessor slots. Each column gathers every
state's own value and its predecessors' through the slots in one ``take``
and takes plain minima over them. The traceback makes one vectorised pass
per state on the path: it recomputes that state's decisions for all the
columns up to where the path stands, from the previous columns, with the
same sums and the same operands, so it sees the values the forward
compared. The tie rules therefore live in one place, the traceback; a tie
never changes a minimum's value. ``drop_dtw`` records its decisions in a
code table during the forward pass instead, so the two cross-check each
other.

Tie-breaking in the traceback is deterministic: match beats drop, staying on
the current step beats transitioning, and the lowest predecessor index wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .tsort import TSortGraph

DROP = -1  # label for clips matched to no step


@dataclass(frozen=True, eq=False)
class EmbeddingSequence:
    """Uniform-dimension vectors for either steps or clips."""

    vectors: np.ndarray  # (n, d)
    kind: str = "clip"

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("embeddings must form a non-empty 2-D array")
        if not np.isfinite(arr).all():
            raise ValidationError("embeddings contain non-finite values")
        if self.kind not in ("step", "clip"):
            raise ValidationError(f"unknown embedding kind {self.kind!r}")
        object.__setattr__(self, "vectors", arr)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Match costs C[i, j] between step id i (row i) and clip j, in nats."""

    values: np.ndarray  # (K, N)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("cost matrix must be 2-D and non-empty")
        if not np.isfinite(arr).all():
            raise ValidationError("cost matrix contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_clips(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class DropCosts:
    """Per-clip cost of leaving a clip unmatched, in nats."""

    values: np.ndarray  # (N,)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValidationError("drop costs must form a non-empty vector")
        if not np.isfinite(arr).all():
            raise ValidationError("drop costs contain non-finite values")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Alignment:
    """Grounding result.

    ``segments[step] = (start, end)`` is the inclusive clip-index hull of the
    step's matched clips; drops may sit inside a hull, so ``labels`` (step id
    per clip, :data:`DROP` otherwise) is the authoritative per-clip record.
    ``tau_star`` is the step order realised along the timeline.
    """

    cost: float
    segments: dict[int, tuple[int, int]]
    dropped: frozenset[int]
    tau_star: tuple[int, ...]
    labels: tuple[int, ...]


def compute_cost_matrix(
    steps: EmbeddingSequence,
    clips: EmbeddingSequence,
    temperature: float = 1.0,
) -> CostMatrix:
    """Negative log-likelihood costs from scaled dot products.

    For each clip column, scores <x_j, v_i>/temperature are normalized with a
    softmax over the step rows; C[i, j] is the negative log of that
    likelihood, so exp(-C[:, j]) sums to one for every clip.
    """
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    if steps.dim != clips.dim:
        raise ValidationError(
            f"embedding dimensions differ: steps {steps.dim}, clips {clips.dim}"
        )
    scores = steps.vectors @ clips.vectors.T / temperature  # (K, N)
    shift = scores.max(axis=0, keepdims=True)
    log_norm = shift + np.log(np.exp(scores - shift).sum(axis=0, keepdims=True))
    return CostMatrix(values=log_norm - scores)


def compute_drop_costs(
    c: CostMatrix, percentile: float = 30.0, per_column: bool = False
) -> DropCosts:
    """Drop costs from a percentile of the match costs (linear interpolation).

    By default a single scalar, the given percentile of the flattened matrix,
    is broadcast to every clip; ``per_column`` switches to one percentile per
    clip column.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValidationError("percentile must lie in (0, 100]")
    if per_column:
        values = np.percentile(c.values, percentile, axis=0)
    else:
        values = np.full(c.n_clips, float(np.percentile(c.values, percentile)))
    return DropCosts(values=values)


# ---------------------------------------------------------------------------
# DP engine
#
# Rows are DP states (meta-graph states, or chain positions); column j holds
# the best cost of explaining the first j clips. Transitions between states
# happen only on matches, so a finite cell implies every state on the way in
# matched at least one clip. The virtual-root row accumulates prefix drops.

_DROP_CODE = 0
_STAY_CODE = 1
_TRANS_CODE = 2


def _column_update(
    prev: np.ndarray,
    pred_min: np.ndarray,
    cost_col: np.ndarray,
    drop_cost: float,
    root_row: int,
):
    """One DP column. Returns (new, code) honoring tie rules."""
    stay_wins = prev <= pred_min
    match_prev = np.where(stay_wins, prev, pred_min)
    d_plus = cost_col + match_prev
    d_minus = prev + drop_cost
    match_wins = d_plus <= d_minus
    new = np.where(match_wins, d_plus, d_minus)
    code = np.where(match_wins, np.where(stay_wins, _STAY_CODE, _TRANS_CODE), _DROP_CODE)
    code = code.astype(np.int8)
    code[root_row] = _DROP_CODE
    new[root_row] = d_minus[root_row]
    return new, code


def _check_problem(n_steps: int, c: CostMatrix, d: DropCosts) -> None:
    """Check that ``c`` and ``d`` pose a grounding problem for steps 0..n_steps-1.

    Cost row i belongs to step id i, so ``c`` needs exactly ``n_steps`` rows
    and as many clips as ``d``; every step must be able to take a clip.
    """
    n_clips = len(d)
    if c.n_clips != n_clips:
        raise ValidationError(
            f"cost matrix has {c.n_clips} clips but drop costs have {n_clips}"
        )
    if c.n_steps != n_steps:
        raise ValidationError(
            f"cost matrix has {c.n_steps} rows but the graph has {n_steps} steps"
        )
    if n_steps > n_clips:
        raise InfeasibleError(
            f"{n_steps} steps cannot each take a clip from {n_clips} clips"
        )


def _bind_batch(s: TSortGraph, problems: Sequence[tuple[CostMatrix, DropCosts]]):
    """Check a batch of grounding problems and lay it out as one DP.

    Problem b runs on copy b of the meta-graph: states b*S .. b*S+S-1 of one
    flat state axis, S being the number of meta-states. Returns the
    clip-major (N_max, B*(K+2)) costs, one column per copy and node id; the
    (N_max, B, 1) drops; the clip counts; and the plan tiled per copy, whose
    slot sentinel is B*S, one past the last state (``finals`` and
    ``virtual`` stay per copy). The virtual root and sink take the highest
    ids and match no clip, so their columns are +inf. A shorter problem is
    padded at the tail with +inf match and zero drop costs, which leaves its
    values unchanged.
    """
    plan, n_ids = s.plan, s.origin.n_nodes
    lengths = [len(d) for _, d in problems]
    n_batch, n_max = len(problems), max(lengths)
    costs = np.full((n_max, n_batch, n_ids), np.inf)
    drops = np.zeros((n_max, n_batch, 1))
    for b, (c, d) in enumerate(problems):
        _check_problem(s.origin.n_steps, c, d)
        costs[: len(d), b, : c.n_steps] = c.values.T
        drops[: len(d), b, 0] = d.values

    n_rows = len(plan.active)
    copies = np.arange(n_batch)[:, None]
    slots = plan.slots[:, None, :]
    return costs.reshape(n_max, -1), drops, lengths, replace(
        plan,
        active=(copies * n_ids + plan.active).ravel(),
        slots=np.where(slots < n_rows, copies * n_rows + slots, n_batch * n_rows)
        .reshape(len(slots), -1),
    )


def graph_drop_dtw_batch(
    s: TSortGraph, problems: Sequence[tuple[CostMatrix, DropCosts]]
) -> list[Alignment]:
    """Ground several (costs, drops) problems on one meta-graph in one DP.

    Each problem is traced back in its own copy of the meta-graph, up to its
    own clip count, so every result equals :func:`graph_drop_dtw` on that
    problem alone, bit for bit.
    """
    if not problems:
        return []
    costs, drops, lengths, plan = _bind_batch(s, problems)
    n_batch, n_rows, n_ids = len(problems), len(s.plan.active), s.origin.n_nodes
    n_max, width = len(costs), len(plan.active)

    # dp[j] is the flat column after j clips, plus the slot sentinel's +inf.
    # Its values are finite or +inf and never -0.0, so np.minimum gives the
    # bits the traceback's ``<=`` choices give. The root has no
    # predecessors and a +inf cost column, so its row accumulates prefix
    # drops with no special case.
    dp = np.empty((n_max + 1, width + 1))
    dp[0] = np.inf
    dp[:, width] = np.inf
    dp[0, s.root : width : n_rows] = 0.0
    by_copy = dp[:, :width].reshape(n_max + 1, n_batch, n_rows)
    # row 0 reads each state's own value ("stay"), the rest its predecessors'
    gather = np.vstack([np.arange(width), plan.slots])
    reached = np.empty(gather.shape)
    match, d_plus, d_minus = np.empty((3, width))
    d_minus_by_copy = d_minus.reshape(n_batch, n_rows)
    for j in range(n_max):
        # "clip" (no index is out of range) keeps ``out`` unbuffered
        dp[j].take(gather, out=reached, mode="clip")
        np.minimum.reduce(reached, axis=0, out=match)
        costs[j].take(plan.active, out=d_plus, mode="clip")
        d_plus += match
        np.add(by_copy[j], drops[j], out=d_minus_by_copy)
        np.minimum(d_plus, d_minus, out=dp[j + 1, :width])

    return [
        _traceback(s, by_copy[: n + 1, b], costs[:n, b * n_ids :], drops[:n, b, 0])
        for b, n in enumerate(lengths)
    ]


def _traceback(s: TSortGraph, dp: np.ndarray, costs: np.ndarray, drops: np.ndarray):
    """One problem's alignment from its (N+1, S) values and its costs' columns.

    One vectorised pass per state on the path, from the best final back to
    the root. For state i, explaining the first j clips, the pass recomputes
    the decision of every cell (i, 1..j) from the previous column with the
    forward's sums and the tie rules of the module docstring. The path
    entered i at the last of those cells that matches by transition; every
    later cell holds i and matches or drops.
    """
    active, finals, preds = s.plan.active, s.plan.finals, s.predecessors
    j = len(drops)
    end_vals = dp[j, list(finals)]
    best = int(np.argmin(end_vals))  # argmin takes the first occurrence: lowest index
    cost = float(end_vals[best])
    if not np.isfinite(cost):
        raise InfeasibleError("no feasible alignment found")  # pragma: no cover

    labels = np.full(j, DROP)
    i = finals[best]
    state_path = [i]
    while i != s.root:  # the root row holds prefix drops only
        into = list(preds[i])  # ascending, so argmin picks the lowest index
        stay = dp[:j, i]
        best_in = dp[:j, into].min(axis=1)
        stays = stay <= best_in
        match = costs[:j, active[i]] + np.where(stays, stay, best_in) <= stay + drops[:j]
        enter = np.flatnonzero(match & ~stays)[-1]
        labels[enter:j][match[enter:]] = active[i]
        i = into[int(np.argmin(dp[enter, into]))]
        state_path.append(i)
        j = enter

    tau_star = tuple(int(active[k]) for k in reversed(state_path) if not s.plan.virtual[k])
    return _assemble(cost, labels.tolist(), tau_star)


def graph_drop_dtw(s: TSortGraph, c: CostMatrix, d: DropCosts) -> Alignment:
    """Ground a tSort meta-graph into a clip sequence.

    The recursion at meta-state i and clip j considers matching the clip to
    the state's active step (continuing the state's run or transitioning
    from any meta-predecessor) or dropping the clip. The answer is read off
    the meta-sink's predecessors after the last clip, and the traceback
    recovers the segmentation, the dropped clips, and the realised sort.
    This is :func:`graph_drop_dtw_batch` on a batch of one.
    """
    (out,) = graph_drop_dtw_batch(s, [(c, d)])
    return out


def drop_dtw(
    step_order: Sequence[int], c: CostMatrix, d: DropCosts
) -> Alignment:
    """Align a fixed step order to the clips (single-predecessor recursion).

    Contract identical to :func:`graph_drop_dtw` on the chain graph induced
    by ``step_order``; kept independent of the meta-graph machinery so the
    two act as mutual cross-checks.
    """
    order = [int(v) for v in step_order]
    n_steps, n_clips = len(order), len(d)
    if sorted(order) != list(range(n_steps)):
        raise ValidationError("step_order must be a permutation of the cost rows")
    _check_problem(n_steps, c, d)

    cost_rows = np.vstack([np.full((1, n_clips), np.inf), c.values[order]])
    n_rows = n_steps + 1
    drops = d.values

    dp = np.full((n_rows, n_clips + 1), np.inf)
    dp[0, 0] = 0.0
    codes = np.zeros((n_rows, n_clips + 1), dtype=np.int8)

    for j in range(1, n_clips + 1):
        prev = dp[:, j - 1]
        pred_min = np.r_[np.inf, prev[:-1]]
        new, code = _column_update(prev, pred_min, cost_rows[:, j - 1], drops[j - 1], 0)
        dp[:, j] = new
        codes[:, j] = code

    cost = float(dp[n_steps, n_clips])
    if not np.isfinite(cost):
        raise InfeasibleError("no feasible alignment found")  # pragma: no cover

    labels = [DROP] * n_clips
    i, j = n_steps, n_clips
    while not (i == 0 and j == 0):
        if i == 0:
            j -= 1
            continue
        code = codes[i, j]
        if code == _DROP_CODE:
            j -= 1
        elif code == _STAY_CODE:
            labels[j - 1] = order[i - 1]
            j -= 1
        else:
            labels[j - 1] = order[i - 1]
            i -= 1
            j -= 1

    return _assemble(cost, labels, tuple(order))


def drop_dtw_cost(step_order: Sequence[int], c: CostMatrix, d: DropCosts) -> float:
    """Cost-only variant of :func:`drop_dtw` (no traceback bookkeeping).

    Unchecked: the caller passes a problem that :func:`_check_problem`
    accepts and a permutation of its step ids.
    """
    n_clips = len(d)
    order = list(step_order)
    cost_rows = [c.values[v] for v in order]
    drops = d.values
    inf = np.inf
    prev = [0.0] + [inf] * len(order)
    for j in range(n_clips):
        dj = drops[j]
        cur = [prev[0] + dj]
        for i in range(1, len(order) + 1):
            best_in = prev[i] if prev[i] <= prev[i - 1] else prev[i - 1]
            d_plus = cost_rows[i - 1][j] + best_in
            d_minus = prev[i] + dj
            cur.append(d_plus if d_plus <= d_minus else d_minus)
        prev = cur
    return float(prev[-1])


def _assemble(cost: float, labels: list[int], tau_star: tuple[int, ...]) -> Alignment:
    segments: dict[int, tuple[int, int]] = {}
    for j, lab in enumerate(labels):
        if lab == DROP:
            continue
        if lab in segments:
            segments[lab] = (segments[lab][0], j)
        else:
            segments[lab] = (j, j)
    dropped = frozenset(j for j, lab in enumerate(labels) if lab == DROP)
    return Alignment(
        cost=cost,
        segments=segments,
        dropped=dropped,
        tau_star=tau_star,
        labels=tuple(labels),
    )
