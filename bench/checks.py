"""Output checks, run outside the timed interval.

The chain aligner here is the benchmark's own: it shares no code with the
program, so a defect in the program's DP cannot hide by also being in the
check. It follows the program's documented tie rules (match beats drop,
staying beats transitioning), so on a grounding's own step order it must
reproduce the program's cost and labels.
"""

from __future__ import annotations

import numpy as np

from gen import BACKGROUND, Proc

COST_TOL = 1e-9  # absolute: the same additions in the same order give the same bits
MASS_TOL = 1e-6
BRUTE_SORTS = 24  # oracle checks only graphs with at most this many sorts
BRUTE_CELLS = 400_000  # ... and at most this many sorts * steps * clips


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's expectation."""


def drop_costs(costs: np.ndarray, percentile: float) -> np.ndarray:
    """One drop cost for every clip: the percentile of all match costs."""
    return np.full(costs.shape[1], float(np.percentile(costs, percentile)))


def chain_align(order, costs: np.ndarray, drops: np.ndarray) -> tuple[float, list[int]]:
    """Drop-DTW of one fixed step order: (cost, label per clip)."""
    k, n = len(order), len(drops)
    rows = np.vstack([np.full(n, np.inf), costs[list(order)]])  # row 0: nothing matched yet
    prev = np.full(k + 1, np.inf)
    prev[0] = 0.0
    choice = np.zeros((k + 1, n), dtype=np.int8)  # 0 drop, 1 stay, 2 advance
    for j in range(n):
        before = np.r_[np.inf, prev[:-1]]
        stay = prev <= before
        plus = rows[:, j] + np.where(stay, prev, before)
        minus = prev + drops[j]
        match = plus <= minus
        choice[:, j] = np.where(match, np.where(stay, 1, 2), 0)
        prev = np.where(match, plus, minus)
        choice[0, j] = 0
        prev[0] = minus[0]
    labels = [BACKGROUND] * n
    i = k
    for j in range(n - 1, -1, -1):
        if i == 0 or choice[i, j] == 0:
            continue
        labels[j] = order[i - 1]
        if choice[i, j] == 2:
            i -= 1
    return float(prev[k]), labels


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= COST_TOL


def grounding(proc: Proc, costs: np.ndarray, drops: np.ndarray, cost, tau_star, labels) -> None:
    """Check one hard grounding given in dense step ids; raise CheckFailed."""
    tau = [int(v) for v in tau_star]
    if sorted(tau) != list(range(proc.n_steps)):
        raise CheckFailed(f"tau_star {tau} is not a permutation of the {proc.n_steps} steps")
    pos = {v: i for i, v in enumerate(tau)}
    bad = [(u, v) for u, v in proc.edges if pos[u] > pos[v]]
    if bad:
        raise CheckFailed(f"tau_star {tau} breaks edges {bad}")
    labels = [int(x) for x in labels]
    if len(labels) != len(drops):
        raise CheckFailed(f"{len(labels)} labels for {len(drops)} clips")
    empty = set(range(proc.n_steps)) - set(labels)
    if empty:
        raise CheckFailed(f"steps {sorted(empty)} got no clip")
    want_cost, want_labels = chain_align(tau, costs, drops)
    if not _close(float(cost), want_cost):
        raise CheckFailed(f"cost {cost!r} but the chain DP on tau_star gives {want_cost!r}")
    if labels != want_labels:
        raise CheckFailed("labels differ from the chain DP on tau_star")


def oracle_applies(proc: Proc, n_clips: int) -> bool:
    return proc.n_sorts <= BRUTE_SORTS and proc.n_sorts * proc.n_steps * n_clips <= BRUTE_CELLS


def oracle(fg, graph, proc: Proc, costs, drops, cost, tau_star, labels) -> None:
    """Compare with the program's brute-force oracle on a graph with few sorts."""
    ref = fg.brute_force_ground(graph, fg.CostMatrix(costs), fg.DropCosts(drops))
    if not _close(float(cost), ref.cost):
        raise CheckFailed(f"cost {cost!r} but brute force gives {ref.cost!r}")
    if [int(v) for v in tau_star] != list(ref.tau_star):
        raise CheckFailed(f"tau_star {list(tau_star)} but brute force gives {list(ref.tau_star)}")
    if [int(x) for x in labels] != list(ref.labels):
        raise CheckFailed("labels differ from brute force")


def frame_accuracy(pred, gt) -> float:
    """Share of all clips whose true step was predicted; background never scores."""
    return sum(1 for p, t in zip(pred, gt) if t != BACKGROUND and p == t) / len(gt)


def gradient_mass(fg, meta, costs: np.ndarray, drops: np.ndarray) -> None:
    """Every clip is matched or dropped, so d(value)/dC and d(value)/dd sum to N."""
    soft = fg.soft_graph_drop_dtw(
        meta, fg.CostMatrix(costs), fg.DropCosts(drops), fg.SmoothingConfig(gamma=0.1)
    )
    mass = float(soft.grad_costs.sum() + soft.grad_drops.sum())
    if not np.isfinite(soft.value) or abs(mass - len(drops)) > MASS_TOL:
        raise CheckFailed(f"soft DP value {soft.value!r}, gradient mass {mass!r} != {len(drops)}")
