"""Enumerate-and-align reference grounding, plus the timing comparison.

``brute_force_ground`` is the correctness oracle: it tries every topological
sort with the chain aligner and keeps the cheapest, which by definition
equals the optimum the meta-graph DP must reach. It is deliberately simple
and shares no machinery with the meta-graph path.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from statistics import median

from .align import (
    Alignment,
    CostMatrix,
    DropCosts,
    _check_problem,
    drop_dtw,
    drop_dtw_cost,
    graph_drop_dtw,
)
from .errors import ValidationError
from .graph import DEFAULT_SORT_CAP, FlowGraph, enumerate_topological_sorts, normalize
from .tsort import build_tsort_forward


def brute_force_ground(
    g: FlowGraph, c: CostMatrix, d: DropCosts, cap: int = DEFAULT_SORT_CAP
) -> Alignment:
    """Best alignment over all topological sorts; ties go to the smallest sort.

    Sorts are scanned in lexicographic order with a cost-only pass, then the
    winner is re-aligned with full traceback.
    """
    _check_problem(g.n_steps, c, d)
    best_tau = None
    best_cost = float("inf")
    for tau in enumerate_topological_sorts(g, cap=cap):
        cost = drop_dtw_cost(tau, c, d)
        if cost < best_cost:
            best_cost = cost
            best_tau = tau
    assert best_tau is not None
    return drop_dtw(best_tau, c, d)


@dataclass(frozen=True)
class BenchReport:
    """Median wall-clock comparison of the two grounding routes."""

    n_sorts: int
    n_tsort_nodes: int
    t_brute_ms: float
    t_graph_ms: float
    speedup: float
    rho_predicted: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def bench_compare(
    g: FlowGraph,
    c: CostMatrix,
    d: DropCosts,
    repeats: int = 5,
    cap: int = DEFAULT_SORT_CAP,
) -> BenchReport:
    """Time brute-force grounding against meta-graph construction plus DP.

    Each method gets one untimed warm-up run, then ``repeats`` timed runs;
    medians are reported. Both routes are single-threaded small-array code,
    so the comparison needs no thread pinning. The timed meta-graph route
    includes construction, mirroring a from-scratch grounding call.

    The predicted work ratio uses the model-problem formula with the thread
    count taken as the normalized root's out-degree (exact for model
    problems, a proxy otherwise).
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be at least 1, got {repeats}")
    gn = normalize(g)
    sorts = enumerate_topological_sorts(gn, cap=cap)
    n_sorts = len(sorts)

    def run_brute() -> Alignment:
        return brute_force_ground(gn, c, d, cap=cap)

    def run_graph() -> Alignment:
        return graph_drop_dtw(build_tsort_forward(gn), c, d)

    tsort = build_tsort_forward(gn)
    n_threads = max(1, len(gn.descendants(gn.root_id)))
    rho = n_sorts * gn.n_steps / (n_threads * tsort.num_nodes())

    for fn in (run_brute, run_graph):
        fn()  # warm-up, excluded from timing

    t_brute: list[float] = []
    t_graph: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_brute()
        t_brute.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        run_graph()
        t_graph.append((time.perf_counter() - start) * 1e3)

    med_brute, med_graph = median(t_brute), median(t_graph)
    return BenchReport(
        n_sorts=n_sorts,
        n_tsort_nodes=tsort.num_nodes(),
        t_brute_ms=med_brute,
        t_graph_ms=med_graph,
        speedup=med_brute / med_graph if med_graph > 0 else float("inf"),
        rho_predicted=rho,
    )
