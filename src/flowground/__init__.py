"""Ground partially ordered procedures into observation sequences.

A procedure given as a flow graph (DAG of steps) is grounded into a sequence
of clip embeddings or a precomputed cost matrix: the library compacts all
topological sorts into a meta-graph, aligns it with a drop-aware DP, and
also exposes a differentiable relaxation usable as a training loss.
"""

from .align import (
    DROP,
    Alignment,
    CostMatrix,
    DropCosts,
    EmbeddingSequence,
    compute_cost_matrix,
    compute_drop_costs,
    drop_dtw,
    graph_drop_dtw,
    graph_drop_dtw_batch,
)
from .brute import BenchReport, bench_compare, brute_force_ground
from .errors import (
    CapExceededError,
    FlowGroundError,
    InfeasibleError,
    TrainingDivergedError,
    ValidationError,
)
from .graph import (
    FlowGraph,
    StepNode,
    ThreadSpec,
    complexity_ratio,
    count_tsort_nodes_closed_form,
    count_tsorts_closed_form,
    enumerate_topological_sorts,
    model_problem,
    normalize,
    parse_flow_graph,
)
from .metrics import BACKGROUND, framewise_accuracy, iou
from .soft import (
    LossValue,
    ProjectionModel,
    SmoothingConfig,
    clustering_loss,
    combined_loss,
    smooth_min,
    smooth_min_grad,
    soft_graph_drop_dtw,
    soft_graph_drop_dtw_batch,
    train_projection,
)
from .synth import SynthParams, SyntheticInstance, generate
from .tsort import (
    TSortGraph,
    TSortNode,
    build_tsort_backward,
    build_tsort_forward,
    enumerate_paths,
    isomorphic,
)

__version__ = "0.1.0"

__all__ = [
    "DROP",
    "BACKGROUND",
    "Alignment",
    "BenchReport",
    "CostMatrix",
    "DropCosts",
    "EmbeddingSequence",
    "FlowGraph",
    "FlowGroundError",
    "CapExceededError",
    "InfeasibleError",
    "TrainingDivergedError",
    "ValidationError",
    "LossValue",
    "ProjectionModel",
    "SmoothingConfig",
    "StepNode",
    "SynthParams",
    "SyntheticInstance",
    "ThreadSpec",
    "TSortGraph",
    "TSortNode",
    "bench_compare",
    "brute_force_ground",
    "build_tsort_backward",
    "build_tsort_forward",
    "clustering_loss",
    "combined_loss",
    "complexity_ratio",
    "compute_cost_matrix",
    "compute_drop_costs",
    "count_tsort_nodes_closed_form",
    "count_tsorts_closed_form",
    "drop_dtw",
    "enumerate_paths",
    "enumerate_topological_sorts",
    "framewise_accuracy",
    "generate",
    "graph_drop_dtw",
    "graph_drop_dtw_batch",
    "iou",
    "isomorphic",
    "model_problem",
    "normalize",
    "parse_flow_graph",
    "smooth_min",
    "smooth_min_grad",
    "soft_graph_drop_dtw",
    "soft_graph_drop_dtw_batch",
    "train_projection",
]
