"""Command-line interface: graph tooling, grounding, benchmarks, synthesis, training.

Exit codes: 0 success, 1 validation problems (bad flags, missing files,
schema violations), 2 infeasibility or cap overruns. All structured output
is JSON with sorted keys, so identical inputs and seeds give byte-identical
files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .align import (
    CostMatrix,
    DropCosts,
    EmbeddingSequence,
    compute_cost_matrix,
    compute_drop_costs,
    graph_drop_dtw,
    graph_drop_dtw_batch,
)
from .brute import bench_compare
from .errors import (
    CapExceededError,
    FlowGroundError,
    InfeasibleError,
    TrainingDivergedError,
    ValidationError,
)
from .graph import (
    FlowGraph,
    ThreadSpec,
    complexity_ratio,
    count_tsort_nodes_closed_form,
    count_tsorts_closed_form,
    enumerate_topological_sorts,
    model_problem,
    normalize,
    parse_flow_graph,
)
from .matio import read_matrix
from .metrics import framewise_accuracy, iou
from .soft import ProjectionModel, SmoothingConfig, train_projection
from .soft import _meta_graphs, _per_meta_graph
from .synth import SynthParams, generate, load_dataset, save_instance
from .tsort import build_tsort_backward, build_tsort_forward

_SCHEMAS = {
    "flow_graph": {
        "type": "object",
        "properties": {
            "nodes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"id": {"type": "integer"}, "label": {"type": "string"}},
                    "required": ["id"],
                },
            },
            "edges": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            },
        },
        "required": ["nodes", "edges"],
    },
    "tsort_graph": {
        "type": "object",
        "properties": {
            "nodes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "id": {"type": "integer"},
                        "label": {"type": "string"},
                        "active": {"type": "integer"},
                        "mark": {"type": "array", "items": {"type": "integer"}},
                        "virtual": {"type": "boolean"},
                    },
                    "required": ["id", "active", "mark"],
                },
            },
            "edges": {"type": "array"},
            "root": {"type": "integer"},
            "sink": {"type": "integer"},
            "variant": {"enum": ["forward", "backward"]},
        },
        "required": ["nodes", "edges", "root", "sink"],
    },
    "alignment": {
        "type": "object",
        "properties": {
            "cost": {"type": "number"},
            "tau_star": {"type": "array", "items": {"type": "integer"}},
            "segments": {"type": "object"},
            "dropped": {"type": "array", "items": {"type": "integer"}},
            "labels": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["cost", "tau_star", "segments", "dropped"],
    },
    "bench_report": {
        "type": "object",
        "properties": {
            "n_sorts": {"type": "integer"},
            "n_tsort_nodes": {"type": "integer"},
            "t_brute_ms": {"type": "number"},
            "t_graph_ms": {"type": "number"},
            "speedup": {"type": "number"},
            "rho_predicted": {"type": "number"},
        },
    },
    "eval_report": {
        "type": "object",
        "properties": {"accuracy": {"type": "number"}, "iou": {"type": "number"}},
    },
    "labels": {
        "type": "object",
        "properties": {"labels": {"type": "array", "items": {"type": "integer"}}},
        "required": ["labels"],
    },
    "matrix_csv": "first line '# rows=K cols=N', then K comma-separated rows",
    "matrix_binary": "8-byte magic FLOWGRND, uint32 rows, uint32 cols (LE), row-major float64 LE",
}


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(obj, out: str | None) -> None:
    text = _dump(obj)
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _load_graph(path: str) -> FlowGraph:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"no such file: {path}")
    return parse_flow_graph(p.read_text())


def _print_schemas(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(_dump(_SCHEMAS), nl=False)
    ctx.exit(0)


@click.group(name="flowground")
@click.version_option(version=__version__, prog_name="flowground")
@click.option(
    "--schema",
    is_flag=True,
    callback=_print_schemas,
    expose_value=False,
    is_eager=True,
    help="Dump JSON schemas for every structured format and exit.",
)
def cli():
    """Ground procedure flow graphs into observation sequences."""


# -- graph tooling -----------------------------------------------------------


@cli.group()
def graph():
    """Validate flow graphs, enumerate sorts, evaluate closed-form counts."""


@graph.command()
@click.option("--in", "input_path", required=True, help="Flow-graph JSON file.")
@click.option("--dot", "dot_path", default=None, help="Also write a DOT rendering.")
@click.option("--out", default=None, help="Write the summary JSON here instead of stdout.")
def validate(input_path, dot_path, out):
    """Parse and validate a flow-graph document."""
    g = _load_graph(input_path)
    if dot_path:
        Path(dot_path).write_text(normalize(g).to_dot())
    _emit(
        {
            "nodes": g.n_nodes,
            "edges": len(g.edges),
            "steps": g.n_steps,
            "valid": True,
        },
        out,
    )


@graph.command()
@click.option("--in", "input_path", default=None, help="Flow-graph JSON file.")
@click.option("--spec", default=None, help="Model problem thread sizes, e.g. 2,1.")
@click.option("--cap", default=10**6, show_default=True, help="Maximum number of sorts.")
@click.option("--out", default=None, help="Output JSON path (default stdout).")
def sorts(input_path, spec, cap, out):
    """Enumerate every topological sort of the step nodes."""
    g = _resolve_graph(input_path, spec)
    found = enumerate_topological_sorts(g, cap=cap)
    ext = [g.nodes[v].external_id for v in range(g.n_nodes)]
    _emit(
        {"count": len(found), "sorts": [[ext[v] for v in tau] for tau in found]},
        out,
    )


@graph.command()
@click.option("--spec", required=True, help="Model problem thread sizes, e.g. 3,3,3.")
@click.option("--out", default=None, help="Output JSON path (default stdout).")
def counts(spec, out):
    """Closed-form sort count, meta-graph size, and predicted speedup ratio."""
    ts = ThreadSpec.parse(spec)
    _emit(
        {
            "n_sorts": count_tsorts_closed_form(ts),
            "n_tsort_nodes": count_tsort_nodes_closed_form(ts),
            "rho": complexity_ratio(ts),
        },
        out,
    )


def _resolve_graph(input_path: str | None, spec: str | None) -> FlowGraph:
    if (input_path is None) == (spec is None):
        raise ValidationError("provide exactly one of --in or --spec")
    if input_path is not None:
        return _load_graph(input_path)
    return model_problem(ThreadSpec.parse(spec))


# -- meta-graph construction ---------------------------------------------------


@cli.command()
@click.option("--in", "input_path", required=True, help="Flow-graph JSON file.")
@click.option(
    "--algo",
    type=click.Choice(["forward", "backward"]),
    default="forward",
    show_default=True,
)
@click.option("--out", default=None, help="tSort JSON output path (default stdout).")
@click.option("--dot", "dot_path", default=None, help="Also write a DOT rendering.")
@click.option("--node-cap", default=10**6, show_default=True, help="Meta-graph size cap.")
def tsort(input_path, algo, out, dot_path, node_cap):
    """Compact all topological sorts into the meta-graph."""
    g = normalize(_load_graph(input_path))
    build = build_tsort_forward if algo == "forward" else build_tsort_backward
    s = build(g, node_cap=node_cap)
    if dot_path:
        Path(dot_path).write_text(s.to_dot())
    _emit(s.to_json_dict(), out)


# -- grounding -----------------------------------------------------------------


def _external_labels(g: FlowGraph, labels) -> list[int]:
    ext = {v: g.nodes[v].external_id for v in range(g.n_nodes)}
    return [lab if lab < 0 else ext[lab] for lab in labels]


@cli.command()
@click.option("--graph", "graph_path", required=True, help="Flow-graph JSON file.")
@click.option("--costs", "costs_path", default=None, help="K x N cost matrix (CSV or binary).")
@click.option("--steps", "steps_path", default=None, help="K x d step embeddings.")
@click.option("--clips", "clips_path", default=None, help="N x d clip embeddings.")
@click.option("--temperature", default=1.0, show_default=True)
@click.option("--drop-percentile", default=30.0, show_default=True)
@click.option("--per-column-drop", is_flag=True, help="Percentile per clip column.")
@click.option("--emit-labels", is_flag=True, help="Include per-clip labels in the output.")
@click.option("--out", default=None, help="Alignment JSON path (default stdout).")
def ground(
    graph_path,
    costs_path,
    steps_path,
    clips_path,
    temperature,
    drop_percentile,
    per_column_drop,
    emit_labels,
    out,
):
    """Ground a flow graph into a clip sequence."""
    g = normalize(_load_graph(graph_path))
    if costs_path is not None:
        if steps_path or clips_path:
            raise ValidationError("--costs excludes --steps/--clips")
        c = CostMatrix(read_matrix(costs_path))
    else:
        if not (steps_path and clips_path):
            raise ValidationError("provide --costs, or both --steps and --clips")
        steps = EmbeddingSequence(read_matrix(steps_path), kind="step")
        clips = EmbeddingSequence(read_matrix(clips_path), kind="clip")
        c = compute_cost_matrix(steps, clips, temperature)
    d = compute_drop_costs(c, drop_percentile, per_column=per_column_drop)
    alignment = graph_drop_dtw(build_tsort_forward(g), c, d)

    ext = {v: g.nodes[v].external_id for v in range(g.n_nodes)}
    result = {
        "cost": alignment.cost,
        "tau_star": [ext[v] for v in alignment.tau_star],
        "segments": {
            str(ext[step]): list(span) for step, span in alignment.segments.items()
        },
        "dropped": sorted(alignment.dropped),
    }
    if emit_labels:
        result["labels"] = _external_labels(g, alignment.labels)
    _emit(result, out)


# -- benchmark -----------------------------------------------------------------


@cli.command()
@click.option("--graph", "graph_path", default=None, help="Flow-graph JSON file.")
@click.option("--spec", default=None, help="Model problem thread sizes instead of a file.")
@click.option("--costs", "costs_path", required=True, help="K x N cost matrix.")
@click.option("--drop-percentile", default=30.0, show_default=True)
@click.option("--repeats", default=5, show_default=True)
@click.option("--out", default=None, help="Report JSON path (default stdout).")
def bench(graph_path, spec, costs_path, drop_percentile, repeats, out):
    """Compare brute-force grounding with the meta-graph route."""
    g = _resolve_graph(graph_path, spec)
    c = CostMatrix(read_matrix(costs_path))
    d = compute_drop_costs(c, drop_percentile)
    report = bench_compare(g, c, d, repeats=repeats)
    _emit(report.to_json_dict(), out)


# -- synthesis -----------------------------------------------------------------


@cli.command()
@click.option("--graph", "graph_path", default=None, help="Flow-graph JSON file.")
@click.option("--spec", default=None, help="Model problem thread sizes instead of a file.")
@click.option("--n", "count", default=10, show_default=True, help="Instances to generate.")
@click.option("--dim", default=16, show_default=True)
@click.option("--noise", default=0.0, show_default=True)
@click.option("--bg", default=0.0, show_default=True, help="Background clip fraction.")
@click.option("--clips-per-step", default="1,3", show_default=True, help="lo,hi range.")
@click.option("--seed", default=7, show_default=True)
@click.option("--out", "out_dir", required=True, help="Output directory.")
def synth(graph_path, spec, count, dim, noise, bg, clips_per_step, seed, out_dir):
    """Generate synthetic grounded instances with known segmentations."""
    g = normalize(_resolve_graph(graph_path, spec))
    try:
        lo, hi = (int(x) for x in clips_per_step.split(","))
    except ValueError:
        raise ValidationError(f"bad --clips-per-step {clips_per_step!r}") from None
    base = Path(out_dir)
    for i in range(count):
        params = SynthParams(
            dim=dim,
            clips_per_step=(lo, hi),
            background_ratio=bg,
            noise_sigma=noise,
            seed=seed + i,
        )
        inst = generate(g, params)
        save_instance(base / f"instance_{i:03d}", g, inst)
    click.echo(_dump({"instances": count, "directory": str(base)}), nl=False)


# -- training ------------------------------------------------------------------


@cli.command()
@click.option("--data", "data_dir", required=True, help="Directory of instance_* subdirs.")
@click.option("--gamma", default=0.1, show_default=True)
@click.option("--lr", default=1e-3, show_default=True)
@click.option("--epochs", default=50, show_default=True)
@click.option("--temperature", default=1.0, show_default=True)
@click.option("--drop-percentile", default=30.0, show_default=True)
@click.option("--clust-weight", default=1.0, show_default=True)
@click.option("--trace", "trace_path", default=None, help="Write epoch,loss,accuracy CSV.")
@click.option("--model-out", default=None, help="Write trained weights as JSON.")
def train(
    data_dir, gamma, lr, epochs, temperature, drop_percentile, clust_weight, trace_path, model_out
):
    """Fit the clip projection on a synthetic dataset with the combined loss."""
    loaded = load_dataset(data_dir)
    metas = _meta_graphs([g for g, *_ in loaded])
    dataset = [(s, clips, steps) for s, (_, steps, clips, _, _) in zip(metas, loaded)]
    dim = dataset[0][1].dim
    cfg = SmoothingConfig(gamma=gamma)

    def mean_accuracy(m: ProjectionModel) -> float:
        problems, truth = [], []
        for _, steps, clips, labels, _ in loaded:
            c = compute_cost_matrix(steps, m.apply(clips), temperature)
            problems.append((c, compute_drop_costs(c, drop_percentile)))
            truth.append(labels)
        aligned = _per_meta_graph(graph_drop_dtw_batch, metas, problems)
        scores = [framewise_accuracy(a.labels, t) for a, t in zip(aligned, truth)]
        return float(np.mean(scores))

    model, trace = train_projection(
        dataset,
        ProjectionModel.identity(dim),
        cfg,
        lr=lr,
        epochs=epochs,
        eval_fn=mean_accuracy,
        temperature=temperature,
        drop_percentile=drop_percentile,
        clust_weight=clust_weight,
    )
    if trace_path:
        lines = ["epoch,loss,accuracy"]
        lines += [f"{e},{format(l, '.17g')},{format(a, '.17g')}" for e, l, a in trace]
        Path(trace_path).write_text("\n".join(lines) + "\n")
    if model_out:
        Path(model_out).write_text(
            _dump({"weight": model.weight.tolist(), "bias": model.bias.tolist()})
        )
    click.echo(
        _dump(
            {
                "epochs": epochs,
                "initial_loss": trace[0][1],
                "final_loss": trace[-1][1],
                "final_accuracy": trace[-1][2],
            }
        ),
        nl=False,
    )


# -- evaluation ----------------------------------------------------------------


def _load_labels(path: str) -> list[int]:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"no such file: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), list):
        raise ValidationError(f'{path}: expected an object with a "labels" array')
    labels = doc["labels"]
    for x in labels:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValidationError(f"{path}: label {x!r} is not an integer")
    return labels


@cli.command(name="eval")
@click.option("--pred", "pred_path", required=True, help='JSON with a "labels" array.')
@click.option("--gt", "gt_path", required=True, help='JSON with a "labels" array.')
@click.option("--steps-only-denominator", is_flag=True)
@click.option("--out", default=None, help="Report JSON path (default stdout).")
def eval_cmd(pred_path, gt_path, steps_only_denominator, out):
    """Framewise accuracy and IoU between predicted and ground-truth labels."""
    pred = _load_labels(pred_path)
    gt = _load_labels(gt_path)
    _emit(
        {
            "accuracy": framewise_accuracy(
                pred, gt, steps_only_denominator=steps_only_denominator
            ),
            "iou": iou(pred, gt),
        },
        out,
    )


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except (InfeasibleError, CapExceededError, TrainingDivergedError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (ValidationError, FlowGroundError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except FileNotFoundError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
