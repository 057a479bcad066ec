"""Synthetic grounded instances: embeddings plus known segmentation.

Steps get mutually orthonormal unit vectors, a ground-truth execution order
is sampled uniformly from the graph's topological sorts, every step emits a
few noisy copies of its vector, and background clips (far from every step
direction) are interleaved. Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .align import DROP, EmbeddingSequence
from .errors import ValidationError
from .graph import FlowGraph, enumerate_topological_sorts, normalize, parse_flow_graph
from .matio import read_matrix, write_matrix_csv


@dataclass(frozen=True)
class SynthParams:
    dim: int = 16
    clips_per_step: tuple[int, int] = (1, 3)
    background_ratio: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("embedding dimension must be at least 2")
        lo, hi = self.clips_per_step
        if not 1 <= lo <= hi:
            raise ValidationError("clips_per_step range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.background_ratio < 1.0:
            raise ValidationError("background_ratio must lie in [0, 1)")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    step_embeddings: EmbeddingSequence  # row i <-> step node id i
    clips: EmbeddingSequence
    gt_labels: tuple[int, ...]  # step id per clip, DROP for background
    gt_sort: tuple[int, ...]


def generate(g: FlowGraph, p: SynthParams) -> SyntheticInstance:
    """Sample one grounded instance for the graph."""
    g = normalize(g)
    n_steps = g.n_steps
    if p.dim < n_steps:
        raise ValidationError(
            f"dim {p.dim} < {n_steps} steps: orthonormal separation impossible"
        )
    rng = np.random.default_rng(p.seed)

    basis, _ = np.linalg.qr(rng.standard_normal((p.dim, p.dim)))
    basis = basis.T  # rows orthonormal
    steps = basis[:n_steps]

    sorts = enumerate_topological_sorts(g)
    gt_sort = sorts[int(rng.integers(len(sorts)))]

    lo, hi = p.clips_per_step
    vectors: list[np.ndarray] = []
    labels: list[int] = []
    for step in gt_sort:
        for _ in range(int(rng.integers(lo, hi + 1))):
            vec = steps[step] + p.noise_sigma * rng.standard_normal(p.dim)
            vectors.append(vec / np.linalg.norm(vec))
            labels.append(step)

    ratio = p.background_ratio
    n_background = int(round(len(vectors) * ratio / (1.0 - ratio))) if ratio else 0
    for _ in range(n_background):
        if p.dim > n_steps:
            coeff = rng.standard_normal(p.dim - n_steps)
            vec = coeff @ basis[n_steps:]
        else:
            vec = -steps.sum(axis=0)  # equal maximal angle to every step
        vec = vec / np.linalg.norm(vec)
        vec = vec + p.noise_sigma * rng.standard_normal(p.dim)
        vec = vec / np.linalg.norm(vec)
        pos = int(rng.integers(len(vectors) + 1))
        vectors.insert(pos, vec)
        labels.insert(pos, DROP)

    return SyntheticInstance(
        step_embeddings=EmbeddingSequence(vectors=steps, kind="step"),
        clips=EmbeddingSequence(vectors=np.vstack(vectors), kind="clip"),
        gt_labels=tuple(labels),
        gt_sort=gt_sort,
    )


# ---------------------------------------------------------------------------
# on-disk instance layout: <dir>/steps.csv, clips.csv, gt.json, graph.json


def save_instance(directory: str | Path, g: FlowGraph, inst: SyntheticInstance) -> None:
    """On disk everything uses the graph's external node ids."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(directory / "steps.csv", inst.step_embeddings.vectors)
    write_matrix_csv(directory / "clips.csv", inst.clips.vectors)
    ext = {n.id: n.external_id for n in g.nodes}
    gt = {
        "labels": [lab if lab == DROP else ext[lab] for lab in inst.gt_labels],
        "sort": [ext[v] for v in inst.gt_sort],
    }
    (directory / "gt.json").write_text(json.dumps(gt, indent=2, sort_keys=True) + "\n")
    doc = g.to_json_dict()
    (directory / "graph.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def load_instance(
    directory: str | Path,
) -> tuple[FlowGraph, EmbeddingSequence, EmbeddingSequence, list[int], list[int]]:
    """Returns (graph, steps, clips, gt labels, gt sort), ids mapped back to internal."""
    directory = Path(directory)
    try:
        graph = parse_flow_graph(_read_json(directory / "graph.json"))
        steps = EmbeddingSequence(read_matrix(directory / "steps.csv"), kind="step")
        clips = EmbeddingSequence(read_matrix(directory / "clips.csv"), kind="clip")
        gt = _read_json(directory / "gt.json")
    except FileNotFoundError as exc:
        raise ValidationError(f"incomplete instance directory {directory}: {exc}")
    if len(steps) != graph.n_steps:
        raise ValidationError(f"{directory}/steps.csv: {len(steps)} rows for {graph.n_steps} steps")
    for key in ("labels", "sort"):
        if not isinstance(gt, dict) or not isinstance(gt.get(key), list):
            raise ValidationError(f'{directory}/gt.json needs a "{key}" list of node ids')
    internal = {n.external_id: n.id for n in graph.nodes}
    try:
        labels = [lab if lab == DROP else internal[lab] for lab in gt["labels"]]
        order = [internal[v] for v in gt["sort"]]
    except KeyError as exc:
        raise ValidationError(
            f"{directory}/gt.json references unknown node id {exc.args[0]}"
        ) from None
    except TypeError:  # an unhashable entry, such as a nested list
        raise ValidationError(f"{directory}/gt.json holds a node id that is not a number") from None
    if len(labels) != len(clips):
        raise ValidationError(f"{directory}/gt.json: {len(labels)} labels for {len(clips)} clips")
    return graph, steps, clips, labels, order


def load_dataset(directory: str | Path) -> list[tuple]:
    """Load every ``instance_*`` subdirectory, sorted by name."""
    directory = Path(directory)
    subdirs = sorted(d for d in directory.glob("instance_*") if d.is_dir())
    if not subdirs:
        raise ValidationError(f"no instance_* directories under {directory}")
    return [load_instance(d) for d in subdirs]
