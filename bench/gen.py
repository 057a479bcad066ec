"""Seeded input generator for the benchmark.

Everything a workload feeds the program is made here from the run seed, with
no call into ``flowground``, so a change to the program cannot change a
workload. Files are written in the formats the program documents: flow-graph
JSON, headered CSV (``# rows=K cols=N``), FLOWGRND binary (8-byte magic,
uint32 rows, uint32 cols, little-endian, row-major float64) and the
``instance_*`` dataset layout (steps.csv, clips.csv, gt.json, graph.json).
The same seed gives byte-identical files.

Graphs are held as ``Proc``: steps are dense ids 0..K-1 (the order the
program maps cost rows to), ``ext`` gives the id written to disk for each
dense id, ascending so the program's remapping restores the dense ids.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DIM = 32
BACKGROUND = -1
MAGIC = b"FLOWGRND"


@dataclass(frozen=True)
class Proc:
    """A procedure flow graph plus the meta-graph size the program should build."""

    name: str
    n_steps: int
    edges: tuple[tuple[int, int], ...]  # dense ids
    ext: tuple[int, ...]  # external id per dense id, ascending
    n_states: int  # forward meta-graph states, virtual root and sink included
    n_edges: int  # forward meta-graph edges
    n_sorts: int

    def document(self) -> dict:
        """Flow-graph JSON document in external ids."""
        return {
            "nodes": [{"id": self.ext[v], "label": f"step {v}"} for v in range(self.n_steps)],
            "edges": sorted([self.ext[u], self.ext[v]] for u, v in self.edges),
        }


def stratified(slot: int, offset: float) -> float:
    """Golden-ratio sequence in [0, 1): evenly spread for any run length."""
    return (offset + slot * GOLDEN) % 1.0


# -- graphs ------------------------------------------------------------------


def _parents(n_steps: int, edges) -> list[int]:
    masks = [0] * n_steps
    for u, v in edges:
        masks[v] |= 1 << u
    return masks


def lattice_counts(n_steps: int, edges) -> tuple[int, int, int]:
    """(meta-graph states, meta-graph edges, topological sorts), over the ideal lattice.

    A forward meta-state is (active node, nodes visited before it); the
    visited set is an ideal and the active node is any node available after
    it, so S = root state + sum over proper ideals of |available| + sink.
    State (v, I) has an edge to every node available after I + v, or to the
    sink once every step is visited.
    """
    parents = _parents(n_steps, edges)
    full = (1 << n_steps) - 1

    def available(ideal: int) -> list[int]:
        return [
            v
            for v in range(n_steps)
            if not ideal >> v & 1 and not parents[v] & ~ideal
        ]

    avail: dict[int, list[int]] = {}
    stack = [0]
    while stack:
        ideal = stack.pop()
        if ideal in avail:
            continue
        avail[ideal] = available(ideal)
        stack.extend(ideal | 1 << v for v in avail[ideal])
    n_states = 2 + sum(len(a) for i, a in avail.items() if i != full)
    n_edges = len(avail[0]) + sum(
        max(1, len(avail[i | 1 << v])) for i, a in avail.items() for v in a
    )
    sorts = {full: 1}
    for ideal in sorted(avail, key=lambda m: -bin(m).count("1")):
        if ideal != full:
            sorts[ideal] = sum(sorts[ideal | 1 << v] for v in avail[ideal])
    return n_states, n_edges, sorts[0]


def make_proc(name: str, n_steps: int, edges, ext=None) -> Proc:
    edges = tuple(sorted(set(edges)))
    return Proc(name, n_steps, edges, tuple(ext or range(n_steps)), *lattice_counts(n_steps, edges))


def chains(sizes) -> Proc:
    """T parallel chains (the paper's model problem)."""
    edges, start = [], 0
    for size in sizes:
        edges += [(start + k, start + k + 1) for k in range(size - 1)]
        start += size
    return make_proc("x".join(map(str, sizes)), start, edges)


def random_dag(rng: np.random.Generator, name: str, steps: tuple[int, int], states: tuple[int, int]) -> Proc:
    """Random DAG (edges from lower to higher id), resampled until S lies in ``states``."""
    while True:
        n = int(rng.integers(steps[0], steps[1] + 1))
        p = float(rng.uniform(0.15, 0.6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        proc = make_proc(name, n, edges)
        if states[0] <= proc.n_states <= states[1]:
            return proc


def cross_chains(rng: np.random.Generator, max_states: int) -> Proc:
    """T in {2,3,4} chains over 8-16 steps with random cross-chain edges, S <= max_states.

    Cross edges follow one random interleaving of the chains, so the graph
    stays acyclic; they are added until the meta-graph is small enough.
    External ids are distinct random integers, so the program's id mapping
    is exercised.
    """
    n_threads = int(rng.integers(2, 5))
    n = int(rng.integers(max(8, 2 * n_threads), 17))
    cuts = sorted(rng.choice(np.arange(1, n), size=n_threads - 1, replace=False).tolist())
    sizes = np.diff([0] + cuts + [n]).tolist()
    thread = np.repeat(np.arange(n_threads), sizes)
    base = chains(sizes)
    order = rng.permutation(thread)  # interleaving: k-th entry names the thread moving next
    pos, seen = np.empty(n, dtype=int), [0] * n_threads
    firsts = np.cumsum([0] + sizes[:-1])
    for t_idx, t in enumerate(order):
        pos[firsts[t] + seen[t]] = t_idx
        seen[t] += 1
    edges = set(base.edges)
    candidates = [
        (u, v) for u in range(n) for v in range(n) if thread[u] != thread[v] and pos[u] < pos[v]
    ]
    proc, at_least = base, int(rng.integers(1, 4))
    for added, k in enumerate(rng.permutation(len(candidates))):
        if added >= at_least and proc.n_states <= max_states:
            break
        edges.add(candidates[k])
        proc = make_proc("cross", n, edges)
    ext = sorted(rng.choice(1000, size=n, replace=False).tolist())
    return make_proc(f"cross{n_threads}t{n}", n, proc.edges, ext)


def random_sort(rng: np.random.Generator, proc: Proc) -> list[int]:
    """A topological sort, choosing uniformly among the available steps."""
    parents = _parents(proc.n_steps, proc.edges)
    done, order = 0, []
    while len(order) < proc.n_steps:
        ready = [v for v in range(proc.n_steps) if not done >> v & 1 and not parents[v] & ~done]
        v = ready[int(rng.integers(len(ready)))]
        order.append(v)
        done |= 1 << v
    return order


# -- videos ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Video:
    steps: np.ndarray  # (K, DIM) step embeddings, row = dense step id
    clips: np.ndarray  # (N, DIM)
    labels: tuple[int, ...]  # dense step id per clip, BACKGROUND otherwise
    order: tuple[int, ...]


def video(rng: np.random.Generator, proc: Proc, n_clips: int, noise: float, bg: float = 0.3) -> Video:
    """Noisy step embeddings in a random sort, with about ``bg`` background clips.

    Background comes in runs placed in the gaps between step segments and
    points away from every step direction.
    """
    k = proc.n_steps
    basis, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    steps = basis[:k]
    order = random_sort(rng, proc)
    n_bg = int(round(bg * n_clips))
    n_fg = n_clips - n_bg
    cuts = np.sort(rng.choice(np.arange(1, n_fg), size=k - 1, replace=False))
    seg = np.diff(np.r_[0, cuts, n_fg])  # every step gets at least one clip
    gap_cuts = np.sort(rng.integers(0, n_bg + 1, size=k))
    gaps = np.diff(np.r_[0, gap_cuts, n_bg])  # k + 1 gaps around k segments
    labels: list[int] = []
    for i, step in enumerate(order):
        labels += [BACKGROUND] * int(gaps[i]) + [step] * int(seg[i])
    labels += [BACKGROUND] * int(gaps[k])
    lab = np.array(labels)
    vecs = np.empty((n_clips, DIM))
    fg_rows = lab >= 0
    vecs[fg_rows] = steps[lab[fg_rows]]
    coeff = rng.standard_normal((int((~fg_rows).sum()), DIM - k))
    vecs[~fg_rows] = coeff @ basis[k:]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs += noise * rng.standard_normal(vecs.shape)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return Video(steps, vecs, tuple(labels), tuple(order))


def costs(steps: np.ndarray, clips: np.ndarray, temperature: float) -> np.ndarray:
    """-log softmax over step rows of scaled dot products (the program's documented cost)."""
    scores = steps @ clips.T / temperature
    shift = scores.max(axis=0, keepdims=True)
    log_norm = shift + np.log(np.exp(scores - shift).sum(axis=0, keepdims=True))
    return log_norm - scores


# -- files -------------------------------------------------------------------


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, matrix: np.ndarray) -> None:
    rows, cols = matrix.shape
    lines = [f"# rows={rows} cols={cols}"]
    lines += [",".join(repr(float(x)) for x in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def write_binary(path: Path, matrix: np.ndarray) -> None:
    arr = np.ascontiguousarray(matrix, dtype="<f8")
    path.write_bytes(struct.pack("<8sII", MAGIC, *arr.shape) + arr.tobytes())


def write_instance(directory: Path, proc: Proc, vid: Video) -> None:
    """One ``instance_*`` directory, ids external."""
    directory.mkdir(parents=True)
    write_csv(directory / "steps.csv", vid.steps)
    write_csv(directory / "clips.csv", vid.clips)
    ext = proc.ext
    write_json(
        directory / "gt.json",
        {
            "labels": [lab if lab < 0 else ext[lab] for lab in vid.labels],
            "sort": [ext[v] for v in vid.order],
        },
    )
    write_json(directory / "graph.json", proc.document())
