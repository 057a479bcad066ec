"""Meta-graphs packing every topological sort of a flow graph.

Each root-to-sink path of the meta-graph spells one topological sort of the
underlying flow graph, and common prefixes/suffixes are shared, which is what
keeps the structure polynomial for few-thread graphs while the number of
sorts grows exponentially.

Two constructions are provided and must agree:

* ``build_tsort_forward`` walks from the root, keying states on
  ``(active node, set of nodes visited before it)``.
* ``build_tsort_backward`` walks from the sink, keying states on
  ``(active node, front)`` where the front holds the pending candidates on
  other threads; its edges are reversed afterwards so both outputs share the
  root-to-sink orientation.

Node sets are bitmasks over node ids held in Python ints, which have no
fixed width, so the one limit on a meta-graph's size is ``node_cap``, the
number of states either construction may create.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ValidationError
from .graph import FlowGraph

DEFAULT_NODE_CAP = 10**6
DEFAULT_PATH_CAP = 10**6


def _bits(mask: int) -> Iterator[int]:
    """Set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class TSortNode:
    """Meta-graph state: the active flow-graph node plus a node-set mark.

    In the forward variant the mark is the set of nodes visited strictly
    before the active one; in the backward variant it is the front. The
    active node is never part of its own mark.
    """

    active: int
    mark: int  # bitmask over flow-graph node ids

    def mark_ids(self) -> tuple[int, ...]:
        return tuple(_bits(self.mark))


@dataclass(frozen=True, eq=False)
class DPPlan:
    """A meta-graph laid out for the grounding DPs; every array is read-only.

    Edges are sorted by (destination, source), so each destination's incoming
    edges form one segment: it starts at ``seg_starts`` and belongs to
    ``seg_dst``; ``eseg`` maps each edge to its segment. ``finals`` precede
    the sink.
    """

    active: np.ndarray  # (S,) int64
    virtual: np.ndarray  # (S,) bool
    esrc: np.ndarray  # (E,) int64
    edst: np.ndarray  # (E,) int64
    seg_starts: np.ndarray
    seg_dst: np.ndarray
    eseg: np.ndarray  # (E,) int64
    finals: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class TSortGraph:
    """DAG whose root-to-sink paths enumerate the origin graph's topological sorts."""

    nodes: tuple[TSortNode, ...]
    edges: tuple[tuple[int, int], ...]
    root: int
    sink: int
    origin: FlowGraph
    variant: str  # "forward" | "backward"

    def num_nodes(self) -> int:
        """Meta-graph size, without the terminal state for the virtual sink.

        That state is bookkeeping (it matches no observation and exists so
        the graph has a single sink); leaving it out makes model-problem
        sizes equal the closed-form count.
        """
        return len(self.nodes) - 1

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.edges:
            out[u].append(v)
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.edges:
            inc[v].append(u)
        return tuple(tuple(sorted(p)) for p in inc)

    @cached_property
    def plan(self) -> DPPlan:
        """Compiled layout shared by the hard and soft grounding DPs."""
        active = np.array([n.active for n in self.nodes], dtype=np.int64)
        edges = np.array(sorted(self.edges, key=lambda e: (e[1], e[0])), dtype=np.int64)
        edst = edges[:, 1]
        seg_starts = np.flatnonzero(np.r_[True, edst[1:] != edst[:-1]])
        arrays = (
            active,
            np.array([n.is_virtual for n in self.origin.nodes])[active],
            edges[:, 0],
            edst,
            seg_starts,
            edst[seg_starts],
            np.cumsum(np.r_[False, edst[1:] != edst[:-1]]),
        )
        for arr in arrays:
            arr.flags.writeable = False
        return DPPlan(*arrays, finals=self.predecessors[self.sink])

    # -- canonical form ----------------------------------------------------

    def canonical_key(self, index: int) -> tuple[int, int]:
        """(active, set of origin nodes emitted before it), variant-independent."""
        node = self.nodes[index]
        if self.variant == "forward":
            return node.active, node.mark
        g = self.origin
        visited = g.ancestor_masks[node.active]
        for f in _bits(node.mark):
            visited |= g.ancestor_masks[f] | (1 << f)
        return node.active, visited

    def canonical_nodes(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.canonical_key(i) for i in range(len(self.nodes)))

    def canonical_edges(self) -> frozenset[tuple[tuple[int, int], tuple[int, int]]]:
        return frozenset(
            (self.canonical_key(u), self.canonical_key(v)) for u, v in self.edges
        )

    # -- export ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        g = self.origin
        return {
            "nodes": [
                {
                    "id": i,
                    "label": g.nodes[n.active].label,
                    "active": n.active,
                    "mark": list(n.mark_ids()),
                    "virtual": g.nodes[n.active].is_virtual,
                }
                for i, n in enumerate(self.nodes)
            ],
            "edges": [list(e) for e in sorted(self.edges)],
            "root": self.root,
            "sink": self.sink,
            "variant": self.variant,
        }

    def to_dot(self) -> str:
        g = self.origin
        lines = ["digraph tsort {"]
        for i, n in enumerate(self.nodes):
            mark = ",".join(str(m) for m in n.mark_ids())
            if g.nodes[n.active].is_virtual:
                name = "root" if n.active == g.root_id else "sink"
                lines.append(f'  s{i} [label="{name}" shape=diamond];')
            else:
                lines.append(f'  s{i} [label="({n.active}, {{{mark}}})"];')
        for u, v in sorted(self.edges):
            lines.append(f"  s{u} -> s{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _check_buildable(g: FlowGraph) -> None:
    if not g.is_normalized:
        raise ValidationError("meta-graph construction requires a normalized graph")


def build_tsort_forward(g: FlowGraph, node_cap: int = DEFAULT_NODE_CAP) -> TSortGraph:
    """Forward construction: BFS over the augmented graph, merging on visited sets.

    From a state (v, P) the next node must be a direct successor of v or
    incomparable to it, must be unvisited, and must have all of its direct
    predecessors visited already (the prefix conforms to the flow graph).
    States reached with identical (active, visited) merge.
    """
    _check_buildable(g)
    parents_mask = [0] * g.n_nodes
    children_mask = [0] * g.n_nodes
    for u, v in g.edges:
        parents_mask[v] |= 1 << u
        children_mask[u] |= 1 << v
    cand_mask = [children_mask[v] | g.incomparable(v) for v in range(g.n_nodes)]

    root_state = (g.root_id, 0)
    index: dict[tuple[int, int], int] = {root_state: 0}
    states: list[tuple[int, int]] = [root_state]
    edges: list[tuple[int, int]] = []
    queue: deque[tuple[int, int]] = deque([root_state])

    while queue:
        v, seen = queue.popleft()
        src = index[(v, seen)]
        seen_next = seen | (1 << v)
        for v_d in _bits(cand_mask[v] & ~seen_next):
            if parents_mask[v_d] & ~seen_next:
                continue  # some predecessor of v_d not visited yet
            state = (v_d, seen_next)
            dst = index.get(state)
            if dst is None:
                if len(states) >= node_cap:
                    raise CapExceededError(
                        f"meta-graph exceeds the {node_cap}-node cap"
                    )
                dst = len(states)
                index[state] = dst
                states.append(state)
                queue.append(state)
            edges.append((src, dst))

    sink_state = (g.sink_id, ((1 << g.n_nodes) - 1) & ~(1 << g.sink_id))
    if sink_state not in index:
        raise ValidationError("meta-graph never reached the sink")  # pragma: no cover
    return TSortGraph(
        nodes=tuple(TSortNode(a, m) for a, m in states),
        edges=tuple(edges),
        root=0,
        sink=index[sink_state],
        origin=g,
        variant="forward",
    )


def build_tsort_backward(g: FlowGraph, node_cap: int = DEFAULT_NODE_CAP) -> TSortGraph:
    """Backward construction: BFS from the sink, keying states on (active, front).

    The candidate pool after (v, F) is ``predecessors(v) | F``; picking
    ``v_new`` leaves the rest as the new front, and the pick is feasible only
    when ``v_new`` is not an ancestor of any remaining front node (those are
    emitted later in the reverse walk, i.e. earlier in the sort). Edges are
    collected in reverse and flipped at the end.
    """
    _check_buildable(g)
    parents_mask = [0] * g.n_nodes
    for u, v in g.edges:
        parents_mask[v] |= 1 << u
    desc = g.descendant_masks

    start = (g.sink_id, 0)
    index: dict[tuple[int, int], int] = {start: 0}
    states: list[tuple[int, int]] = [start]
    back_edges: list[tuple[int, int]] = []
    queue: deque[tuple[int, int]] = deque([start])

    while queue:
        v, front = queue.popleft()
        src = index[(v, front)]
        pool = parents_mask[v] | front
        for v_new in _bits(pool):
            front_new = pool & ~(1 << v_new)
            if desc[v_new] & front_new:
                continue  # v_new must precede some front node in any sort
            state = (v_new, front_new)
            dst = index.get(state)
            if dst is None:
                if len(states) >= node_cap:
                    raise CapExceededError(
                        f"meta-graph exceeds the {node_cap}-node cap"
                    )
                dst = len(states)
                index[state] = dst
                states.append(state)
                queue.append(state)
            back_edges.append((src, dst))

    root_state = (g.root_id, 0)
    if root_state not in index:
        raise ValidationError("meta-graph never reached the root")  # pragma: no cover
    return TSortGraph(
        nodes=tuple(TSortNode(a, m) for a, m in states),
        edges=tuple((v, u) for u, v in back_edges),
        root=index[root_state],
        sink=0,
        origin=g,
        variant="backward",
    )


def enumerate_paths(
    s: TSortGraph, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[int, ...]]:
    """Root-to-sink paths projected to sequences of step ids (virtuals stripped)."""
    g = s.origin
    succ = s.successors
    results: list[tuple[int, ...]] = []
    path: list[int] = []

    def walk(i: int) -> None:
        node = s.nodes[i]
        keep = not g.nodes[node.active].is_virtual
        if keep:
            path.append(node.active)
        if i == s.sink:
            if len(results) >= cap:
                raise CapExceededError(f"more than {cap} paths in the meta-graph")
            results.append(tuple(path))
        else:
            for j in succ[i]:
                walk(j)
        if keep:
            path.pop()

    walk(s.root)
    return results


def isomorphic(a: TSortGraph, b: TSortGraph) -> bool:
    """Structural equality after mapping both variants to canonical keys."""
    return (
        a.canonical_nodes() == b.canonical_nodes()
        and a.canonical_edges() == b.canonical_edges()
    )
