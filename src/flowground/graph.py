"""Procedure flow graphs: representation, validation, normalization, enumeration.

A flow graph is a DAG whose nodes are procedure steps; an edge (u, v) means
step u must complete before step v starts. After :func:`normalize`, the graph
carries exactly one virtual root and one virtual sink so that every traversal
has unique endpoints. Virtual nodes never correspond to observations.

Node-id conventions: ids are dense and 0-based. Step nodes come first
(0..K-1), the virtual root and sink are appended by :func:`normalize`;
validation rejects a virtual node below a step's id. Step id i is row i of
a cost matrix.
Parsed documents may use arbitrary unique integer ids; they are remapped to
the dense convention (ascending original order) and the original id is kept
on each node as ``source_id``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, ValidationError

DEFAULT_SORT_CAP = 10**6


@dataclass(frozen=True)
class StepNode:
    """One node of a flow graph.

    ``label`` is free text (empty for virtual nodes). ``source_id`` preserves
    the id the node had in an external document, when it differs from the
    dense internal id.
    """

    id: int
    label: str = ""
    is_virtual: bool = False
    source_id: int | None = None

    @property
    def external_id(self) -> int:
        return self.id if self.source_id is None else self.source_id


@dataclass(frozen=True)
class ThreadSpec:
    """Sizes n_1..n_T of the linearly ordered threads of a model problem."""

    thread_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.thread_sizes) < 1:
            raise ValidationError("thread spec needs at least one thread")
        if any(n < 1 for n in self.thread_sizes):
            raise ValidationError("every thread must contain at least one step")

    @property
    def n_threads(self) -> int:
        return len(self.thread_sizes)

    @property
    def n_steps(self) -> int:
        return sum(self.thread_sizes)

    @classmethod
    def parse(cls, text: str) -> "ThreadSpec":
        try:
            sizes = tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ValidationError(f"bad thread spec {text!r}: {exc}") from None
        return cls(sizes)


@dataclass(frozen=True)
class FlowGraph:
    """Immutable DAG over procedure steps.

    ``root_id``/``sink_id`` are None until :func:`normalize` attaches the
    virtual endpoints. All derived adjacency/reachability structures are
    cached lazily; instances are safe to share across threads.
    """

    nodes: tuple[StepNode, ...]
    edges: frozenset[tuple[int, int]]
    root_id: int | None = None
    sink_id: int | None = None

    def __post_init__(self):
        _validate(self)

    # -- basic accessors -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def is_normalized(self) -> bool:
        return self.root_id is not None and self.sink_id is not None

    @cached_property
    def step_ids(self) -> tuple[int, ...]:
        """Ids of non-virtual nodes, ascending."""
        return tuple(n.id for n in self.nodes if not n.is_virtual)

    @property
    def n_steps(self) -> int:
        return len(self.step_ids)

    def _check_id(self, node_id: int) -> None:
        if not (0 <= node_id < len(self.nodes)):
            raise ValidationError(f"unknown node id {node_id}")

    # -- adjacency and reachability --------------------------------------

    @cached_property
    def _out(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.edges:
            adj[u].append(v)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _in(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.edges:
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def predecessors(self, node_id: int) -> frozenset[int]:
        """Immediate predecessors of a node."""
        self._check_id(node_id)
        return frozenset(self._in[node_id])

    def descendants(self, node_id: int) -> frozenset[int]:
        """Immediate successors of a node."""
        self._check_id(node_id)
        return frozenset(self._out[node_id])

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """One deterministic topological order over all nodes (lowest id first)."""
        order, leftover = _kahn(len(self.nodes), self._out, self._in)
        if leftover:
            raise ValidationError("graph has a cycle")  # unreachable post-validation
        return tuple(order)

    @cached_property
    def ancestor_masks(self) -> tuple[int, ...]:
        """ancestor_masks[v] = bitmask of the proper ancestors of v."""
        masks = [0] * len(self.nodes)
        for v in self.topo_order:
            acc = 0
            for u in self._in[v]:
                acc |= masks[u] | (1 << u)
            masks[v] = acc
        return tuple(masks)

    @cached_property
    def descendant_masks(self) -> tuple[int, ...]:
        """descendant_masks[v] = bitmask of the proper descendants of v."""
        masks = [0] * len(self.nodes)
        for v in reversed(self.topo_order):
            acc = 0
            for w in self._out[v]:
                acc |= masks[w] | (1 << w)
            masks[v] = acc
        return tuple(masks)

    def is_ancestor(self, u: int, v: int) -> bool:
        """True iff there is a directed path u -> ... -> v (proper ancestry)."""
        self._check_id(u)
        self._check_id(v)
        return bool(self.ancestor_masks[v] >> u & 1)

    def incomparable(self, v: int) -> int:
        """Bitmask of nodes unordered relative to v (neither ancestor direction)."""
        self._check_id(v)
        all_mask = (1 << len(self.nodes)) - 1
        related = self.ancestor_masks[v] | self.descendant_masks[v] | (1 << v)
        return all_mask & ~related

    # -- export -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Serializable form in the external schema (virtual nodes omitted)."""
        return {
            "nodes": [
                {"id": n.external_id, "label": n.label}
                for n in self.nodes
                if not n.is_virtual
            ],
            "edges": sorted(
                [self.nodes[u].external_id, self.nodes[v].external_id]
                for u, v in self.edges
                if not (self.nodes[u].is_virtual or self.nodes[v].is_virtual)
            ),
        }

    def to_dot(self) -> str:
        lines = ["digraph flowgraph {"]
        for n in self.nodes:
            if n.is_virtual:
                name = "root" if n.id == self.root_id else "sink"
                lines.append(f'  n{n.id} [label="{name}" shape=point];')
            else:
                label = n.label.replace('"', '\\"')
                lines.append(f'  n{n.id} [label="{n.external_id}: {label}"];')
        for u, v in sorted(self.edges):
            lines.append(f"  n{u} -> n{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _kahn(
    n: int, out: Sequence[Sequence[int]], inc: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """Kahn's algorithm; returns (order, nodes left on cycles)."""
    indeg = [len(inc[v]) for v in range(n)]
    ready = sorted(v for v in range(n) if indeg[v] == 0)
    order: list[int] = []
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    leftover = [v for v in range(n) if indeg[v] > 0]
    return order, leftover


def _find_cycle(n: int, out: Sequence[Sequence[int]], candidates: Iterable[int]) -> list[int]:
    """Return one directed cycle through the candidate nodes."""
    cand = set(candidates)
    color = {v: 0 for v in cand}  # 0 new, 1 on stack, 2 done
    parent: dict[int, int] = {}

    for start in sorted(cand):
        if color[start] != 0:
            continue
        stack = [(start, iter(out[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in cand:
                    continue
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [w, v]
                    cur = v
                    while cur != w:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle[:-1]
            if not advanced:
                color[v] = 2
                stack.pop()
    return []  # pragma: no cover - callers guarantee a cycle exists


def _validate(g: FlowGraph) -> None:
    n = len(g.nodes)
    if n == 0:
        raise ValidationError("graph has no nodes")
    ids = [node.id for node in g.nodes]
    if ids != list(range(n)):
        raise ValidationError("node ids must be dense and 0-based in list order")

    out: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) references an unknown node")
        if u == v:
            raise ValidationError(f"self-loop on node {u}")
        out[u].append(v)
        inc[v].append(u)

    order, leftover = _kahn(n, out, inc)
    if leftover:
        cycle = _find_cycle(n, out, leftover)
        pretty = " -> ".join(str(v) for v in cycle + cycle[:1])
        raise ValidationError(f"graph contains a cycle: {pretty}")

    for vid, is_root in ((g.root_id, True), (g.sink_id, False)):
        if vid is None:
            continue
        if not (0 <= vid < n):
            raise ValidationError(f"virtual endpoint id {vid} unknown")
        if not g.nodes[vid].is_virtual:
            raise ValidationError(f"node {vid} marked as endpoint but not virtual")
        deg = len(inc[vid]) if is_root else len(out[vid])
        if deg != 0:
            kind = "root" if is_root else "sink"
            raise ValidationError(f"virtual {kind} must be a graph {kind}")

    if g.is_normalized and n > 1:
        # Every node must sit between root and sink.
        reach_root = _reachable(g.root_id, out)
        reach_sink = _reachable(g.sink_id, inc)
        missing = set(range(n)) - (reach_root | {g.root_id})
        if missing:
            raise ValidationError(f"nodes unreachable from root: {sorted(missing)}")
        missing = set(range(n)) - (reach_sink | {g.sink_id})
        if missing:
            raise ValidationError(f"nodes that cannot reach the sink: {sorted(missing)}")

    virtuals = [node.id for node in g.nodes if node.is_virtual]
    if set(virtuals) - {g.root_id, g.sink_id}:
        raise ValidationError("virtual nodes other than the declared root/sink")
    if virtuals != list(range(n - len(virtuals), n)):
        raise ValidationError("virtual nodes must take the highest ids")


def _reachable(start: int, adj: Sequence[Sequence[int]]) -> set[int]:
    seen: set[int] = set()
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# construction


def parse_flow_graph(document: str | dict) -> FlowGraph:
    """Parse the external JSON schema into a validated, un-normalized graph.

    Schema: ``{"nodes": [{"id": int, "label": str}], "edges": [[int, int]]}``.
    Arbitrary unique integer ids are accepted and remapped to dense 0-based
    ids (ascending); labels are preserved verbatim.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ValidationError("flow-graph document must be a JSON object")
    if "nodes" not in document or "edges" not in document:
        raise ValidationError('flow-graph document needs "nodes" and "edges"')

    raw_nodes = document["nodes"]
    raw_edges = document["edges"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValidationError('"nodes" must be a non-empty list')
    if not isinstance(raw_edges, list):
        raise ValidationError('"edges" must be a list')

    seen: dict[int, str] = {}
    for entry in raw_nodes:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValidationError(f"bad node entry {entry!r}")
        nid = entry["id"]
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise ValidationError(f"node id {nid!r} is not an integer")
        if nid < 0:
            raise ValidationError(f"node id {nid} is negative")
        if nid in seen:
            raise ValidationError(f"duplicate node id {nid}")
        label = entry.get("label", "")
        if not isinstance(label, str):
            raise ValidationError(f"label of node {nid} is not a string")
        seen[nid] = label

    remap = {src: dense for dense, src in enumerate(sorted(seen))}
    nodes = tuple(
        StepNode(id=remap[src], label=seen[src], source_id=src) for src in sorted(seen)
    )

    edges: set[tuple[int, int]] = set()
    for entry in raw_edges:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ValidationError(f"bad edge entry {entry!r}")
        u, v = entry
        if u not in remap or v not in remap:
            raise ValidationError(f"edge ({u}, {v}) references an unknown node")
        pair = (remap[u], remap[v])
        if pair in edges:
            raise ValidationError(f"duplicate edge ({u}, {v})")
        edges.add(pair)

    return FlowGraph(nodes=nodes, edges=frozenset(edges))


def normalize(g: FlowGraph) -> FlowGraph:
    """Attach a virtual root feeding all sources and a virtual sink draining all sinks.

    Idempotent: a graph that already has both endpoints is returned unchanged.
    """
    if g.is_normalized:
        return g
    if g.root_id is not None or g.sink_id is not None:
        raise ValidationError("graph has only one virtual endpoint; cannot normalize")

    n = len(g.nodes)
    sources = [v for v in range(n) if not g._in[v]]
    sinks = [v for v in range(n) if not g._out[v]]
    root, sink = n, n + 1
    nodes = g.nodes + (
        StepNode(id=root, is_virtual=True),
        StepNode(id=sink, is_virtual=True),
    )
    edges = set(g.edges)
    edges.update((root, s) for s in sources)
    edges.update((s, sink) for s in sinks)
    return FlowGraph(nodes=nodes, edges=frozenset(edges), root_id=root, sink_id=sink)


def model_problem(spec: ThreadSpec) -> FlowGraph:
    """Normalized graph of T disjoint chains between virtual root and sink.

    Step ids run thread by thread: thread t occupies a contiguous id block,
    ordered within the thread.
    """
    edges: set[tuple[int, int]] = set()
    nid = 0
    for size in spec.thread_sizes:
        for k in range(size - 1):
            edges.add((nid + k, nid + k + 1))
        nid += size
    nodes = tuple(StepNode(id=i, label=f"step {i}") for i in range(spec.n_steps))
    return normalize(FlowGraph(nodes=nodes, edges=frozenset(edges)))


# ---------------------------------------------------------------------------
# enumeration and closed forms


def enumerate_topological_sorts(
    g: FlowGraph, cap: int = DEFAULT_SORT_CAP
) -> list[tuple[int, ...]]:
    """All topological sorts of the step nodes, in lexicographic order.

    Virtual endpoints are ignored (they constrain nothing among steps).
    Raises :class:`CapExceededError` once more than ``cap`` sorts exist,
    signalling the caller to switch to the meta-graph path.
    """
    steps = g.step_ids
    step_set = set(steps)
    out = {v: [w for w in g._out[v] if w in step_set] for v in steps}
    indeg = {v: sum(1 for u in g._in[v] if u in step_set) for v in steps}

    results: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def backtrack() -> None:
        if len(prefix) == len(steps):
            if len(results) >= cap:
                raise CapExceededError(
                    f"more than {cap} topological sorts; use the meta-graph path"
                )
            results.append(tuple(prefix))
            return
        for v in steps:  # ascending id -> lexicographic output
            if indeg[v] == 0 and v not in on_path:
                on_path.add(v)
                prefix.append(v)
                for w in out[v]:
                    indeg[w] -= 1
                backtrack()
                for w in out[v]:
                    indeg[w] += 1
                prefix.pop()
                on_path.remove(v)

    on_path: set[int] = set()
    backtrack()
    return results


def count_tsorts_closed_form(spec: ThreadSpec) -> int:
    """Number of topological sorts of the model problem: n! / (n_1! ... n_T!)."""
    count = math.factorial(spec.n_steps)
    for size in spec.thread_sizes:
        count //= math.factorial(size)
    return count


def count_tsort_nodes_closed_form(spec: ThreadSpec) -> int:
    """Meta-graph size of the model problem: 1 + sum_t [ n_t * prod_{j!=t} (n_j + 1) ]."""
    sizes = spec.thread_sizes
    total = 1
    for t, n_t in enumerate(sizes):
        prod = 1
        for j, n_j in enumerate(sizes):
            if j != t:
                prod *= n_j + 1
        total += n_t * prod
    return total


def complexity_ratio(spec: ThreadSpec) -> float:
    """Predicted brute-force/meta-graph work ratio for a model problem.

    rho = N_sorts * |V_G| / (T * |V_S|), where |V_G| counts step nodes only
    (virtual endpoints never match observations; documented convention).
    """
    n_sorts = count_tsorts_closed_form(spec)
    n_meta = count_tsort_nodes_closed_form(spec)
    return n_sorts * spec.n_steps / (spec.n_threads * n_meta)


def iter_thread_specs(max_steps: int, max_threads: int) -> Iterator[ThreadSpec]:
    """All thread specs (ordered compositions) with n <= max_steps, T <= max_threads."""

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for n in range(1, max_steps + 1):
        for t in range(1, min(max_threads, n) + 1):
            for sizes in compositions(n, t):
                yield ThreadSpec(sizes)
