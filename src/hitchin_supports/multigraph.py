"""Multigraphs with stable edge labels, dual graphs of spectral-curve strata,
and a cycle basis with its transpose, read off a spanning forest.

Vertices are integers ``0 .. vertex_count-1``.  Edges carry distinct integer
labels that survive edge removal and doubling, so parallel edges and loops
stay individually addressable.  Every edge is stored with the canonical
orientation ``u -> v`` where ``u <= v``; loops keep their single endpoint
twice.  No operation changes a graph value in place; all are pure functions.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, NamedTuple


class GraphError(ValueError):
    """Malformed graph data or an unknown edge label."""


def _find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving its path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _component_count(vertex_count: int, pairs: Iterable[tuple[int, int]]) -> int:
    """Components of the graph on ``vertex_count`` vertices with these edges."""
    parent = list(range(vertex_count))
    count = vertex_count
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


class Multigraph:
    """An undirected multigraph given by a labelled edge list.

    ``edges`` is a tuple of ``(u, v, label)`` with ``u <= v``.  Labels are
    distinct integers in no particular range; loaders assign ``0..m-1`` by
    position.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]]):
        if vertex_count < 0:
            raise GraphError("vertex_count must be non-negative")
        normalized = []
        seen = set()
        for u, v, label in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge endpoint out of range: {(u, v, label)}")
            if label in seen:
                raise GraphError(f"duplicate edge label {label}")
            seen.add(label)
            if u > v:
                u, v = v, u
            normalized.append((u, v, label))
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int, int], ...] = tuple(normalized)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Multigraph:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    # -- basic accessors ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(e[2] for e in self.edges))

    def edge_classes(self) -> dict[tuple[int, int], list[int]]:
        """Parallel classes: unordered endpoint pair -> labels in sorted order."""
        classes: dict[tuple[int, int], list[int]] = {}
        for u, v, lab in self.edges:
            classes.setdefault((u, v), []).append(lab)
        for labs in classes.values():
            labs.sort()
        return classes

    # -- connectivity ---------------------------------------------------------

    def component_count(self, *, without: frozenset | set = frozenset()) -> int:
        kept = ((u, v) for u, v, lab in self.edges if lab not in without)
        return _component_count(self.vertex_count, kept)

    def is_connected(self, *, without: frozenset | set = frozenset()) -> bool:
        if self.vertex_count == 0:
            return True
        return self.component_count(without=without) == 1


class HitchinPartition:
    """A partition n_1 >= ... >= n_k of n together with the base-curve genus."""

    __slots__ = ("genus", "parts")

    def __init__(self, genus: int, parts: Iterable[int]):
        parts = tuple(parts)
        if genus < 2:
            raise GraphError("genus must be at least 2")
        if not parts or any(p < 1 for p in parts):
            raise GraphError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise GraphError("parts must be non-increasing")
        self.genus = genus
        self.parts: tuple[int, ...] = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """alpha_j = number of parts equal to j."""
        alpha: dict[int, int] = {}
        for p in self.parts:
            alpha[p] = alpha.get(p, 0) + 1
        return alpha


class CycleSpaceBasis(NamedTuple):
    """A Z-basis of the cycle space, one cycle per chord of a lowest-label
    spanning forest.

    ``cycles[j]`` is a signed edge-incidence vector (label -> coefficient)
    with entry +1 on its defining chord ``chords[j]``, every entry +-1, and no
    later chord, so on the chords the basis is unitriangular with 1 on the
    diagonal.  The same numbers present the cohomology of the graph: the class
    of the dual functional of edge ``e`` in the dual basis of H^1 is the
    column ``columns[e]``, the sparse ``{j: cycles[j][e]}`` in increasing j
    with no zero entry (``{}`` for a bridge).  ``columns`` is the transpose of
    ``cycles``, with every label as a key.
    """

    forest: frozenset
    chords: tuple[int, ...]
    cycles: tuple[Mapping[int, int], ...]
    columns: Mapping[int, Mapping[int, int]]

    @property
    def rank(self) -> int:
        return len(self.chords)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def build_dual_graph(p: HitchinPartition) -> Multigraph:
    """Dual graph of a generic nodal spectral curve for the given partition.

    One vertex per part; parts i < j are joined by n_i * n_j * (2g - 2)
    parallel edges.  Labels run lexicographically in (i, j, copy index).
    """
    edges = []
    label = 0
    factor = 2 * p.genus - 2
    for i in range(p.k):
        for j in range(i + 1, p.k):
            for _ in range(p.parts[i] * p.parts[j] * factor):
                edges.append((i, j, label))
                label += 1
    return Multigraph(p.k, tuple(edges))


def delta_aff(graph: Multigraph) -> int:
    """First Betti number |E| - |V| + #components (the affine delta invariant)."""
    return graph.edge_count - graph.vertex_count + graph.component_count()


def double_edges(
    graph: Multigraph, subset: Iterable[int]
) -> tuple[Multigraph, dict[int, int]]:
    """Add one parallel copy of every edge in ``subset``.

    Returns the new graph and a map from each doubled label to its fresh copy.
    Fresh labels are consecutive, starting above the current maximum.
    """
    subset = sorted(set(subset))
    known = set(e[2] for e in graph.edges)
    for lab in subset:
        if lab not in known:
            raise GraphError(f"no such edge: {lab}")
    next_label = max(known) + 1 if known else 0
    by_label = {lab: (u, v) for u, v, lab in graph.edges}
    new_edges = list(graph.edges)
    label_map: dict[int, int] = {}
    for lab in subset:
        u, v = by_label[lab]
        new_edges.append((u, v, next_label))
        label_map[lab] = next_label
        next_label += 1
    return Multigraph(graph.vertex_count, tuple(new_edges)), label_map


def cycle_space(graph: Multigraph) -> CycleSpaceBasis:
    """One cycle per chord of the lowest-label greedy spanning forest.

    Each non-forest edge (chord) defines one cycle vector, +1 on the chord
    under its canonical orientation.  In a parallel class ``e_1 < ... < e_m``
    of non-loop edges every ``e_j`` with j >= 2 is a chord, closed by the edge
    before it: both are stored ``u -> v``, so its cycle is ``e_j - e_(j-1)``.
    Then ``e_j`` lies on the cycles of ``e_j`` and ``e_(j+1)`` only, where
    closing every chord through the forest would put all ``m - 1`` of them on
    ``e_1``.  A loop is its own cycle.  Every other chord is closed, at +-1,
    along the forest path.  Each forest component is rooted at its lowest
    vertex, and every other vertex stores one step up: its depth, its parent,
    the forest edge to it, and the sign of that edge walked towards the
    parent (+1 along the stored ``u -> v`` orientation).  A chord ``u -> v``
    is closed by the path from ``v`` back to ``u``: the two ends climb, the
    deeper one first, until they meet, with the steps from ``v``'s end taken
    at their sign and those from ``u``'s end at the opposite one.  Every edge
    of the path is stepped over exactly once, so each coefficient is written
    once and none is zero; the same step writes it into the edge's column.
    Each cycle holds its own chord and otherwise only forest edges or an
    earlier chord, so the cycles are unitriangular on the chords and form a
    Z-basis of H_1.
    """
    parent_uf = list(range(graph.vertex_count))
    by_label = {lab: (u, v) for u, v, lab in graph.edges}
    forest: list[int] = []
    chords: list[int] = []
    previous: dict[int, int] = {}  # chord -> the edge before it in its parallel class
    last: dict[tuple[int, int], int] = {}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    for lab in sorted(by_label):
        u, v = by_label[lab]
        ru, rv = _find(parent_uf, u), _find(parent_uf, v)
        if ru != rv:
            parent_uf[ru] = rv
            forest.append(lab)
            adjacency[u].append((v, lab))
            adjacency[v].append((u, lab))
        else:
            chords.append(lab)
            if u != v and (u, v) in last:
                previous[lab] = last[(u, v)]
        last[(u, v)] = lab

    up: dict[int, tuple[int, int, int, int]] = {}  # vertex -> (depth, parent, label, sign)
    for root in range(graph.vertex_count):
        if root in up:
            continue
        up[root] = (0, root, -1, 0)
        stack = [root]
        while stack:
            w = stack.pop()
            depth = up[w][0] + 1
            for x, lab in adjacency[w]:
                if x not in up:
                    up[x] = (depth, w, lab, 1 if by_label[lab] == (x, w) else -1)
                    stack.append(x)

    cycles = []
    columns: dict[int, dict[int, int]] = {lab: {} for lab in sorted(by_label)}
    for j, lab in enumerate(chords):
        u, v = by_label[lab]
        vec = {lab: 1}
        columns[lab][j] = 1
        if lab in previous:
            # both edges of a class are stored u -> v, so lab - previous is closed
            edge = previous[lab]
            vec[edge] = columns[edge][j] = -1
        else:
            while v != u:
                if up[v][0] >= up[u][0]:
                    _, v, edge, sign = up[v]
                else:
                    _, u, edge, sign = up[u]
                    sign = -sign
                vec[edge] = columns[edge][j] = sign
        cycles.append(vec)
    return CycleSpaceBasis(frozenset(forest), tuple(chords), tuple(cycles), columns)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


_GRAPH_SHAPE = '{"vertices": k, "edges": [[u, v], ...]}'


def graph_from_json(text: str) -> Multigraph:
    """Load a graph, assigning labels 0..m-1 by edge-list position.  The
    document must be an object ``{"vertices": k, "edges": [[u, v], ...]}``;
    the vertex count and the endpoints must be JSON integers, and nothing is
    coerced."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"bad graph JSON: {exc}") from exc
    if type(doc) is not dict:
        raise GraphError(f"bad graph JSON: expected an object {_GRAPH_SHAPE}")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise GraphError(f'bad graph JSON: missing key "{key}" in {_GRAPH_SHAPE}')
    vertices, pairs = doc["vertices"], doc["edges"]
    if type(vertices) is not int:
        raise GraphError(f"bad graph JSON: vertices must be an integer, not {vertices!r}")
    if type(pairs) is not list:
        raise GraphError(f"bad graph JSON: edges must be a list, not {pairs!r}")
    for i, pair in enumerate(pairs):
        if type(pair) is not list or len(pair) != 2 or any(type(x) is not int for x in pair):
            raise GraphError(f"bad graph JSON: edge {i} must be a pair of integers, not {pair!r}")
    return Multigraph(vertices, tuple((u, v, i) for i, (u, v) in enumerate(pairs)))
