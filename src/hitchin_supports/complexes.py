"""Simplicial complexes attached to a connected multigraph: the cographic
(bond-matroid independence) complex, the non-spanning complex, and the order
complex of the proper part of the partition lattice.

Faces are stored as sorted tuples of ground-set indices, sorted
lexicographically within each dimension; the empty face is always present so
that reduced homology and the degree-zero term of the monodromy complexes line
up (a k-simplex corresponds to a cardinality-(k+1) edge subset).
"""

from __future__ import annotations

from dataclasses import dataclass
from .multigraph import GraphError, Multigraph

# Admits the order complex of Pi_7 (262,759 faces) and refuses the cographic
# complex of K_7 (1,866,256 faces), which grows past 2 GB.
DEFAULT_FACE_LIMIT = 500_000


@dataclass(frozen=True)
class FaceComplex:
    """An abstract simplicial complex presented by an explicit face list."""

    ground_set: tuple
    faces_by_dim: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, starting with 1 for the empty face."""
        return (1,) + tuple(len(fs) for fs in self.faces_by_dim)

    def verify_downward_closed(self) -> bool:
        for d in range(1, len(self.faces_by_dim)):
            below = set(self.faces_by_dim[d - 1])
            for face in self.faces_by_dim[d]:
                for i in range(len(face)):
                    if face[:i] + face[i + 1 :] not in below:
                        return False
        return True


# ---------------------------------------------------------------------------
# graph complexes
# ---------------------------------------------------------------------------


def _grow_by_levels(children: "callable", face_limit: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Enumerate the non-empty faces of a complex, level by level.

    ``children(face)`` lists the faces that extend ``face`` by one index past
    its last, starting from the empty face.  Any face minus its last index is
    again a face, so every face is visited exactly once, and in lexicographic
    order when ``children`` lists them in increasing order.  Raises as soon as
    more than ``face_limit`` non-empty faces have been listed.
    """
    levels: list[tuple[tuple[int, ...], ...]] = []
    total = 0
    grown: list[tuple[int, ...]] = [()]
    while True:
        current: list[tuple[int, ...]] = []
        for face in grown:
            current += children(face)
            if total + len(current) > face_limit:
                raise GraphError(f"complex has more than {face_limit} faces")
        if not current:
            return tuple(levels)
        total += len(current)
        levels.append(tuple(current))
        grown = current


def _members(m: int, keeps: "callable") -> "callable":
    """``children`` of the downward-closed family on 0..m-1 that ``keeps`` tests."""
    return lambda face: [c for e in range(face[-1] + 1 if face else 0, m) if keeps(c := face + (e,))]


def cographic_complex(graph: Multigraph, face_limit: int = DEFAULT_FACE_LIMIT) -> FaceComplex:
    """Independence complex of the bond matroid: edge subsets whose removal
    keeps the graph connected."""
    if not graph.is_connected():
        raise GraphError("graph must be connected")
    labels = graph.labels()

    def keeps(subset: tuple[int, ...]) -> bool:
        return graph.is_connected(without={labels[i] for i in subset})

    return FaceComplex(labels, _grow_by_levels(_members(len(labels), keeps), face_limit))


def nonspanning_complex(graph: Multigraph, face_limit: int = DEFAULT_FACE_LIMIT) -> FaceComplex:
    """Edge subsets whose subgraph fails to connect all vertices."""
    if not graph.is_connected():
        raise GraphError("graph must be connected")
    if graph.vertex_count < 2:
        raise GraphError("non-spanning complex needs at least 2 vertices")
    labels = graph.labels()

    def keeps(subset: tuple[int, ...]) -> bool:
        return not graph.spanning_subset_connected(labels[i] for i in subset)

    return FaceComplex(labels, _grow_by_levels(_members(len(labels), keeps), face_limit))


# ---------------------------------------------------------------------------
# partition lattice order complex
# ---------------------------------------------------------------------------


def set_partitions(r: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..r} as tuples of blocks, blocks sorted by minimum."""
    parts: list[list[list[int]]] = [[]]
    for x in range(1, r + 1):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append([blk + [x] if j == i else blk for j, blk in enumerate(p)])
            grown.append(p + [[x]])
        parts = grown
    out = []
    for p in parts:
        blocks = tuple(tuple(blk) for blk in sorted(p, key=lambda b: b[0]))
        out.append(blocks)
    return out


def refines(p: tuple, q: tuple) -> bool:
    """True when every block of p sits inside a block of q (p at least as fine)."""
    where = {}
    for bi, blk in enumerate(q):
        for x in blk:
            where[x] = bi
    return all(len({where[x] for x in blk}) == 1 for blk in p)


def partition_label(blocks: tuple) -> str:
    return "|".join("".join(str(x) for x in blk) for blk in blocks)


def proper_partitions(r: int) -> list[tuple[tuple[int, ...], ...]]:
    """The partitions of {1..r} strictly between discrete and trivial, in the
    order of the ground cells of ``partition_order_complex``: finest first."""
    if r < 2:
        raise GraphError("r must be at least 2")
    proper = [p for p in set_partitions(r) if 1 < len(p) < r]
    proper.sort(key=lambda p: (r - len(p), partition_label(p)))
    return proper


def partition_order_complex(r: int, face_limit: int = DEFAULT_FACE_LIMIT) -> FaceComplex:
    """Order complex of the partitions strictly between discrete and trivial.

    Ground cells are sorted finest-first, so chains are exactly the
    index-increasing tuples of comparable cells.
    """
    proper = proper_partitions(r)
    labels = tuple(partition_label(p) for p in proper)
    n = len(proper)
    below = [
        [j for j in range(i + 1, n) if len(proper[j]) < len(proper[i]) and refines(proper[i], proper[j])]
        for i in range(n)
    ]

    def children(chain: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [chain + (j,) for j in (below[chain[-1]] if chain else range(n))]

    return FaceComplex(labels, _grow_by_levels(children, face_limit))
