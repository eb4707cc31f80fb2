"""Simplicial complexes attached to a connected multigraph: the cographic
(bond-matroid independence) complex, the non-spanning complex, and the order
complex of the proper part of the partition lattice.

Faces are stored as sorted tuples of ground-set indices, sorted
lexicographically within each dimension; the empty face is always present so
that reduced homology and the degree-zero term of the monodromy complexes line
up (a k-simplex corresponds to a cardinality-(k+1) edge subset).

Both graph complexes are read off binary matroids (Oxley, *Matroid Theory*,
sections 2.3 and 5.1).  The bond matroid M*(G) is represented over GF(2) by
the cycle space: edge e gets the bit mask of the basis cycles of
``cycle_space`` that contain it, read off its sparse column
``CycleSpaceBasis.columns[e]`` (the same columns give the CKS edge
operators), so bridges get 0 and loops a bit of their own, and a subset is a
cographic face exactly when its masks are linearly independent.  The cycle
matroid M(G) is represented by the incidence vectors ``1 << u ^ 1 << v``,
whose rank on a subset is V minus the number of components of its spanning
subgraph, so the non-spanning faces are the subsets of rank at most V - 2.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .multigraph import GraphError, Multigraph, cycle_space

# Admits the order complex of Pi_7 (262,759 faces) and refuses the cographic
# complex of K_7 (1,866,256 faces).  The faces of K_7 alone fit in under
# 300 MB; its boundary maps are what grow past 2 GB.
DEFAULT_FACE_LIMIT = 500_000


class FaceComplex(NamedTuple):
    """An abstract simplicial complex presented by an explicit face list;
    ``masks_by_dim[d][j]`` is the bit mask of ``faces_by_dim[d][j]``."""

    ground_set: tuple
    faces_by_dim: tuple[tuple[tuple[int, ...], ...], ...]
    masks_by_dim: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, starting with 1 for the empty face."""
        return (1,) + tuple(len(fs) for fs in self.faces_by_dim)


# ---------------------------------------------------------------------------
# face enumeration and the graph complexes
# ---------------------------------------------------------------------------


def _depth_first(
    below, vectors, face_limit: int, *, max_rank: int, max_nullity: int
) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], tuple[tuple[int, ...], ...]]:
    """Enumerate the non-empty faces of a complex on ground cells 0..n-1, and
    their bit masks (a child's is its parent's OR the new cell's bit).

    ``below[i]`` lists, in increasing order, the cells that may follow cell
    ``i`` in a face; the faces start from the empty face with any cell.  Each
    cell has a GF(2) vector (an int bit mask), and a face is kept when its
    vectors span rank at most ``max_rank`` with nullity (size minus rank) at
    most ``max_nullity``.  Rank and nullity only grow with the face, so the
    family is downward closed and growing every face by the cells past its
    last visits each face once.  Every face carries the echelon basis of its
    vectors as ``(lowest set bit, vector)`` pairs in insertion order: a later
    vector is reduced against the earlier ones, so one pass in that order
    reduces a new vector.  Faces are listed depth first with children in
    increasing order, so each dimension comes out in lexicographic order.
    A child is pushed only when it can grow: some cell may follow its last
    (``below[e]`` is non-empty) and it is not both full (rank ``max_rank``)
    and saturated (nullity ``max_nullity``), as no cell extends such a face.
    Raises as soon as more than ``face_limit`` non-empty faces have been listed.
    """
    levels: list[list[tuple[int, ...]]] = []
    mask_levels: list[list[int]] = []
    room = face_limit
    stack = [((), 0, (), range(len(vectors)))]
    while stack:
        face, mask, basis, candidates = stack.pop()
        rank = len(basis)
        nullity = len(face) - rank
        full = rank == max_rank
        saturated = nullity == max_nullity
        # whether a child of higher rank, or of higher nullity, can grow
        rank_child_grows = not saturated or rank + 1 < max_rank
        null_child_grows = not full or nullity + 1 < max_nullity
        if len(levels) == len(face):
            levels.append([])
            mask_levels.append([])
        level = levels[len(face)]
        level_masks = mask_levels[len(face)]
        grown = []
        for e in candidates:
            w = vectors[e]
            for low, b in basis:
                if w & low:
                    w ^= b
            if w:
                if full:
                    continue
                child_basis = basis + ((w & -w, w),)
                grows = rank_child_grows
            elif saturated:
                continue
            else:
                child_basis = basis
                grows = null_child_grows
            child = face + (e,)
            child_mask = mask | 1 << e
            level.append(child)
            level_masks.append(child_mask)
            room -= 1
            if room < 0:
                raise GraphError(f"complex has more than {face_limit} faces")
            if grows and below[e]:
                grown.append((child, child_mask, child_basis, below[e]))
        stack += reversed(grown)
    if not levels[-1]:  # no face of the largest size had a child
        del levels[-1], mask_levels[-1]
    return tuple(map(tuple, levels)), tuple(map(tuple, mask_levels))


def _refuse_above(face_limit: int, lower_bound: int) -> None:
    """Refuse a complex before anything is enumerated when a lower bound on
    its non-empty faces already exceeds ``face_limit``."""
    if lower_bound > face_limit:
        raise GraphError(f"complex has more than {face_limit} faces")


def _later(m: int) -> list[range]:
    return [range(e + 1, m) for e in range(m)]


def cographic_complex(graph: Multigraph, face_limit: int = DEFAULT_FACE_LIMIT) -> FaceComplex:
    """Independence complex of the bond matroid: edge subsets whose removal
    keeps the graph connected.

    The complement of a spanning tree, δ = |E| - V + 1 edges, is a basis of
    the bond matroid, so its 2**δ - 1 non-empty subsets are faces; a graph
    with more than the face limit of them is refused before any mask is built.
    """
    if not graph.is_connected():
        raise GraphError("graph must be connected")
    _refuse_above(face_limit, (1 << len(graph.edges) - graph.vertex_count + 1) - 1)
    labels = graph.labels()
    basis = cycle_space(graph)
    vectors = [sum(1 << j for j in basis.columns[lab]) for lab in labels]
    faces, masks = _depth_first(_later(len(labels)), vectors, face_limit, max_rank=basis.rank, max_nullity=0)
    return FaceComplex(labels, faces, masks)


def nonspanning_complex(graph: Multigraph, face_limit: int = DEFAULT_FACE_LIMIT) -> FaceComplex:
    """Edge subsets whose subgraph fails to connect all vertices.

    Fewer than V - 1 edges connect no V vertices, so the 2**(V-1) - 2
    non-empty proper subsets of a spanning tree are faces; a graph with more
    than the face limit of them is refused before anything is enumerated.
    """
    if not graph.is_connected():
        raise GraphError("graph must be connected")
    if graph.vertex_count < 2:
        raise GraphError("non-spanning complex needs at least 2 vertices")
    _refuse_above(face_limit, (1 << graph.vertex_count - 1) - 2)
    labels = graph.labels()
    vectors = [1 << u ^ 1 << v for u, v, _ in sorted(graph.edges, key=lambda e: e[2])]
    m = len(labels)
    faces, masks = _depth_first(_later(m), vectors, face_limit, max_rank=graph.vertex_count - 2, max_nullity=m)
    return FaceComplex(labels, faces, masks)


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
    index-increasing tuples of comparable cells.  For r >= 3 each maximal
    chain of Pi_r is a face, and there are prod C(j, 2), j = 2..r, of them
    (two of j blocks merge at each step); the product is taken term by term
    and the complex refused, before any partition is listed, as soon as it
    passes the face limit.
    """
    chains = 1  # C(2, 2); Pi_2 has no faces, so no bound below r = 3
    for j in range(3, r + 1):
        chains *= j * (j - 1) // 2
        _refuse_above(face_limit, chains)
    proper = proper_partitions(r)
    labels = tuple(partition_label(p) for p in proper)
    n = len(proper)
    return FaceComplex(labels, *_depth_first(_coarser(proper), [0] * n, face_limit, max_rank=0, max_nullity=n))


def _coarser(proper: list) -> list[list[int]]:
    """For each partition of a finest-first list, the later partitions that
    it refines, in increasing order.

    Each partition gets the bit mask of its pairs: the x < y that share one of
    its blocks, pair (x, y) at bit y (y - 1) / 2 + x, injective for every r
    (blocks are sorted, so ``combinations`` yields x < y).  p refines q
    exactly when every pair of p is a pair of q, one mask operation.  Distinct
    partitions with nested pairs differ in block count, so each later q that
    p refines is strictly coarser and no block count is compared.
    """
    pairs = [sum(1 << y * (y - 1) // 2 + x for blk in p for x, y in combinations(blk, 2)) for p in proper]
    return [[j for j in range(i + 1, len(proper)) if not mask & ~pairs[j]] for i, mask in enumerate(pairs)]
