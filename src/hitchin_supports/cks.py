"""Weight-graded model of the first cohomology of a degenerating spectral
curve, its per-node nilpotent monodromy operators, and the finite complexes
they generate on exterior powers.

The model is split into three blocks with fixed bases:

* ``W0``  -- graph cohomology of the dual graph, dimension delta,
* ``Gr1`` -- cohomology of the normalized components, dimension 2 * sum(g_i),
* ``Gr2`` -- graph homology (the cycle space), dimension delta.

The operator of an edge ``e`` kills ``W0`` and ``Gr1`` and sends a cycle ``t``
to the pairing value against the dual edge functional times the class of that
functional, so in the cycle basis and its dual its only block is the rank-one
outer product ``v_e v_e^T`` with ``v_e = (c_j[e])_j``, the sparse column
``CycleSpaceBasis.columns[e]`` that also gives the cographic masks (at most
two entries on an edge of a parallel class past its first); squaring the
edge coefficient makes the matrix independent of the edge orientation.
On an exterior power the operators act as commuting derivations, and for a
subset ``I`` of edges the complex

    wedge^i  ->  (+) images of N_I over |I| = 1  ->  (+) over |I| = 2 -> ...

with signed component maps ``N_r`` computes the stalk cohomology this package
reports.  Every stored basis vector is homogeneous for the ambient block
weight (W0: 0, Gr1: 1, Gr2: 2), and the differentials preserve the shifted
weight ``ambient + 2k``, so the complex splits into weight summands.  Each
summand is assembled as its own piece, started from the degree-0 wedges of
one ambient weight w; every operator lowers the ambient weight by 2
(``picard_lefschetz`` leaves each column outside Gr2 empty), so the piece
stores the maps between its non-empty degrees, none past w // 2, and its
cohomology is their ranks.  ``_assemble`` builds each degree in one pass
over its source blocks, in lexicographic order of their subsets, where the
pair (I, r) with r > max I gives the block of I + r before any other pair
reaches it.  An image N_r x is the sum of the columns N_r(e_w) of the wedges
w in x, and N_r(e_w) = 0 unless w holds an index N_r reads, so each vector
is pushed once through the operators that read its wedges, from a per-wedge
column cache the pieces of one exterior power share: ``apply_derivation``
runs once per (wedge, reading operator) pair.  Every component N_r x must
lie in its block, every basis vector in degree k must have ambient weight
``weight - 2k``, and d o d = 0 is checked on every column.  The cohomology of
each piece is ``cleared_homology`` of its terms and maps from d_0 upward, the
clearing pass that ranks boundary maps, which relies on that check.  The
highest-weight summand in exterior degree delta is the cographic cochain
complex up to a +-1 gauge, so the action of a graph automorphism on its
cohomology is the finite twist det S(sigma), sigma on the cycle space, times
the simplicial action on cographic top homology.

This is the complex of Cattani, Kaplan and Schmid ("L^2 and intersection
cohomologies for a polarizable variation of Hodge structure", Invent. Math.
87, 1987).  Since every operator kills ``Gr1`` and has image in ``W0``, the
complex on ``wedge^i H`` is the Kuenneth sum

    (+)_j  wedge^j Gr1 (x) CKS(wedge^(i-j) (W0 + W2)),

in which the j-th piece has multiplicity C(dim Gr1, j) and every weight
shifted by j.  ``build_cks`` assembles only the pieces on the model without
its middle block; the complex assembled on the whole ``wedge^i H`` stays as
the reference the tests compare the sum against.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from math import comb, prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .complexes import cographic_complex
from .homology import HomologyError, SparseIntMatrix, TopHomologyAction, cleared_homology, coords_in_rref, rref_basis
from .multigraph import (
    CycleSpaceBasis,
    GraphError,
    HitchinPartition,
    Multigraph,
    build_dual_graph,
    cycle_space,
)
from .symgroup import cell_permutation, cycle_type, sign_of_type, signed_edge_action

DEFAULT_WEDGE_LIMIT = 2_000_000


class CksError(ValueError):
    """Exterior degree out of bounds or inconsistent model data."""


# ---------------------------------------------------------------------------
# the graded model
# ---------------------------------------------------------------------------


class GradedH1Model:
    """Three-block graded model over the cycle basis of its dual graph.

    ``cycles.columns[label]`` holds the sparse coordinates of the dual edge
    functional both as a functional on the cycle space (Gr2) and as a class
    in graph cohomology (W0); the two coincide in the cycle basis and its
    dual.
    """

    def __init__(self, graph: Multigraph, component_genera: tuple[int, ...], cycles: CycleSpaceBasis):
        self.graph = graph
        self.component_genera = component_genera
        self.cycles = cycles

    @property
    def delta(self) -> int:
        return self.cycles.rank

    @property
    def gr1_dim(self) -> int:
        return 2 * sum(self.component_genera)

    @property
    def dimension(self) -> int:
        return 2 * self.delta + self.gr1_dim

    @property
    def gr2_offset(self) -> int:
        return self.delta + self.gr1_dim

    def index_weights(self) -> tuple[int, ...]:
        return (0,) * self.delta + (1,) * self.gr1_dim + (2,) * self.delta

    def labels(self) -> tuple[int, ...]:
        return self.graph.labels()

    @cached_property
    def reduced(self) -> GradedH1Model:
        """The model with the inert middle block removed (same cycle data)."""
        return GradedH1Model(self.graph, (0,) * self.graph.vertex_count, self.cycles)

    @cached_property
    def cographic_action(self) -> TopHomologyAction:
        """The simplicial action on the top homology of the cographic complex,
        which ``top_weight_action`` twists."""
        return TopHomologyAction(cographic_complex(self.graph))


def build_graded_model(p: HitchinPartition) -> GradedH1Model:
    """Model over the dual graph of the partition; component i carries genus
    n_i^2 (g - 1) + 1.  The total dimension is checked against the
    arithmetic genus: 2 (n^2 (g - 1) + 1)."""
    genera = tuple(ni * ni * (p.genus - 1) + 1 for ni in p.parts)
    model = model_from_graph(build_dual_graph(p), genera)
    if model.dimension != 2 * (p.n**2 * (p.genus - 1) + 1):
        raise CksError("model dimension disagrees with the genus formula")
    return model


def model_from_graph(graph: Multigraph, component_genera: Sequence[int]) -> GradedH1Model:
    """Model over an explicit connected dual graph with prescribed genera."""
    if len(component_genera) != graph.vertex_count:
        raise CksError("one genus per vertex required")
    if not graph.is_connected():
        raise GraphError("graph must be connected")
    return GradedH1Model(graph, tuple(int(g) for g in component_genera), cycle_space(graph))


def picard_lefschetz(model: GradedH1Model, label: int) -> SparseIntMatrix:
    """The monodromy logarithm of one node as an integer matrix on the model:
    the outer product of the edge's sparse column with itself, over its
    non-zeros only; every other column is one shared empty dict."""
    vec = model.cycles.columns.get(label)
    if vec is None:
        raise GraphError(f"no such edge: {label}")
    columns: list[dict[int, int]] = [{}] * model.dimension
    for b, vb in vec.items():
        columns[model.gr2_offset + b] = {a: va * vb for a, va in vec.items()}
    return SparseIntMatrix(model.dimension, tuple(columns))


def nilpotent_family(model: GradedH1Model) -> dict[int, SparseIntMatrix]:
    return {lab: picard_lefschetz(model, lab) for lab in model.labels()}


# ---------------------------------------------------------------------------
# exterior powers and derivation action
# ---------------------------------------------------------------------------


class WedgeBasis:
    """Sorted-tuple basis of an exterior power, indexed lexicographically."""

    def __init__(self, dimension: int, degree: int):
        self.tuples = tuple(itertools.combinations(range(dimension), degree))
        self.index = {t: i for i, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)

    def weights(self, index_weights: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(index_weights[x] for x in t) for t in self.tuples)


def apply_derivation(wedges: WedgeBasis, cols: Sequence[Mapping[int, int]], widx: int) -> dict[int, int]:
    """The column N(e_w) of one wedge w = ``wedges.tuples[widx]`` under the
    derivation extension of a model operator's columns: every factor of w in
    turn replaced by each entry of its column, with the sign that sorts the
    result.

    The operators have no diagonal (each N_e maps Gr2 into W0), so no two
    terms share a target and each entry is written once.
    """
    out: dict[int, int] = {}
    t = wedges.tuples[widx]
    index = wedges.index
    for pos, src in enumerate(t):
        col = cols[src]
        if not col:
            continue
        rest = t[:pos] + t[pos + 1 :]
        for dst, val in col.items():
            p = bisect_left(rest, dst)
            if p < len(rest) and rest[p] == dst:
                continue
            out[index[rest[:p] + (dst,) + rest[p:]]] = -val if (pos + p) % 2 else val
    return out


def _readers(model: GradedH1Model, labels: Iterable[int]) -> dict[int, list[int]]:
    """The index t -> [the r of ``labels`` whose operator
    ``picard_lefschetz(model, r)`` has a non-empty column t], in ``labels``
    order, which every exterior power of the model can share.  That operator
    fills exactly the columns gr2_offset + b for the b of the edge's cycle
    column, so the index is read off ``model.cycles.columns``, with no scan
    of an operator's columns."""
    readers: dict[int, list[int]] = {}
    offset, columns = model.gr2_offset, model.cycles.columns
    for r in labels:
        for b in columns[r]:
            readers.setdefault(offset + b, []).append(r)
    return readers


class _Derivations:
    """The derivation extensions of the operators ``ops`` on one exterior
    power.  ``readers`` is ``_readers`` of the model and ``ops``, and
    ``cache[w]`` holds the non-empty columns N_r(e_w) of the r that read an
    index of the wedge w, built by ``apply_derivation`` when a vector first
    holds w."""

    def __init__(self, wedges: WedgeBasis, ops: Mapping[int, SparseIntMatrix], readers: Mapping[int, list[int]]):
        self.wedges, self.ops, self.readers = wedges, ops, readers
        self.cache: dict[int, dict[int, dict[int, int]]] = {}

    def images(self, vec: Mapping[int, int], skip: Sequence[int] = ()) -> dict[int, dict[int, int]]:
        """``{r: N_r vec}`` for the r outside ``skip`` that read an index of a
        wedge of ``vec`` (every other r sends it to zero), in one walk of its
        wedges: coefficient-weighted sums of cached columns, with the terms
        that cancel dropped."""
        out: dict[int, dict[int, int]] = {}
        cache = self.cache
        for widx, coeff in vec.items():
            cols = cache.get(widx)
            if cols is None:
                reading = dict.fromkeys(r for t in self.wedges.tuples[widx] for r in self.readers.get(t, ()))
                derived = ((r, apply_derivation(self.wedges, self.ops[r].columns, widx)) for r in reading)
                cols = cache[widx] = {r: col for r, col in derived if col}
            for r, col in cols.items():
                if r in skip:
                    continue
                img = out.setdefault(r, {})
                for target, val in col.items():
                    s = img.get(target, 0) + coeff * val
                    if s:
                        img[target] = s
                    else:
                        del img[target]
        return out


def image_NI(model: GradedH1Model, subset: Iterable[int], exterior_degree: int) -> tuple[dict[int, int], ...]:
    """RREF basis (``rref_basis``) of the image of the composed edge
    operators on the exterior power; the empty subset returns the standard
    basis of the full space.  A wedge basis past ``DEFAULT_WEDGE_LIMIT`` is
    refused."""
    check_exterior(model.dimension, exterior_degree, DEFAULT_WEDGE_LIMIT)
    wedges = WedgeBasis(model.dimension, exterior_degree)
    order = sorted(set(subset))
    for lab in order:
        if lab not in model.cycles.columns:
            raise GraphError(f"no such edge: {lab}")
    basis = tuple({i: 1} for i in range(len(wedges)))
    for lab in order:
        ops = {lab: picard_lefschetz(model, lab)}
        derive = _Derivations(wedges, ops, _readers(model, ops))
        basis = rref_basis(derive.images(vec).get(lab, {}) for vec in basis)
        if not basis:
            return ()
    return basis


def check_exterior(dimension: int, i: int, limit: int) -> None:
    """Refuse exterior degree ``i`` of a model of this dimension when it is
    out of range or its wedge basis, C(dimension, i), passes ``limit``."""
    if i < 0 or i > dimension:
        raise CksError("exterior degree out of range")
    if comb(dimension, i) > limit:
        raise CksError("exterior degree too large")


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------


class CksBlock(NamedTuple):
    """The part of one summand Im N_I that lies in one piece, with its
    inclusion as an explicit basis: ambient wedge coordinates, RREF over the
    integers, every vector of the piece's ambient weight in that degree."""

    subset: tuple[int, ...]
    basis: tuple[dict[int, int], ...]

    def dim(self) -> int:
        return len(self.basis)


class CksPiece(NamedTuple):
    """One weight summand of the complex on one exterior power: the images
    of N_I on the span of the degree-0 wedges of ambient weight ``weight``,
    checked by ``_assemble``.  The blocks of ``terms[k]`` have ambient weight
    ``weight - 2k``.

    ``differentials[k]`` is d_k in block coordinates: its columns are the
    basis vectors of ``terms[k]`` and its rows those of ``terms[k + 1]``, each
    term's blocks concatenated in order; no map leaves the last degree.  d_k
    and the blocks of ``terms[k + 1]`` come from the same images N_r x, each
    computed once: every one lies in the block of I + r, and d_(k+1) d_k = 0
    holds on every column.
    """

    weight: int
    terms: Mapping[int, tuple[CksBlock, ...]]
    differentials: tuple[SparseIntMatrix, ...]

    def term_dimension(self, k: int) -> int:
        return sum(b.dim() for b in self.terms.get(k, ()))


class CKSComplexInstance(NamedTuple):
    """The complex on wedge^i H as a Kuenneth sum of assembled weight summands.

    Each entry of ``pieces`` is ``(j, C(gr1_dim, j), piece)``: ``piece`` is
    one weight summand of the complex on wedge^(i-j) (W0 + W2), which
    wedge^j Gr1 multiplies and whose weight it shifts by j.  The entries run
    over j, then over ascending weight.  ``terms`` lists the blocks of every
    piece once, so ``term_dimension`` and the cohomology weigh them by
    multiplicity.
    """

    model: GradedH1Model
    exterior_degree: int
    pieces: tuple[tuple[int, int, CksPiece], ...]

    @property
    def delta(self) -> int:
        return self.model.delta

    @property
    def terms(self) -> dict[int, tuple[CksBlock, ...]]:
        out: dict[int, tuple[CksBlock, ...]] = {}
        for _, _, piece in self.pieces:
            for k, blocks in piece.terms.items():
                out[k] = out.get(k, ()) + blocks
        return dict(sorted(out.items()))

    def term_dimension(self, k: int) -> int:
        return sum(mult * piece.term_dimension(k) for _, mult, piece in self.pieces)


def _insertion_sign(subset: tuple[int, ...], label: int) -> int:
    return -1 if bisect_left(subset, label) % 2 else 1


def build_cks(
    model: GradedH1Model, exterior_degree: int, wedge_limit: int = DEFAULT_WEDGE_LIMIT
) -> CKSComplexInstance:
    """Assemble the complex of images with signed edge-operator differentials.

    The guards apply to wedge^i H, but only the pieces on wedge^m (W0 + W2),
    m = i - j <= 2 delta, are assembled, once each on the reduced model,
    whose edge operators and their readers (``_readers``) are built once for
    all of them.
    """
    check_exterior(model.dimension, exterior_degree, wedge_limit)
    reduced = model.reduced
    ops = nilpotent_family(reduced)
    readers = _readers(reduced, ops)
    low = max(0, exterior_degree - reduced.dimension)
    pieces = tuple(
        (j, comb(model.gr1_dim, j), piece)
        for j in range(low, min(model.gr1_dim, exterior_degree) + 1)
        for piece in _weight_summands(reduced, exterior_degree - j, ops, readers)
    )
    return CKSComplexInstance(model, exterior_degree, pieces)


def _direct_cks(model: GradedH1Model, exterior_degree: int) -> CKSComplexInstance:
    """Reference for ``build_cks``: the complex assembled on the whole
    wedge^i H, as the sum of its weight summands (j = 0, multiplicity 1)."""
    check_exterior(model.dimension, exterior_degree, DEFAULT_WEDGE_LIMIT)
    ops = nilpotent_family(model)
    pieces = tuple((0, 1, piece) for piece in _weight_summands(model, exterior_degree, ops, _readers(model, ops)))
    return CKSComplexInstance(model, exterior_degree, pieces)


def _weight_summands(
    model: GradedH1Model,
    exterior_degree: int,
    ops: Mapping[int, SparseIntMatrix],
    readers: Mapping[int, list[int]],
) -> tuple[CksPiece, ...]:
    """The complex started from all of wedge^i of the model, one piece per
    ambient weight of the degree-0 wedges, in ascending weight, with one
    ``_Derivations`` of the model's ``nilpotent_family`` ``ops`` for all the
    pieces: the caller's index ``readers`` = ``_readers(model, ops)`` and the
    per-wedge cache ``{wedge: {r: N_r(e_wedge)}}``, filled as the pieces need
    columns and dropped on return."""
    wedges = WedgeBasis(model.dimension, exterior_degree)
    weights = wedges.weights(model.index_weights())
    starts: dict[int, list[dict[int, int]]] = {}
    for idx, w in enumerate(weights):
        starts.setdefault(w, []).append({idx: 1})
    derive = _Derivations(wedges, ops, readers)
    return tuple(_assemble(derive, weights, w, tuple(starts[w])) for w in sorted(starts))


def _assemble(
    derive: _Derivations, wedge_weights: Sequence[int], weight: int, start: tuple[dict[int, int], ...]
) -> CksPiece:
    """The images of N_I on the span of the degree-0 basis ``start``, all of
    ambient weight ``weight``, checked for the grading and for d o d = 0.

    Each degree is one pass over the source blocks in order.  For a block I,
    every basis vector x is pushed once through the operators outside I that
    read its wedges (``derive.images``), which gives every N_r x that can be
    non-zero.  Then for each operator r in ``ops`` order with a non-zero
    image: if I is empty or r > max I, the pair defines J = I + r, and its
    images span the block of J (their RREF basis, of ambient weight
    ``weight - 2(k + 1)``).  Every non-zero image, reduced into that basis
    with the insertion sign of r, fills x's column of d at the rows of J.  The
    sources are in lexicographic order of their subsets, and J - max J is the
    first of the subsets I with I + r = J, so J is defined before any other
    pair reaches it and the blocks come out sorted.  No pass starts from
    degree ``weight // 2``: each operator lowers the ambient weight by 2.
    """
    terms: dict[int, tuple[CksBlock, ...]] = {0: (CksBlock((), start),)}
    mats = []
    for k in range(weight // 2):
        targets: dict[tuple[int, ...], tuple[int, tuple[dict[int, int], ...], dict[int, int]]] = {}
        columns: list[dict[int, int]] = []
        rows = 0
        for blk in terms[k]:
            cols: list[dict[int, int]] = [{} for _ in blk.basis]
            pushed: dict[int, list[tuple[dict[int, int], dict[int, int]]]] = {}
            for col, x in zip(cols, blk.basis):
                for r, img in derive.images(x, blk.subset).items():
                    if img:
                        pushed.setdefault(r, []).append((col, img))
            for r in (r for r in derive.ops if r in pushed):
                found = pushed[r]
                target = tuple(sorted(blk.subset + (r,)))
                if not blk.subset or r > blk.subset[-1]:
                    basis = rref_basis(img for _, img in found)
                    if basis:
                        if {wedge_weights[i] for vec in basis for i in vec} != {weight - 2 * (k + 1)}:
                            raise CksError("differential breaks the weight grading")
                        targets[target] = (rows, basis, {min(v): pos for pos, v in enumerate(basis)})
                        rows += len(basis)
                if target not in targets:
                    raise CksError("differential leaves the complex: no block for its target")
                offset, basis, pivots = targets[target]
                sign = _insertion_sign(blk.subset, r)
                for col, img in found:
                    try:
                        coords = coords_in_rref(img, basis, pivots)
                    except HomologyError:
                        raise CksError("differential leaves the complex: image outside its block") from None
                    for pos, c in coords.items():
                        col[offset + pos] = sign * c
            columns += cols
        if not targets:
            break
        mats.append(SparseIntMatrix(rows, tuple(columns)))
        terms[k + 1] = tuple(CksBlock(target, basis) for target, (_, basis, _) in targets.items())
    for lower, upper in zip(mats[1:], mats):
        if not lower.matmul(upper).is_zero():
            raise CksError("differential does not square to zero")
    return CksPiece(weight, terms, tuple(mats))


# ---------------------------------------------------------------------------
# cohomology, one weight summand at a time
# ---------------------------------------------------------------------------


class CksCohomology(NamedTuple):
    exterior_degree: int
    delta: int
    degrees: Mapping[int, int]
    top_weight: Mapping[int, int]

    @property
    def top_weight_label(self) -> int:
        return self.exterior_degree + self.delta

    def to_json_dict(self) -> dict:
        return {
            "exterior_degree": self.exterior_degree,
            "delta": self.delta,
            "top_weight_value": self.top_weight_label,
            "degrees": {str(k): v for k, v in sorted(self.degrees.items())},
            "top_weight": {str(k): v for k, v in sorted(self.top_weight.items())},
        }


def cks_cohomology(instance: CKSComplexInstance, *, rng: object = None) -> CksCohomology:
    """Exact cohomology dimensions of the full graded-model complex and of its
    highest-weight summand (shifted weight i + delta): each piece's, weighed
    by its multiplicity and shifted by its j.

    Each piece is one weight summand, whose cohomology is ``cleared_homology``
    of its term dimensions and the maps its assembly stored, from d_0 upward.
    ``rng`` is unused; it goes when the benchmark's ``run_op`` stops passing
    one.
    """
    delta = instance.delta
    degrees: dict[int, int] = {k: 0 for k in range(0, delta + 1)}
    top: dict[int, int] = {k: 0 for k in range(0, delta + 1)}
    w_top = instance.exterior_degree + delta

    for j, mult, piece in instance.pieces:
        dims = [piece.term_dimension(k) for k in piece.terms]
        for k, h in enumerate(cleared_homology(dims, piece.differentials)):
            if h:
                degrees[k] += mult * h
                if piece.weight + j == w_top:
                    top[k] += mult * h
    return CksCohomology(instance.exterior_degree, delta, degrees, top)


# ---------------------------------------------------------------------------
# equivariance: graph automorphisms on the highest-weight cohomology
# ---------------------------------------------------------------------------


def top_weight_action(model: GradedH1Model, perm: Sequence[int]) -> SparseIntMatrix:
    """Matrix of a dual-graph automorphism on the highest-weight cohomology in
    exterior degree delta (the summand carried by the cographic complex).

    The top-weight slice of the complex is the cographic cochain complex up to
    a +-1 gauge on its lines: the line of an edge subset I is
    N_I(wedge^delta Gr2), and its d is the coboundary I -> I + r with the
    insertion sign, once each line is rescaled by a sign.  An automorphism A
    with A N_e = N_(sigma e) A moves the line of I to the line of sigma(I)
    and scales wedge^delta Gr2 by det S(sigma), the determinant of sigma on
    the cycle space.  So the action is

        det S(sigma) * (sigma on the top homology of the cographic complex),

    the finite twist times the simplicial action.  For a connected graph the
    exact sequence 0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 gives det S(sigma) as
    the sign of sigma on the vertices times the sign of its edge-label
    permutation times the product of its orientation signs.

    The basis is the canonical top-cycle basis of the cographic complex
    (``top_cycle_basis``: the RREF of the kernel of its top boundary map).
    sigma moves faces by a signed permutation matrix, so that kernel and the
    cokernel of the coboundary into the top degree carry the same
    representation.  The simplicial action is built once per model.
    """
    if model.delta < 1:
        raise CksError("the action needs delta >= 1")
    action = signed_edge_action(perm, model.graph)
    cells = cell_permutation(perm, model.graph)
    twist = sign_of_type(cycle_type(perm)) * sign_of_type(cycle_type(cells))
    twist *= prod(sign for _, sign in action.values())
    mat = model.cographic_action.matrix(cells)
    return SparseIntMatrix(mat.rows, tuple({i: twist * v for i, v in col.items()} for col in mat.columns))
