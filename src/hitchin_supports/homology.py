"""Exact reduced simplicial homology over the rationals.

Every matrix is a ``SparseIntMatrix``, an integer matrix stored by columns;
boundary matrices have entries +-1.  One fraction-free reduction over Z,
``_reduce``, gives every rank, kernel and RREF basis: each vector is reduced
at its lowest coordinate against the pivots stored so far, and a non-zero
residual is stored, content-normalized, as the pivot there; one whose lead
is +-1 has content 1 and is stored as it is, sign and all, and a vector is
cleared against it with no gcd.  A rank is its number of pivots, exact at
any size: no modulus, no random draw and no second pass.
Everything here is reduced homology: the empty face is a cell in dimension
-1, so the empty complex has Betti number 1 there and nowhere else.

Every complex of sparse maps goes to ``cleared_homology``, which ranks it
with clearing (its docstring states the lemma) and returns its homology: the
boundary maps from the top degree down, each CKS weight summand from d_0 up.

Faces are keyed by the bit masks the enumerator wrote, ``masks_by_dim``.
``_boundary_map`` builds ∂_d, finding the facet of a face without cell i as
the one lookup ``mask ^ (1 << i)``: ``boundary_complex`` calls it in every
dimension, in one pass, ``TopHomologyAction`` only for ∂_(top-1) and ∂_top.
Both check each column of ∂_(d-1) ∂_d they build (all up to
``VERIFY_LIMIT`` columns, 20 sampled above) as one integer sum: the ±1
columns of ∂_(d-1) evaluated at 2**b, added with the column's signs.  With
2**(b-1) above the column's length every coefficient is a balanced
base-2**b digit, and balanced digits are unique (the lowest non-zero one
survives modulo the next power of 2**b), so the sum is zero exactly when
the column is.  A map of at most ``VERIFY_LIMIT`` columns is checked as it
is written, each entry touched once; the sampled maps go to
``_verify_square_zero``, which evaluates each column on its own rows.

``exact_rank_int`` reduces the columns of a map from the last to the first;
``rref_basis`` back-substitutes the pivots of a span (the CKS blocks); and
``top_cycle_basis`` reduces the columns of the top boundary, extended by
unit vectors, so that the kernel comes out in RREF.  ``_reduce`` is
copy-on-write: it changes no vector it is given, copies one just before
its first cancellation (or to drop a zero entry), and stores an untouched
residual with lead +-1 as the pivot itself.  Under clearing most columns
meet no pivot, so most are stored as they are, with no copy to reduce.
The bases lead positive whatever the signs of the pivots: ``rref_basis``
normalizes every vector it returns, and a kernel vector of
``top_cycle_basis`` leads with its own unit vector, which only the
positive scales of ``_cancel`` touch.
``TopHomologyAction`` keys the top faces by their masks, so the image of a
face under a permutation is one lookup, and the orientation signs of all
the top faces are the bits of one XOR of pair bitsets (the top faces that
hold both cells of a pair), over the pairs the permutation inverts; the
facets below the top are the d-faces that no mask ``mask ^ (1 << i)`` of a
(d+1)-face hits.
The RREF bases that coordinates are read along (top-cycle bases, CKS block
bases) have had lead entry 1 on every complex measured, so
``coords_in_rref`` reads a coordinate off a pivot without dividing, and a
basis vector whose lead is not 1 is an error rather than a fraction.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence

from .complexes import FaceComplex

VERIFY_LIMIT = 400  # d o d checked on every column up to this many, on 20 samples above


class HomologyError(ValueError):
    """Malformed chain data or a non-automorphism cell permutation."""


# ---------------------------------------------------------------------------
# sparse exact matrices
# ---------------------------------------------------------------------------


class SparseIntMatrix(NamedTuple):
    """Sparse integer matrix stored by columns, each ``{row: nonzero int}``.

    Every map the library builds is integral, and its rank is the rank over
    Q.  Columns may be shared, so callers must not mutate them.
    """

    rows: int
    columns: tuple[dict[int, int], ...]

    @staticmethod
    def identity(n: int) -> "SparseIntMatrix":
        return SparseIntMatrix(n, tuple({i: 1} for i in range(n)))

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise HomologyError("shape mismatch in matmul")
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, w in col.items():
                for r, v in self.columns[k].items():
                    acc[r] = acc.get(r, 0) + v * w
            out.append({r: v for r, v in acc.items() if v})
        return SparseIntMatrix(self.rows, tuple(out))


# ---------------------------------------------------------------------------
# integer vector helpers and the RREF basis of a span
# ---------------------------------------------------------------------------


def normalize_int_vec(vec: dict[int, int]) -> dict[int, int]:
    """Divide out the content and make the lowest-index entry positive, in a
    new vector; ``_reduce`` skips it at a lead of +-1, whose content is 1.

    ``vec`` must be non-empty with no zero entry, as every caller's is: a
    residual that ``_cancel`` left holding a lead.
    """
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return {k: v // g for k, v in vec.items()}


def _cancel(vec: dict[int, int], at: int, pivot: Mapping[int, int]) -> None:
    """Clear coordinate ``at`` of ``vec`` in place with a pivot vector.

    With a = vec[at] and b = pivot[at], ``vec`` becomes vec - (a b) pivot
    when b is +-1 (b is its own inverse: no gcd and no scaling), and
    (b/g) vec - (a/g) pivot for g = gcd(a, b) otherwise, scaled only when
    b/g is not 1.  Old keys keep their places, new keys are appended and
    zeros are dropped.
    """
    a, b = vec[at], pivot[at]
    if b == 1 or b == -1:
        f = a * b
    else:
        g = gcd(a, b)
        scale, f = b // g, a // g
        if scale != 1:
            for k in vec:
                vec[k] *= scale
    for k, v in pivot.items():
        s = vec.get(k, 0) - f * v
        if s:
            vec[k] = s
        else:
            del vec[k]


def _reduce(vectors: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The pivots ``{lead: pivot}`` of integer vectors, each vector reduced in
    turn at its lowest coordinate.

    Each vector is cleared with ``_cancel`` at its lowest coordinate while a
    pivot holds that coordinate.  The vectors are never changed: one is
    copied just before its first ``_cancel``, or at once, without its zero
    entries, when it holds one, and the copy is updated in place from then
    on.  A non-zero residual becomes the pivot there, content-normalized,
    so all arithmetic stays in Z: a residual whose lead is +-1 has content 1
    and is stored as it is, sign and all (the caller's own vector when
    nothing was cancelled), and ``_cancel`` clears against it with no gcd;
    any other goes through ``normalize_int_vec`` and leads positive.  So a
    stored pivot may be a caller's vector, and nothing may write to a pivot.
    A pivot is a non-zero multiple of its own vector plus a combination of
    the vectors that became pivots before it, and it has no entry below its
    lead.  The number of pivots is the rank over Q of the vectors.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        owned = 0 in vec.values()
        if owned:
            vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                a = vec[lead]
                pivots[lead] = vec if a == 1 or a == -1 else normalize_int_vec(vec)
                break
            if not owned:
                vec = dict(vec)
                owned = True
            _cancel(vec, lead, pivot)
    return pivots


def rref_basis(vectors: Iterable[Mapping[int, int]]) -> tuple[dict[int, int], ...]:
    """The reduced row echelon basis of the span of integer vectors, ordered
    by pivot (lowest index): integer-primitive, positive at its pivot, and
    zero at every other pivot.  The RREF of a span is unique.

    The vectors go to ``_reduce`` as they are (it changes none, and the CKS
    assembly reads its images again); then, from the highest pivot down,
    each pivot that holds a higher pivot is copied and cleared there, and
    every pivot is normalized again into a new vector.  No input vector is
    changed or returned.
    """
    pivots = _reduce(vectors)
    order = sorted(pivots)
    reduced: dict[int, dict[int, int]] = {}
    for lead in reversed(order):
        vec = pivots[lead]
        higher = sorted(k for k in vec if k in reduced)
        if higher:
            vec = dict(vec)
            for other in higher:
                if other in vec:
                    _cancel(vec, other, reduced[other])
        reduced[lead] = normalize_int_vec(vec)
    return tuple(reduced[lead] for lead in order)


def coords_in_rref(
    vec: Mapping[int, int], basis: Sequence[dict[int, int]], pivots: Mapping[int, int]
) -> dict[int, int]:
    """Sparse coordinates ``{position: value}`` of an integer vector along an
    RREF basis with lead entries 1; raises if the vector lies outside the span.

    ``pivots`` maps the pivot (lowest index) of each basis vector to its
    position in ``basis``; callers build it once per basis.  No other basis
    vector has an entry at a pivot and the lead there is 1, so the coordinate
    along a basis vector is the entry of ``vec`` at its pivot, and only the
    pivots ``vec`` holds are visited.  The vector lies in the span exactly
    when nothing is left after subtracting them.  A visited basis vector whose
    lead is not 1 raises ``HomologyError``.  ``vec`` must have no zero
    entry, as every caller's has (images of signed top cycles and the CKS
    images of ``cks._Derivations.images``); coordinates are non-zero.
    """
    residual = dict(vec)
    coords: dict[int, int] = {}
    for p, v in vec.items():
        pos = pivots.get(p)
        if pos is None:
            continue
        b = basis[pos]
        if b[p] != 1:
            raise HomologyError(f"basis vector {pos} has lead {b[p]}, not 1")
        coords[pos] = v
        for k, bv in b.items():
            s = residual.get(k, 0) - v * bv
            if s:
                residual[k] = s
            else:
                residual.pop(k, None)
    if residual:
        raise HomologyError("vector not in subspace")
    return coords


# ---------------------------------------------------------------------------
# rank over Q: one fraction-free reduction over Z
# ---------------------------------------------------------------------------


def exact_rank(m: SparseIntMatrix, pivots: dict[int, int] | None = None) -> int:
    """Rank over Q of a sparse integer matrix, by ``exact_rank_int`` on its
    columns; ``pivots`` is passed on."""
    if not m.nnz:
        return 0
    return exact_rank_int(m.columns, m.rows, pivots=pivots)


def exact_rank_int(cols: Sequence[dict[int, int]], n_rows: int, pivots: dict[int, int] | None = None) -> int:
    """Rank over Q of integer columns: the number of pivots of ``_reduce`` on
    the columns from the last to the first, zero entries dropped, which is
    exact at any size.  The columns go to ``_reduce`` as they are, and it
    changes none of them.  ``pivots``, when given, receives the lead row of
    each stored pivot with its lead there (+-1 as it was met, or positive,
    as the pivot is then content-normalized); with the columns C that
    became pivots these rows R index a block m[R, C] whose integer
    determinant is non-zero (see ``cleared_homology``).
    """
    if n_rows == 0:
        return 0
    reduced = _reduce(reversed(cols))
    if pivots is not None:
        pivots.update((lead, vec[lead]) for lead, vec in reduced.items())
    return len(reduced)


def cleared_homology(dims: Sequence[int], maps: Sequence[SparseIntMatrix]) -> list[int]:
    """Homology dimensions of a complex of maps m_0, m_1, ..., where m_i goes
    from the space of dimension ``dims[i]`` to that of ``dims[i + 1]`` (the
    rows of m_i are the columns of m_(i+1)) and every composite
    m_(i+1) m_i is zero: ``dims[i] - rank m_(i-1) - rank m_i`` for every
    space, with no map into the first or out of the last.  The ranks over Q
    are taken with clearing (Chen and Kerber, "Persistent homology
    computation with a twist", EuroCG 2011; Bauer, Kerber and Reininghaus,
    "Clear and compress: computing persistent homology in chunks", 2014).

    m_(i+1) is ranked on its columns that were not pivot rows R, the leads
    of the pivots that ranked m_i.  Let C be the columns of m_i that became
    pivots.  Each stored pivot is s_j c_j plus a rational combination of the
    pivots stored before it, with s_j non-zero, and has no entry below its
    lead row.  So the pivots are P = m_i[:, C] T with T triangular and its
    diagonal non-zero, and P[R] is triangular with the leads on its
    diagonal: m_i[R, C] = P[R] T⁻¹ is invertible over Q.  Then
    m_(i+1) m_i = 0 gives
    m_(i+1)[:, R] = -m_(i+1)[:, Rᶜ] m_i[Rᶜ, C] m_i[R, C]⁻¹: the dropped
    columns lie in the span of the kept ones and the rank over Q is
    unchanged.  Each kept matrix is ranked by ``exact_rank``.  The lemma
    relies on the zero composites, which the callers check:
    ``boundary_complex`` for ∂∘∂ (as it writes the maps, sampled above
    ``VERIFY_LIMIT`` columns) and the CKS assembly for d∘d.  The lemma
    needs s_j non-zero only, so a pivot stored with lead -1 serves as well.
    """
    ranks = [0]
    cleared: dict[int, int] = {}
    for m in maps:
        kept = SparseIntMatrix(m.rows, tuple(c for j, c in enumerate(m.columns) if j not in cleared))
        cleared = {}
        ranks.append(exact_rank(kept, pivots=cleared))
    ranks.append(0)
    return [dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(dims)]


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


class IntChainComplex(NamedTuple):
    """Graded boundary maps of a face complex, including the augmentation.

    ``boundaries[d]`` maps dimension-d chains to dimension-(d-1) chains for
    d = 0 .. top; ``boundaries[0]`` is the 1 x f_0 augmentation row onto the
    empty face.  So ``boundaries[d].cols`` is the number of d-faces.
    """

    boundaries: tuple[SparseIntMatrix, ...]

    @property
    def top_dim(self) -> int:
        return len(self.boundaries) - 1


class HomologyProfile(NamedTuple):
    """Reduced Betti numbers per dimension (from -1 up)."""

    betti: Mapping[int, int]
    euler: int

    def betti_number(self, d: int) -> int:
        return self.betti.get(d, 0)

    def to_json_dict(self) -> dict:
        return {
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "euler": self.euler,
        }


def _face_mask(face: Iterable[int], bit: Sequence[int]) -> int:
    """The bit mask of a face, with ``bit[i]`` the bit of cell ``i``."""
    return sum(map(bit.__getitem__, face))


def _boundary_map(
    faces: Sequence[Sequence[int]],
    masks: Sequence[int],
    index: Mapping[int, int],
    bit: Sequence[int],
    below: Sequence[int] | None = None,
    b: int = 0,
) -> tuple[SparseIntMatrix, list[int] | None]:
    """The boundary map of one level of faces, with bit masks ``masks``
    (``bit[i]`` the bit of cell ``i``), onto the level below, whose masks
    ``index`` numbers (``{0: 0}``, the empty face, below the vertices: ∂_0
    is the augmentation).  The facet of a face without cell ``i`` is one
    lookup of ``mask ^ bit[i]``, a miss raises, and each column is filled in
    the face's cell order with signs +1, -1, ....

    ``below``, when given, holds each column of the map below at 2**b',
    Σ_r v 2**(b' r), and each column is checked as it is written: the values
    of its rows, summed with its signs, must vanish.  The rows of a column
    are distinct, as distinct cells give distinct masks, so the sum reads
    exactly the stored entries.  With ``b`` non-zero the map comes with each
    column's value at 2**b for the check of the map above; else with None.
    """
    columns = []
    values = []
    try:
        if below is None and not b:
            for face, mask in zip(faces, masks):
                col = {}
                sign = 1
                for i in face:
                    col[index[mask ^ bit[i]]] = sign
                    sign = -sign
                columns.append(col)
        else:
            # a table of zeros stands in for the check or the values not asked for
            power = [1 << b * r for r in range(len(index))] if b else [0] * len(index)
            if below is None:
                below = [0] * len(index)
            for face, mask in zip(faces, masks):
                col = {}
                sign = 1
                total = x = 0
                for i in face:
                    r = index[mask ^ bit[i]]
                    col[r] = sign
                    if sign > 0:
                        total += below[r]
                        x += power[r]
                    else:
                        total -= below[r]
                        x -= power[r]
                    sign = -sign
                columns.append(col)
                if total:
                    raise HomologyError("boundary squared is nonzero")
                values.append(x)
    except KeyError:
        raise HomologyError("complex is not downward closed") from None
    return SparseIntMatrix(len(index), tuple(columns)), values if b else None


def boundary_complex(c: FaceComplex, rng: random.Random | None = None) -> IntChainComplex:
    """Boundary matrices with alternating signs over the lexicographic face
    order, one ``_boundary_map`` per dimension over ``c.masks_by_dim``, the
    ``{mask: index}`` of a level built only when a map lies above it.
    d(d(x)) = 0 is checked on every column of a map with at most
    ``VERIFY_LIMIT`` columns as the column is written, from the columns of
    the map below evaluated as they were written; once every map is built,
    each larger map is checked on 20 columns drawn from ``rng``
    (``_verify_square_zero``), in increasing dimension.
    """
    levels = c.faces_by_dim
    bit = [1 << i for i in range(len(c.ground_set))]
    maps = []
    index = {0: 0}  # the empty face
    below = None
    for d, (faces, masks) in enumerate(zip(levels, c.masks_by_dim)):
        # ∂_d evaluated at 2**b for the check of ∂_(d+1), whose columns have d + 2 entries
        b = (d + 2).bit_length() + 1 if d + 1 < len(levels) and len(levels[d + 1]) <= VERIFY_LIMIT else 0
        m, below = _boundary_map(faces, masks, index, bit, below, b)
        maps.append(m)
        if d + 1 < len(levels):
            index = dict(zip(masks, range(len(masks))))
    sampled = [d for d in range(1, len(maps)) if maps[d].cols > VERIFY_LIMIT]
    if sampled:
        rng = rng or random.Random(17)
        for d in sampled:
            _verify_square_zero(maps[d - 1 : d + 1], rng)
    return IntChainComplex(tuple(maps))


def _verify_square_zero(maps: Sequence[SparseIntMatrix], rng: random.Random | None) -> None:
    """Check ∂_(d-1) ∂_d = 0 for consecutive ``maps`` ∂_(d-1), ∂_d on every
    column of a map with at most ``VERIFY_LIMIT`` columns and on 20 columns
    drawn from ``rng`` above that.

    A checked column is evaluated on its own rows (Kronecker substitution):
    the rows its lower columns reach get slots s(r) = 0, 1, ... as first met,
    and it sums v w 2**(b s(r)) over its entries w at k and the entries v at
    r of lower column k, b = len(col).bit_length() + 1.  Every entry must be
    +-1, so each coefficient c_r of the product column has
    |c_r| <= len(col) < 2**(b-1); were some c_r non-zero, the one of lowest
    slot would leave the sum non-zero modulo 2**(b (s(r)+1)).  So the sum,
    at most b (d+1) d bits for ∂_d, vanishes exactly when the column does.
    """
    rng = rng or random.Random(17)
    for d in range(1, len(maps)):
        upper = maps[d].columns
        if len(upper) > VERIFY_LIMIT:
            upper = tuple(upper[rng.randrange(len(upper))] for _ in range(20))
        lower = maps[d - 1].columns
        for col in upper:
            b = len(col).bit_length() + 1
            at: dict[int, int] = {}  # 2**(b s(r)) for each row r reached
            total = 0
            for k, w in col.items():
                if w != 1 and w != -1:
                    raise HomologyError(f"boundary entry {w} is not +-1")
                for r, v in lower[k].items():
                    x = at.get(r) or at.setdefault(r, 1 << b * len(at))
                    if v == w:
                        total += x
                    elif v == -w:
                        total -= x
                    else:
                        raise HomologyError(f"boundary entry {v} is not +-1")
            if total:
                raise HomologyError("boundary squared is nonzero")


def reduced_homology(cc: IntChainComplex, *, rng: object = None) -> HomologyProfile:
    """Reduced Betti numbers by ``cleared_homology`` on the boundary maps
    from the top degree down, the empty face a space of dimension 1.

    ``rng`` is accepted and unused: no rank draws from an rng, but the
    benchmark's ``run_op`` still passes one.  It goes when the benchmark
    stops passing it.
    """
    maps = cc.boundaries[::-1]
    homology = cleared_homology([m.cols for m in maps] + [1], maps)[::-1]
    betti = {d: b for d, b in enumerate(homology, -1) if b}
    euler = sum(-b if d % 2 else b for d, b in betti.items())
    return HomologyProfile(betti, euler)


# ---------------------------------------------------------------------------
# top homology and induced maps
# ---------------------------------------------------------------------------


def top_cycle_basis(boundaries: Sequence[SparseIntMatrix]) -> list[dict[int, int]]:
    """Canonical basis of the kernel of the top boundary map, the last of
    ``boundaries``.

    There are no chains above the top dimension, so this kernel is the top
    reduced homology.  The basis is the RREF of the kernel, integer-primitive
    with positive leading entries; it is unique, hence reproducible.

    The columns j, from the last down to the first, are extended by their
    unit vectors e_j past the rows and reduced by ``_reduce``.  An extended
    column is never empty.  A pivot whose lead is a row holds, past the rows,
    only unit vectors of independent columns.  A pivot whose lead is past the
    rows has a zero row part: it is the kernel vector with pivot j, holding
    e_j plus later independent columns only, so it is zero at every other
    dependent column, which is the reduced echelon form.
    """
    if not boundaries:
        return [{0: 1}]  # the empty complex: H_{-1} spanned by the empty face
    top = boundaries[-1]
    shift = top.rows
    pivots = _reduce({**top.columns[j], shift + j: 1} for j in range(top.cols - 1, -1, -1))
    return [{k - shift: v for k, v in pivots[lead].items()} for lead in sorted(pivots) if lead >= shift]


class TopHomologyAction:
    """Action of simplicial automorphisms on a fixed top-cycle basis.

    Only ∂_(top-1) and ∂_top are built, by the ``_boundary_map`` of
    ``boundary_complex`` over the complex's ``masks_by_dim``, and ∂∘∂ = 0
    is checked on that pair as ``boundary_complex`` checks it: on every
    column of a ∂_top of at most ``VERIFY_LIMIT`` columns as it is written,
    on 20 columns drawn from ``Random(17)`` by ``_verify_square_zero``
    above; ∂_(top-1) is dropped once checked and ∂_top once the top cycles
    are found.  Every basis vector must lead with 1, as ``coords_in_rref``
    requires, which is checked once here.  For each pair of cells a < b
    that some top face holds, ``_pairs`` keeps the bitset of the top faces
    that hold both, which ``_face_table`` XORs into the faces' signs.
    ``matrix`` checks that a ground-set permutation is an automorphism on the
    facets only: a bijection of the ground set that maps every facet into the
    complex maps every face into it (faces lie in facets, and the complex is
    downward closed), injectively, so onto the finite set of faces of each
    size.  Top faces are checked as the face table is built; the facets below
    the top, the d-faces that no mask ``mask ^ bit[i]`` of a (d+1)-face hits,
    are listed once here, and a hit that is no d-face raises.
    """

    def __init__(self, c: FaceComplex):
        self.complex = c
        levels = c.faces_by_dim
        self.top = top = len(levels) - 1
        n = len(c.ground_set)
        bit = [1 << i for i in range(n)]
        masks = c.masks_by_dim
        # ∂_(top-1) evaluated at 2**b for the check of ∂_top as it is written
        b = (top + 1).bit_length() + 1 if top > 0 and len(levels[top]) <= VERIFY_LIMIT else 0
        maps, index, below = [], {0: 0}, None  # the empty face below the vertices
        for d in range(max(top - 1, 0), top + 1):
            if d:
                index = {m: j for j, m in enumerate(masks[d - 1])}
            m, below = _boundary_map(levels[d], masks[d], index, bit, below, b if d < top else 0)
            maps.append(m)
        if maps and maps[-1].cols > VERIFY_LIMIT:
            _verify_square_zero(maps, None)
        del maps[:-1], index  # ∂_(top-1) is read by the check alone
        self.basis = top_cycle_basis(maps)
        del maps
        self._pivots = {}
        for i, vec in enumerate(self.basis):
            lead = min(vec)
            if vec[lead] != 1:
                raise HomologyError(f"basis vector {i} has lead {vec[lead]}, not 1")
            self._pivots[lead] = i
        # the top faces in face order, and the index of each mask
        self._top_faces = levels[top] if top >= 0 else ()
        self._face_index = {mask: i for i, mask in enumerate(masks[top])} if top >= 0 else {}
        # (a, b, the top faces that hold both cells) for each pair a < b of cells some top face holds
        holds = [0] * n
        for j, face in enumerate(self._top_faces):
            for a in face:
                holds[a] |= 1 << j
        self._pairs = [(a, b, both) for a in range(n) for b in range(a + 1, n) if (both := holds[a] & holds[b])]
        self._lower_facets = []  # (facets of one dimension, the masks of all its faces) below the top
        for d in range(top):
            covered = {mask ^ bit[i] for face, mask in zip(levels[d + 1], masks[d + 1]) for i in face}
            if not covered.issubset(masks[d]):
                raise HomologyError("complex is not downward closed")
            facets = tuple(f for f, mask in zip(levels[d], masks[d]) if mask not in covered)
            if facets:
                self._lower_facets.append((facets, set(masks[d])))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _face_table(self, perm: Sequence[int]) -> list[tuple[int, int]]:
        """Index and orientation sign of the image of each top face, once the
        image of every facet below the top is found to be a face.

        The image of a face is looked up by its bit mask, the sum of
        ``1 << perm[i]`` over its cells.  The sign of ``perm`` on a face F is
        -1 raised to the number of pairs a < b in F with perm[a] > perm[b],
        so the signs of all the top faces are the bits of one XOR: of the
        bitsets of the top faces that hold both a and b, over the pairs that
        ``perm`` inverts.  Bit j is the parity of the inversions on face j,
        and a pair that no top face holds adds nothing.
        """
        image_bit = [1 << q for q in perm]
        for facets, face_masks in self._lower_facets:
            if any(_face_mask(face, image_bit) not in face_masks for face in facets):
                raise HomologyError("permutation is not a simplicial automorphism")
        odd = 0
        for a, b, both in self._pairs:
            if perm[a] > perm[b]:
                odd ^= both
        face_index = self._face_index
        table = []
        # bit j of odd as character j, with a 1 past the top to keep the zeros
        for face, o in zip(self._top_faces, bin(odd | 1 << len(self._top_faces))[:2:-1]):
            image = face_index.get(_face_mask(face, image_bit))
            if image is None:
                raise HomologyError("permutation is not a simplicial automorphism")
            table.append((image, -1 if o == "1" else 1))
        return table

    def matrix(self, perm: Sequence[int]) -> SparseIntMatrix:
        if sorted(perm) != list(range(len(self.complex.ground_set))):
            raise HomologyError("not a permutation of the cells")
        if self.top < 0:
            return SparseIntMatrix.identity(len(self.basis))
        table = self._face_table(perm)
        columns = []
        for vec in self.basis:
            img: dict[int, int] = {}
            for j, coeff in vec.items():
                image, sign = table[j]
                img[image] = sign * coeff
            columns.append(coords_in_rref(img, self.basis, self._pivots))
        return SparseIntMatrix(len(self.basis), tuple(columns))

    def trace(self, perm: Sequence[int]) -> int:
        """The trace of ``matrix(perm)``.  The identity's is the rank: it
        sends every top face to itself with sign +1, so every basis vector
        to itself, and the one check its matrix could fail, a basis lead
        other than 1, is made once in ``__init__``."""
        if tuple(perm) == tuple(range(len(self.complex.ground_set))):
            return self.rank
        columns = self.matrix(perm).columns
        return sum(col.get(j, 0) for j, col in enumerate(columns))
