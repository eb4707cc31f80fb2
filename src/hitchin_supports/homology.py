"""Exact reduced simplicial homology over the rationals.

Every matrix is a ``SparseIntMatrix``, an integer matrix stored by columns;
boundary matrices have entries +-1.  Every rank is the rank over Q of one
fraction-free sparse elimination over Z with Markowitz pivoting, exact at any
size: no modulus, no random draw and no second pass.  Everything here is
reduced homology: the empty face is a cell in dimension -1, so the empty
complex has Betti number 1 there and nowhere else.

Every complex of sparse maps is ranked with clearing by ``cleared_ranks``,
whose docstring states the lemma: the boundary maps from the top degree down,
and each weight summand of a CKS complex from d_0 upward.

Faces are keyed by their ground-set bit masks, written once in
``_face_mask``.  ``boundary_complex`` finds the facet of a face without cell
i as the one lookup ``mask ^ (1 << i)``, and checks each column of ∂_(d-1) ∂_d
as one integer sum: the ±1 columns of ∂_(d-1) evaluated at 2**b, added with
the column's signs.  With 2**(b-1) above the column's length every
coefficient is a balanced base-2**b digit, and balanced digits are unique
(the lowest non-zero one survives modulo the next power of 2**b), so the sum
is zero exactly when the column is.

One routine, ``rref_basis``, gives the RREF basis of a span (the CKS
blocks); ``top_cycle_basis`` runs the same ``_cancel`` steps on the kernel.
Both update one copy of each vector in place at every step, and
``TopHomologyAction`` keys the top faces by their masks, so the image of a
face under a permutation is one lookup and its orientation sign a popcount
per cell.  The RREF bases that coordinates are read along (top-cycle bases,
CKS block bases) have had lead entry 1 on every complex measured, so
``coords_in_rref`` reads a coordinate off a pivot without dividing, and a
basis vector whose lead is not 1 is an error rather than a fraction.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence

from .complexes import FaceComplex

VERIFY_LIMIT = 400  # d o d checked on every column up to this many, on 20 samples above


class HomologyError(ValueError):
    """Malformed chain data or a non-automorphism cell permutation."""


# ---------------------------------------------------------------------------
# sparse exact matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseIntMatrix:
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
    """Divide out the content and make the lowest-index entry positive.

    ``vec`` must be non-empty with no zero entry, as every caller's is: a
    residual that ``_cancel`` left holding a lead.
    """
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return {k: v // g for k, v in vec.items()}


def _cancel(vec: dict[int, int], at: int, pivot: Mapping[int, int]) -> None:
    """Clear coordinate ``at`` of ``vec`` in place with a pivot vector.

    ``vec`` becomes (b/g) vec - (a/g) pivot for a = vec[at], b = pivot[at],
    g = gcd(a, b): it is scaled only when b/g is not 1, then (a/g) pivot is
    subtracted entry by entry.  Old keys keep their places, new keys are
    appended and zeros are dropped.
    """
    a, b = vec[at], pivot[at]
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


def rref_basis(vectors: Iterable[Mapping[int, int]]) -> tuple[dict[int, int], ...]:
    """The reduced row echelon basis of the span of integer vectors, ordered
    by pivot (lowest index): integer-primitive, positive at its pivot, and
    zero at every other pivot.  The RREF of a span is unique.

    Each vector, which must have no zero entry, is copied and reduced at its
    lowest coordinate with ``_cancel`` while a pivot holds that coordinate; a
    non-zero residual becomes the pivot there, content-normalized, so all
    arithmetic stays in Z.  Then, from the highest pivot down, each pivot is
    cleared at the higher pivots it holds and normalized again.  The input
    vectors are not changed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = normalize_int_vec(vec)
                break
            _cancel(vec, lead, pivot)
    order = sorted(pivots)
    reduced: dict[int, dict[int, int]] = {}
    for lead in reversed(order):
        vec = pivots[lead]
        for other in sorted(k for k in vec if k in reduced):
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
    entry, as every caller's has (images of signed top cycles and
    ``_derived_image`` columns); coordinates are non-zero.
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
# rank over Q: one fraction-free elimination over Z
# ---------------------------------------------------------------------------


def _eliminate(vectors: Iterable[Mapping[int, int]], pivots: dict[int, int] | None = None) -> int:
    """Rank of a list of sparse integer vectors, by fraction-free Markowitz
    elimination over Z.

    Each step takes a shortest remaining vector (lowest index among equals)
    and, within it, the coordinate held by the fewest remaining vectors, then
    clears that coordinate from them; an updated vector that was scaled is
    divided by its content.  A +-1 lead scales no vector.  ``pivots``, when
    given, receives each coordinate chosen (one per unit of rank) with its
    lead, the entry it held when chosen; with the vectors chosen these
    coordinates index a block whose integer determinant is non-zero.
    """
    rows: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # coordinate -> remaining vectors holding it
    for i, vec in enumerate(vectors):
        row = {k: v for k, v in vec.items() if v}
        if row:
            rows[i] = row
            for k in row:
                holders.setdefault(k, set()).add(i)
    queue = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(queue)
    rank = 0
    while queue:
        length, i = heapq.heappop(queue)
        row = rows.get(i)
        if row is None or len(row) != length:
            continue  # stale entry: the vector was eliminated or changed since
        del rows[i]
        lead = min(row, key=lambda k: len(holders[k]))
        rank += 1
        if pivots is not None:
            pivots[lead] = row[lead]
        for k in row:
            holders[k].discard(i)
        hits = holders.pop(lead)
        if not hits:
            continue
        pivot = row.pop(lead)
        if pivot < 0:
            pivot = -pivot
            row = {k: -v for k, v in row.items()}
        for h in hits:
            target = rows[h]
            f = target.pop(lead)
            g = gcd(f, pivot)
            scale, f = pivot // g, f // g
            if scale != 1:
                for k in target:
                    target[k] *= scale
            for k, v in row.items():
                old = target.get(k)
                if old is None:
                    target[k] = -f * v
                    holders[k].add(h)
                    continue
                new = old - f * v
                if new:
                    target[k] = new
                else:
                    del target[k]
                    holders[k].discard(h)
            if not target:
                del rows[h]
                continue
            if scale != 1:
                content = gcd(*target.values())
                if content != 1:
                    for k in target:
                        target[k] //= content
            heapq.heappush(queue, (len(target), h))
    return rank


def exact_rank(m: SparseIntMatrix, pivots: dict[int, int] | None = None) -> int:
    """Rank over Q of a sparse integer matrix, by ``exact_rank_int`` on its
    columns; ``pivots`` is passed on."""
    if not m.nnz:
        return 0
    return exact_rank_int(m.columns, m.rows, pivots=pivots)


def exact_rank_int(cols: Sequence[dict[int, int]], n_rows: int, pivots: dict[int, int] | None = None) -> int:
    """Rank over Q of integer columns: one elimination over Z of the non-zero
    ones (see ``_eliminate``), whose rank is exact at any size.  ``pivots``,
    when given, receives the row indices it pivoted on, each with its lead;
    with some set C of columns they index a block whose integer determinant
    is non-zero.
    """
    live = [c for c in cols if c]
    if not live or n_rows == 0:
        return 0
    return _eliminate(live, pivots)


def cleared_ranks(maps: Sequence[SparseIntMatrix]) -> list[int]:
    """Ranks over Q of maps m_0, m_1, ..., where the rows of m_i are the
    columns of m_(i+1) and every composite m_(i+1) m_i is zero, with clearing
    (Chen and Kerber, "Persistent homology computation with a twist", EuroCG
    2011; Bauer, Kerber and Reininghaus, "Clear and compress: computing
    persistent homology in chunks", 2014).

    m_(i+1) is ranked on its columns that were not pivot rows of the
    elimination that ranked m_i.  The pivots of an elimination over Z index a
    block m_i[R, C] whose integer determinant is non-zero, and m_(i+1) m_i = 0
    gives m_(i+1)[:, R] = -m_(i+1)[:, Rᶜ] m_i[Rᶜ, C] m_i[R, C]⁻¹, so the
    dropped columns lie in the span of the kept ones and the rank over Q is
    unchanged.  Each kept matrix is ranked by ``exact_rank``.  The lemma
    relies on the zero composites, which the callers check:
    ``boundary_complex`` for ∂∘∂ and the CKS assembly for d∘d.
    """
    ranks = []
    cleared: dict[int, int] = {}
    for m in maps:
        kept = SparseIntMatrix(m.rows, tuple(c for j, c in enumerate(m.columns) if j not in cleared))
        cleared = {}
        ranks.append(exact_rank(kept, pivots=cleared))
    return ranks


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntChainComplex:
    """Graded boundary maps of a face complex, including the augmentation.

    ``boundaries[d]`` maps dimension-d chains to dimension-(d-1) chains for
    d = 0 .. top; ``boundaries[0]`` is the 1 x f_0 augmentation row onto the
    empty face.  So ``boundaries[d].cols`` is the number of d-faces.
    """

    boundaries: tuple[SparseIntMatrix, ...]

    @property
    def top_dim(self) -> int:
        return len(self.boundaries) - 1


@dataclass(frozen=True)
class HomologyProfile:
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


def boundary_complex(c: FaceComplex, rng: random.Random | None = None) -> IntChainComplex:
    """Boundary matrices with alternating signs over the lexicographic face order.

    The faces of each dimension are keyed by their ground-set bit masks, so
    the facet of a face without cell ``i`` is one lookup of
    ``mask ^ (1 << i)``; each column is filled in the face's cell order with
    signs +1, -1, ..., an order that ``_eliminate`` uses to break ties between
    pivots.  The identity d(d(x)) = 0 is checked on every column of
    a boundary map with at most ``VERIFY_LIMIT`` columns and on 20 columns of
    a larger one drawn from ``rng``, each checked column of ∂_(d-1) ∂_d as
    one exact integer sum (see ``_verify_square_zero``).
    """
    bit = [1 << i for i in range(len(c.ground_set))]
    mats: list[SparseIntMatrix] = []
    prev_index: dict[int, int] = {}  # mask -> index of the faces one dimension down
    for d, faces in enumerate(c.faces_by_dim):
        index: dict[int, int] = {}
        columns = []
        try:
            for j, face in enumerate(faces):
                mask = _face_mask(face, bit)
                index[mask] = j
                if d == 0:
                    columns.append({0: 1})
                    continue
                col = {}
                sign = 1
                for i in face:
                    col[prev_index[mask ^ bit[i]]] = sign
                    sign = -sign
                columns.append(col)
        except KeyError:
            raise HomologyError("complex is not downward closed") from None
        mats.append(SparseIntMatrix(len(prev_index) if d else 1, tuple(columns)))
        prev_index = index
    cc = IntChainComplex(tuple(mats))
    _verify_square_zero(cc, rng)
    return cc


def _verify_square_zero(cc: IntChainComplex, rng: random.Random | None) -> None:
    """Check ∂_(d-1) ∂_d = 0 on every column of a map with at most
    ``VERIFY_LIMIT`` columns and on 20 columns drawn from ``rng`` above that.

    A checked column is evaluated at 2**b (Kronecker substitution): lower
    column k becomes the int Σ_r v 2**(b r), built once per map when first
    needed, and the column sums these ints with its signs.  Every entry must
    be +-1, so each coefficient c_r of the product column has
    |c_r| <= len(col) < 2**(b-1).  Were some c_r non-zero, the lowest one
    would leave the sum non-zero modulo 2**(b (r+1)), so the sum vanishes
    exactly when the column of ∂_(d-1) ∂_d does.
    """
    rng = rng or random.Random(17)
    for d in range(1, cc.top_dim + 1):
        upper = cc.boundaries[d].columns
        if len(upper) > VERIFY_LIMIT:
            upper = tuple(upper[rng.randrange(len(upper))] for _ in range(20))
        lower = cc.boundaries[d - 1].columns
        b = max(map(len, upper), default=0).bit_length() + 1
        at: list[int | None] = [None] * len(lower)  # lower column k evaluated at 2**b
        for col in upper:
            total = 0
            for k, w in col.items():
                x = at[k]
                if x is None:
                    x = at[k] = _at_power_of_two(lower[k], b)
                if w == 1:
                    total += x
                elif w == -1:
                    total -= x
                else:
                    raise HomologyError(f"boundary entry {w} is not +-1")
            if total:
                raise HomologyError("boundary squared is nonzero")


def _at_power_of_two(col: Mapping[int, int], b: int) -> int:
    """A column of +-1 entries as the int Σ_r v 2**(b r)."""
    x = 0
    for r, v in col.items():
        if v == 1:
            x += 1 << b * r
        elif v == -1:
            x -= 1 << b * r
        else:
            raise HomologyError(f"boundary entry {v} is not +-1")
    return x


def reduced_homology(cc: IntChainComplex, *, rng: object = None) -> HomologyProfile:
    """Reduced Betti numbers from exact ranks of the boundary maps, ranked
    from the top degree down by ``cleared_ranks``.

    ``rng`` is accepted and unused: no rank draws from an rng, but the
    benchmark's ``run_op`` still passes one.  It goes when the benchmark
    stops passing it.
    """
    ranks = cleared_ranks(cc.boundaries[::-1])[::-1] + [0]  # ranks[d] of ∂_d
    betti: dict[int, int] = {}
    b_minus1 = 1 - ranks[0]
    if b_minus1:
        betti[-1] = b_minus1
    for d in range(cc.top_dim + 1):
        b = cc.boundaries[d].cols - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
    euler = sum(-b if d % 2 else b for d, b in betti.items())
    return HomologyProfile(betti, euler)


# ---------------------------------------------------------------------------
# top homology and induced maps
# ---------------------------------------------------------------------------


def top_cycle_basis(cc: IntChainComplex) -> list[dict[int, int]]:
    """Canonical basis of the kernel of the top boundary map.

    There are no chains above the top dimension, so this kernel is the top
    reduced homology.  The basis is the RREF of the kernel, integer-primitive
    with positive leading entries; it is unique, hence reproducible.

    Each column j is extended by its unit vector past the rows and reduced
    with ``_cancel`` at its lowest coordinate against the pivots of the
    columns after it, for j from the last down to the first; it keeps e_j,
    so it is never empty.  A residual with a non-zero row part becomes a
    pivot, so the extended parts of pivots hold only unit vectors of
    independent columns.  A residual whose row part is zero is the kernel
    vector with pivot j: it holds e_j plus later independent columns only,
    so it is zero at every other dependent column, which is the reduced
    echelon form.
    """
    if cc.top_dim < 0:
        return [{0: 1}]  # the empty complex: H_{-1} spanned by the empty face
    top = cc.boundaries[cc.top_dim]
    shift = top.rows
    pivots: dict[int, dict[int, int]] = {}
    kernel = []
    for j in range(top.cols - 1, -1, -1):
        vec = {**top.columns[j], shift + j: 1}
        while (lead := min(vec)) in pivots:
            _cancel(vec, lead, pivots[lead])
        if lead < shift:
            pivots[lead] = normalize_int_vec(vec)
        else:
            kernel.append(normalize_int_vec({k - shift: v for k, v in vec.items()}))
    kernel.reverse()
    return kernel


class TopHomologyAction:
    """Action of simplicial automorphisms on a fixed top-cycle basis.

    ``matrix`` checks that a ground-set permutation is an automorphism on the
    facets only: a bijection of the ground set that maps every facet into the
    complex maps every face into it (faces lie in facets, and the complex is
    downward closed), injectively, so onto the finite set of faces of each
    size.  Top faces are checked as the face table is built; the facets below
    the top, the faces that are no row of the boundary map above, are listed
    once here.
    """

    def __init__(self, c: FaceComplex):
        self.complex = c
        self.cc = boundary_complex(c)
        self.basis = top_cycle_basis(self.cc)
        self._pivots = {min(vec): i for i, vec in enumerate(self.basis)}
        self.top = self.cc.top_dim
        # top faces as ground-set bit masks: (cells, mask) in face order, and
        # the index of each mask
        bit = [1 << i for i in range(len(c.ground_set))]
        self._top_faces = (
            [(f, _face_mask(f, bit)) for f in c.faces_by_dim[self.top]] if self.top >= 0 else []
        )
        self._face_index = {mask: i for i, (_, mask) in enumerate(self._top_faces)}
        self._lower_facets = []  # (facets of one dimension, all faces of it) below the top
        for d in range(self.top):
            faces = c.faces_by_dim[d]
            covered = {r for col in self.cc.boundaries[d + 1].columns for r in col}
            if len(covered) < len(faces):
                facets = tuple(f for i, f in enumerate(faces) if i not in covered)
                self._lower_facets.append((facets, set(faces)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _check_automorphism(self, perm: Sequence[int]) -> None:
        if sorted(perm) != list(range(len(self.complex.ground_set))):
            raise HomologyError("not a permutation of the cells")
        for facets, face_set in self._lower_facets:
            for face in facets:
                if tuple(sorted(perm[i] for i in face)) not in face_set:
                    raise HomologyError("permutation is not a simplicial automorphism")

    def _face_table(self, perm: Sequence[int]) -> list[tuple[int, int]]:
        """Index and orientation sign of the image of each top face.

        The image of a face is looked up by its bit mask, the sum of
        ``1 << perm[i]`` over its cells.  Its sign is the parity of the
        inversions of ``perm`` on the face: ``later[a]`` masks the cells after
        ``a`` that ``perm`` sends below ``perm[a]``, so the face's inversions
        are the bits of ``mask & later[a]`` summed over its cells ``a``.
        """
        n = len(perm)
        image_bit = [1 << q for q in perm]
        later = [sum(1 << c for c in range(a + 1, n) if perm[c] < perm[a]) for a in range(n)]
        face_index = self._face_index
        table = []
        for face, mask in self._top_faces:
            image = face_index.get(_face_mask(face, image_bit))
            if image is None:
                raise HomologyError("permutation is not a simplicial automorphism")
            inversions = sum((mask & later[a]).bit_count() for a in face)
            table.append((image, -1 if inversions & 1 else 1))
        return table

    def matrix(self, perm: Sequence[int]) -> SparseIntMatrix:
        self._check_automorphism(perm)
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
        columns = self.matrix(perm).columns
        return sum(col.get(j, 0) for j, col in enumerate(columns))
