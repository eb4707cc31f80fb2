"""Exact reduced simplicial homology over the rationals.

Every matrix is a ``SparseRationalMatrix``, a matrix over Q stored by
columns with ``int`` entries; boundary matrices have entries +-1.  Every
rank comes from one sparse elimination kernel with Markowitz pivoting, run
either fraction-free over Z or over Z/(p1 p2) for two random primes above
2**30.  The modular pass carries both primes at once (Z/(p1 p2) = F_p1 x F_p2):
when every lead it takes is a unit, its rank is the rank mod p1 and mod p2,
and a non-unit lead counts as a disagreement.  It keeps its residues balanced,
in (-p/2, p/2], and reduces a value only when it leaves that range, so +-1
entries stay one-digit ints and a +-1 lead needs no inverse.  A modular pass
that reduced no value and cleared only with +-1 leads stayed in Z: it took the
steps of the pass over Z one by one, so its rank is the rank over Q at any
size and no second pass runs.  Every boundary map and CKS weight summand
measured stays in Z, the twelve maps above 500 of K_6, Π_6 and the
non-spanning complex of K_6 included.  A pass that left Z is checked: a
matrix with both sides at most 500 is eliminated over Z and compared with it,
and a larger one accepts it alone.  Any disagreement escalates to another
elimination over Z: below the limit on the transpose, which is a different
elimination order, and above it on the matrix itself.  Everything here is
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

The top homology and its automorphism action avoid copies: ``IntEchelon``
updates its working vector in place at each step, and ``TopHomologyAction``
keys the top faces by their masks, so the image of a face under a
permutation is one lookup and its orientation sign a popcount per cell.
The RREF bases that coordinates are read along (top-cycle bases, CKS block
bases) have had lead entry 1 on every complex measured, so ``coords_in_rref``
reads a coordinate off a pivot without dividing, and a basis vector whose
lead is not 1 is an error rather than a fraction.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence

from .complexes import FaceComplex

EXACT_SIDE_LIMIT = 500  # a pass mod p1 p2 that left Z is checked over Z below, accepted alone above
VERIFY_LIMIT = 400  # d o d checked on every column up to this many, on 20 samples above


class HomologyError(ValueError):
    """Malformed chain data or a non-automorphism cell permutation."""


# ---------------------------------------------------------------------------
# sparse exact matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseRationalMatrix:
    """Sparse matrix over Q stored by columns, each ``{row: nonzero int}``.

    Entries are ``int``: every map the library builds is integral, and ranks
    are still ranks over Q.  Columns may be shared, so callers must not
    mutate them.
    """

    rows: int
    columns: tuple[dict[int, int], ...]

    @staticmethod
    def identity(n: int) -> "SparseRationalMatrix":
        return SparseRationalMatrix(n, tuple({i: 1} for i in range(n)))

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(r, j): v for j, col in enumerate(self.columns) for r, v in col.items()}

    def is_zero(self) -> bool:
        return not any(self.columns)

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise HomologyError("shape mismatch in matmul")
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, w in col.items():
                for r, v in self.columns[k].items():
                    acc[r] = acc.get(r, 0) + v * w
            out.append({r: v for r, v in acc.items() if v})
        return SparseRationalMatrix(self.rows, tuple(out))

    def transpose(self) -> "SparseRationalMatrix":
        out: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][j] = v
        return SparseRationalMatrix(self.cols, tuple(out))


# ---------------------------------------------------------------------------
# integer vector helpers (shared by rank, echelon and chain computations)
# ---------------------------------------------------------------------------


def normalize_int_vec(vec: dict[int, int]) -> dict[int, int]:
    """Divide out the content and make the lowest-index entry positive."""
    vec = {k: v for k, v in vec.items() if v}
    if not vec:
        return vec
    g = 0
    for v in vec.values():
        g = gcd(g, abs(v))
    lead = vec[min(vec)]
    if lead < 0:
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


class IntEchelon:
    """Incremental integer echelon form of a growing set of sparse vectors.

    Pivot coordinate of a vector is its minimal index.  Vectors are kept
    content-normalized, so all arithmetic stays in Z.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return vec
            _cancel(vec, lead, pivot)
        return vec

    def insert(self, vec: dict[int, int]) -> bool:
        residual = self.reduce(vec)
        if not residual:
            return False
        self.pivots[min(residual)] = normalize_int_vec(residual)
        return True

    def rref_basis(self) -> list[dict[int, int]]:
        """Fully reduced canonical basis, ordered by pivot coordinate."""
        order = sorted(self.pivots)
        reduced: dict[int, dict[int, int]] = {}
        for lead in reversed(order):
            vec = dict(self.pivots[lead])
            for other in sorted(k for k in vec if k != lead and k in reduced):
                if other in vec:
                    _cancel(vec, other, reduced[other])
            reduced[lead] = normalize_int_vec(vec)
        return [reduced[lead] for lead in order]


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
    lead is not 1 raises ``HomologyError``.  Coordinates are non-zero.
    """
    residual = {k: v for k, v in vec.items() if v}
    coords: dict[int, int] = {}
    for p, v in vec.items():
        pos = pivots.get(p)
        if pos is None or not v:
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
# rank over Q: fraction-free + modular verification
# ---------------------------------------------------------------------------


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin: bases 2, 3, 5, 7 below 3,215,031,751
    # (Jaeschke 1993), the twelve primes up to 37 below 3.3e24
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:4] if n < 3_215_031_751 else _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_above_2_30(rng: random.Random) -> int:
    while True:
        candidate = rng.randrange(2**30 + 1, 2**31, 2)
        if _is_probable_prime(candidate):
            return candidate


class _NonUnitPivot(ArithmeticError):
    """A modular elimination chose a lead that is not a unit modulo ``p``."""


def _balanced(v: int, p: int, half: int) -> int:
    """The residue of ``v`` mod ``p`` in (-p/2, p/2], with ``half`` = p // 2."""
    v %= p
    return v - p if v > half else v


def _eliminate(
    vectors: Iterable[Mapping[int, int]],
    p: int | None = None,
    pivots: set[int] | None = None,
    in_z: list[bool] | None = None,
) -> int:
    """Rank of a list of sparse integer vectors, by Markowitz elimination.

    With ``p`` None the elimination runs over Z, fraction-free, and an updated
    vector is divided by its content whenever it was scaled; with ``p`` a
    product of distinct primes it runs over Z/p.  Each step takes a shortest
    remaining vector (lowest index among equals) and, within it, the
    coordinate held by the fewest remaining vectors, then clears that
    coordinate from them.  Over Z/p every lead must be a unit, which for a
    prime ``p`` always holds; a lead sharing a factor with ``p`` raises
    ``_NonUnitPivot``.  When all leads are units, Z/p = F_p1 x ... x F_pk
    (CRT) makes the result the rank modulo each prime factor.  The
    coordinates chosen (one per unit of rank) are added to ``pivots`` when it
    is given; with the vectors chosen they index a block whose determinant is
    a unit mod ``p`` (non-zero over Z), also when ``_NonUnitPivot`` cuts the
    elimination short.

    ``in_z``, when given, receives one flag as the elimination ends: whether it
    stayed in Z, that is reduced no value (given or updated) mod ``p`` and
    cleared with no lead other than +-1.  Such a pass is the elimination over
    Z step for step (the same leads, scale 1, no content to divide out), so its
    rank is the rank over Q.  A pass over Z always stays in Z.
    """
    # residues mod p stay balanced, in [low, half] = (-p/2, p/2], and are
    # reduced only when a value leaves that range, so +-1 entries stay +-1
    # and a +-1 lead needs no inverse; a residue is zero exactly when the
    # canonical one in [0, p) is
    half = p >> 1 if p else 0
    low = half + 1 - p if p else 0
    stayed = True  # no value was reduced mod p and no lead other than +-1 cleared

    def reduced(v: int) -> int:
        nonlocal stayed
        stayed = False
        return _balanced(v, p, half)

    rows: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # coordinate -> remaining vectors holding it
    for i, vec in enumerate(vectors):
        if p:
            row = {k: r for k, v in vec.items() if (r := v if low <= v <= half else reduced(v))}
        else:
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
        if p and gcd(row[lead], p) != 1:
            raise _NonUnitPivot(lead)
        rank += 1
        if pivots is not None:
            pivots.add(lead)
        for k in row:
            holders[k].discard(i)
        hits = holders.pop(lead)
        if not hits:
            continue
        pivot = row.pop(lead)
        if p:
            if pivot == -1:
                row = {k: -v for k, v in row.items()}
            elif pivot != 1:
                stayed = False
                inv = pow(pivot, -1, p)
                row = {k: _balanced(v * inv, p, half) for k, v in row.items()}
        elif pivot < 0:
            pivot = -pivot
            row = {k: -v for k, v in row.items()}
        for h in hits:
            target = rows[h]
            f = target.pop(lead)
            scale = 1
            if not p:
                g = gcd(f, pivot)
                scale, f = pivot // g, f // g
                if scale != 1:
                    for k in target:
                        target[k] *= scale
            for k, v in row.items():
                old = target.get(k)
                if old is None:
                    new = -f * v
                    if p and not low <= new <= half:
                        new = reduced(new)
                    target[k] = new
                    holders[k].add(h)
                    continue
                new = old - f * v
                if p and not low <= new <= half:
                    new = reduced(new)
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
    if in_z is not None:
        in_z.append(stayed)
    return rank


def _prime_pair(rng: random.Random) -> tuple[int, int]:
    """Two distinct random primes above 2**30, drawn from ``rng``."""
    p1 = random_prime_above_2_30(rng)
    p2 = random_prime_above_2_30(rng)
    while p2 == p1:
        p2 = random_prime_above_2_30(rng)
    return p1, p2


@functools.cache
def _default_prime_pair(seed: int) -> tuple[int, int]:
    """The primes ``_prime_pair`` draws from ``random.Random(seed)``."""
    return _prime_pair(random.Random(seed))


def exact_rank(
    m: SparseRationalMatrix, rng: random.Random | None = None, pivots: set[int] | None = None
) -> int:
    """Rank over Q.

    Both verification primes p1, p2 > 2**30 ride one elimination modulo
    p1*p2.  If that pass stayed in Z (see ``_eliminate``) it was an exact
    elimination over Z and its rank is returned, at any size.  Otherwise
    matrices with both sides at most 500 are eliminated over Z and the result
    must agree with the modular pass; larger matrices accept the modular pass
    alone.  A disagreement, or a lead of the modular pass that is not a
    unit mod p1*p2 (one prime may have lost rank), escalates to another
    elimination over Z: on the transpose below the limit, on the matrix
    itself above it.  ``pivots``, when given, receives the pivot rows of the
    modular pass (see ``exact_rank_int``).
    """
    if not m.nnz:
        return 0
    return exact_rank_int(m.columns, m.rows, rng=rng, pivots=pivots)


def exact_rank_int(
    cols: Sequence[dict[int, int]],
    n_rows: int,
    rng: random.Random | None = None,
    pivots: set[int] | None = None,
) -> int:
    """Rank over Q of integer columns, checked as ``exact_rank`` describes.

    The primes are drawn from ``rng``; with ``rng`` None they depend on the
    shape only and are drawn once per shape.  A modular pass that stayed in Z
    is exact, so its rank is a proof.  One that left Z but whose leads were
    all units mod p1*p2 has the same rank mod p1 and mod p2: it stands for two
    agreeing single-prime passes, which is what is accepted above the side
    limit.  ``pivots``, when given, receives the row indices the modular pass
    pivoted on, that is the leads of its completed unit steps if a non-unit
    lead cut it short.  With some set C of columns they index a block that is
    non-singular mod p1, hence over Q.
    """
    live = [c for c in cols if c]
    if not live or n_rows == 0:
        return 0
    if rng is None:
        p1, p2 = _default_prime_pair(0x5EED ^ (1_000_003 * n_rows + 7_919 * len(live)))
    else:
        p1, p2 = _prime_pair(rng)
    in_z: list[bool] = []
    try:
        r_mod = _eliminate(live, p1 * p2, pivots, in_z)
    except _NonUnitPivot:
        r_mod = None
    if in_z == [True]:
        return r_mod  # an elimination over Z with unit leads: exact at any size
    if max(n_rows, len(live)) <= EXACT_SIDE_LIMIT:
        r_over_z = _eliminate(live)
        if r_mod == r_over_z:
            return r_over_z
        # a different elimination order over Z settles the disagreement
        return _eliminate(SparseRationalMatrix(n_rows, tuple(live)).transpose().columns)
    if r_mod is not None:
        return r_mod
    return _eliminate(live)


def cleared_ranks(maps: Sequence[SparseRationalMatrix], rng: random.Random | None = None) -> list[int]:
    """Ranks over Q of maps m_0, m_1, ..., where the rows of m_i are the
    columns of m_(i+1) and every composite m_(i+1) m_i is zero, with clearing
    (Chen and Kerber, "Persistent homology computation with a twist", EuroCG
    2011; Bauer, Kerber and Reininghaus, "Clear and compress: computing
    persistent homology in chunks", 2014).

    m_(i+1) is ranked on its columns that were not pivot rows of the modular
    pass that ranked m_i.  Those pivot rows R and the matching pivot columns
    C give a non-singular block m_i[R, C], and m_(i+1) m_i = 0 gives
    m_(i+1)[:, R] = -m_(i+1)[:, Rᶜ] m_i[Rᶜ, C] m_i[R, C]⁻¹, so the dropped
    columns lie in the span of the kept ones and the rank over Q is
    unchanged.  A block whose determinant is a unit mod p1 p2 has a non-zero
    integer determinant, so the pivots serve even when a prime loses rank or
    a non-unit lead cuts the pass short.  Each kept matrix is ranked by
    ``exact_rank``: exact when its modular pass stayed in Z, else checked as
    that docstring says, with the side limit applied to the kept size, so a
    map whose kept sides both fall to 500 or fewer is also eliminated over
    Z.  The lemma relies on the zero composites, which the callers check:
    ``boundary_complex`` for ∂∘∂ and the CKS assembly for d∘d.
    """
    ranks = []
    cleared: set[int] = set()
    for m in maps:
        kept = SparseRationalMatrix(m.rows, tuple(c for j, c in enumerate(m.columns) if j not in cleared))
        cleared = set()
        ranks.append(exact_rank(kept, rng=rng, pivots=cleared))
    return ranks


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalChainComplex:
    """Graded boundary maps of a face complex, including the augmentation.

    ``boundaries[d]`` maps dimension-d chains to dimension-(d-1) chains for
    d = 0 .. top; ``boundaries[0]`` is the 1 x f_0 augmentation row onto the
    empty face.
    """

    complex: FaceComplex
    boundaries: tuple[SparseRationalMatrix, ...]

    @property
    def top_dim(self) -> int:
        return len(self.boundaries) - 1

    def chain_dim(self, d: int) -> int:
        if d == -1:
            return 1
        if 0 <= d <= self.top_dim:
            return len(self.complex.faces_by_dim[d])
        return 0


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


def boundary_complex(c: FaceComplex, rng: random.Random | None = None) -> RationalChainComplex:
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
    mats: list[SparseRationalMatrix] = []
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
        mats.append(SparseRationalMatrix(len(prev_index) if d else 1, tuple(columns)))
        prev_index = index
    cc = RationalChainComplex(c, tuple(mats))
    _verify_square_zero(cc, rng)
    return cc


def _verify_square_zero(cc: RationalChainComplex, rng: random.Random | None) -> None:
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


def reduced_homology(cc: RationalChainComplex, rng: random.Random | None = None) -> HomologyProfile:
    """Reduced Betti numbers from exact ranks of the boundary maps, ranked
    from the top degree down by ``cleared_ranks``."""
    ranks = cleared_ranks(cc.boundaries[::-1], rng)[::-1] + [0]  # ranks[d] of ∂_d
    betti: dict[int, int] = {}
    b_minus1 = 1 - ranks[0]
    if b_minus1:
        betti[-1] = b_minus1
    for d in range(cc.top_dim + 1):
        b = cc.chain_dim(d) - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
    euler = sum(-b if d % 2 else b for d, b in betti.items())
    return HomologyProfile(betti, euler)


# ---------------------------------------------------------------------------
# top homology and induced maps
# ---------------------------------------------------------------------------


def top_cycle_basis(cc: RationalChainComplex) -> list[dict[int, int]]:
    """Canonical basis of the kernel of the top boundary map.

    There are no chains above the top dimension, so this kernel is the top
    reduced homology.  The basis is the RREF of the kernel, integer-primitive
    with positive leading entries; it is unique, hence reproducible.

    Each column j is extended by its unit vector past the rows and reduced
    against the columns after it, for j from the last down to the first.  A
    residual with a non-zero row part becomes a pivot, so the extended parts
    of pivots hold only unit vectors of independent columns.  A residual
    whose row part is zero is the kernel vector with pivot j: it holds e_j
    plus later independent columns only, so it is zero at every other
    dependent column, which is the reduced echelon form.
    """
    if cc.top_dim < 0:
        return [{0: 1}]  # the empty complex: H_{-1} spanned by the empty face
    top = cc.boundaries[cc.top_dim]
    shift = top.rows
    ech = IntEchelon()
    kernel = []
    for j in range(top.cols - 1, -1, -1):
        residual = ech.reduce({**top.columns[j], shift + j: 1})
        lead = min(residual)
        if lead < shift:
            ech.pivots[lead] = normalize_int_vec(residual)
        else:
            kernel.append(normalize_int_vec({k - shift: v for k, v in residual.items()}))
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

    def matrix(self, perm: Sequence[int]) -> SparseRationalMatrix:
        self._check_automorphism(perm)
        if self.top < 0:
            return SparseRationalMatrix.identity(len(self.basis))
        table = self._face_table(perm)
        columns = []
        for vec in self.basis:
            img: dict[int, int] = {}
            for j, coeff in vec.items():
                image, sign = table[j]
                img[image] = sign * coeff
            columns.append(coords_in_rref(img, self.basis, self._pivots))
        return SparseRationalMatrix(len(self.basis), tuple(columns))

    def trace(self, perm: Sequence[int]) -> int:
        columns = self.matrix(perm).columns
        return sum(col.get(j, 0) for j, col in enumerate(columns))
