"""Independent references for the benchmark's results.

Nothing here imports the library: every expected value comes from a different
algorithm or a different theorem than the one the library uses, or, for the
monodromy complexes, from tables pinned at a known-good commit.

* Cographic complexes: Bjoerner's theorem (the reduced homology of a matroid
  independence complex is concentrated in the top degree delta - 1, with rank
  T_G(1, 0)), with the Tutte evaluation done by deletion-contraction.
* The partition lattice: the order complex of the proper part of Pi_r has
  reduced homology (r-1)! in degree r-3.
* The S_r character on top homology: the Hopf trace formula, an alternating
  sum over fixed faces of the orientation sign, which needs no linear algebra.
* The induced-character oracle: the closed form of the Lie character,
  mu(d) (r/d)! d^(r/d) / r on cycle type (d, ..., d) and 0 elsewhere.
"""

from __future__ import annotations

import itertools
import math


# ---------------------------------------------------------------------------
# multigraphs given as (vertex_count, ((u, v), ...)) with u <= v
# ---------------------------------------------------------------------------


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def components(vertex_count: int, edges) -> int:
    parent = list(range(vertex_count))
    count = vertex_count
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def tutte_1_0(vertex_count: int, edges) -> int:
    """T_G(1, 0) by deletion-contraction: a loop gives 0, a bridge contracts."""
    memo: dict = {}

    def t(n: int, es: tuple) -> int:
        if not es:
            return 1
        if any(u == v for u, v in es):
            return 0
        key = (n, es)
        if key in memo:
            return memo[key]
        (a, b), rest = es[0], es[1:]
        # contract b into a, shifting the vertices above b down by one
        def relabel(w: int) -> int:
            return a if w == b else (w - 1 if w > b else w)

        contracted = tuple(sorted(tuple(sorted((relabel(u), relabel(v)))) for u, v in rest))
        value = t(n - 1, contracted)
        if components(n, rest) == components(n, es):  # not a bridge
            value += t(n, rest)
        memo[key] = value
        return value

    return t(vertex_count, tuple(sorted(tuple(sorted(e)) for e in edges)))


def cographic_betti(vertex_count: int, edges) -> dict[int, int]:
    """Reduced Betti numbers of the cographic complex of a connected multigraph."""
    delta = len(edges) - vertex_count + 1
    value = tutte_1_0(vertex_count, edges)
    return {delta - 1: value} if value else {}


def cographic_f_vector(vertex_count: int, edges) -> list[int]:
    """Face counts (empty face first) by brute force over edge subsets."""
    m = len(edges)
    counts = [0] * (m + 1)
    for mask in range(1 << m):
        kept = [e for i, e in enumerate(edges) if not mask >> i & 1]
        if components(vertex_count, kept) == 1:
            counts[bin(mask).count("1")] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def partition_lattice_betti(r: int) -> dict[int, int]:
    return {r - 3: math.factorial(r - 1)}


# chains of proper partitions of {1..6} by length (empty chain first)
PARTITION_LATTICE_F_VECTORS = {6: (1, 201, 1865, 4245, 2700)}


# ---------------------------------------------------------------------------
# characters of S_r
# ---------------------------------------------------------------------------


def partitions_of(r: int, cap: int | None = None):
    cap = r if cap is None else cap
    if r == 0:
        yield ()
        return
    for first in range(min(r, cap), 0, -1):
        for rest in partitions_of(r - first, first):
            yield (first,) + rest


def _representative(lam) -> list[int]:
    images, start = [], 0
    for length in lam:
        images += [start + (i + 1) % length for i in range(length)]
        start += length
    return images


def hopf_trace_character(r: int) -> dict[tuple, int]:
    """Character of S_r on the top reduced homology of the cographic complex
    of K_r, by the Hopf trace formula over the faces each class fixes."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    index = {p: k for k, p in enumerate(pairs)}
    top = len(pairs) - r  # delta - 1: all reduced homology sits here
    values = {}
    for lam in partitions_of(r):
        g = _representative(lam)
        image = [index[tuple(sorted((g[i], g[j])))] for i, j in pairs]
        orbits, seen = [], set()
        for e in range(len(pairs)):
            if e not in seen:
                orbit, x = [], e
                while x not in seen:
                    seen.add(x)
                    orbit.append(x)
                    x = image[x]
                orbits.append(orbit)
        # fixed faces are unions of edge orbits; g acts on one by the product
        # of its orbit cycles, whose sign orients the face
        total = 0
        for choice in itertools.product((False, True), repeat=len(orbits)):
            removed = {e for take, orbit in zip(choice, orbits) if take for e in orbit}
            kept = [pairs[e] for e in range(len(pairs)) if e not in removed]
            if components(r, kept) != 1:
                continue
            sign = 1
            for take, orbit in zip(choice, orbits):
                if take and len(orbit) % 2 == 0:
                    sign = -sign
            dim = len(removed) - 1
            total += (-1) ** (dim % 2) * sign
        values[lam] = (-1) ** (top % 2) * total
    return values


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def lie_character(r: int) -> dict[tuple, int]:
    """Character of Ind from C_r of a primitive character (the Lie character)."""
    values = {}
    for lam in partitions_of(r):
        d = lam[0]
        if all(part == d for part in lam):
            k = r // d
            values[lam] = _mobius(d) * math.factorial(k) * d**k // r
        else:
            values[lam] = 0
    return values


# ---------------------------------------------------------------------------
# monodromy complexes: tables of the seed commit
# ---------------------------------------------------------------------------


def _table(degrees, top_weight, terms) -> dict:
    def by_degree(values):
        return {str(k): v for k, v in enumerate(values)}

    return {"degrees": by_degree(degrees), "top_weight": by_degree(top_weight), "term_dimensions": by_degree(terms)}


# (genus, partition, exterior degree) -> cohomology by degree, highest-weight
# cohomology by degree and term dimensions by degree, as computed at the
# commit that introduced the benchmark (their top-weight cross-check agreed)
CKS_TABLES = {
    (2, (1, 1, 1), 4): _table((1969, 678, 239, 51, 2), (0, 0, 0, 0, 2), (4845, 4896, 1800, 280, 12)),
    (2, (1, 1, 1), 5): _table((5126, 1899, 921, 304, 24), (0, 0, 0, 0, 24), (15504, 18360, 8400, 1820, 144)),
    (2, (1, 1, 1, 1), 3): _table((2331, 647, 118, 10) + (0,) * 6, (0,) * 10, (5984, 5952, 1980, 220)),
    (3, (1, 1), 4): _table((1495, 232, 67, 12), (0, 0, 0, 12), (3060, 2240, 546, 48)),
    (2, (2, 1), 3): _table((699, 92, 14, 1), (0, 0, 0, 1), (1140, 612, 96, 4)),
}
