"""Conjugacy classes and integer class functions of symmetric groups, the
action on the cographic complex of the complete graph and on the order complex
of the partition lattice, and Lie_r by Frobenius' formula for the induced
character, the independent oracle for the top-homology representation.  Every
character value here is a trace, so class functions hold ``int`` values only.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Sequence

from .complexes import cographic_complex, partition_order_complex, proper_partitions
from .homology import TopHomologyAction
from .multigraph import Multigraph


class SymgroupError(ValueError):
    """Bad group data: mismatched groups, out-of-range sizes, and the like."""


# ---------------------------------------------------------------------------
# partitions, classes, permutations
# ---------------------------------------------------------------------------


def partitions_of(r: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of r in decreasing lexicographic order, (r) first."""

    def gen(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(r, r))


def class_size(lam: Sequence[int]) -> int:
    """Size of the conjugacy class with cycle type lam inside S_r."""
    r = sum(lam)
    z = 1
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for length, m in mult.items():
        z *= length**m * math.factorial(m)
    return math.factorial(r) // z


def sign_of_type(lam: Sequence[int]) -> int:
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def canonical_permutation(lam: Sequence[int]) -> tuple[int, ...]:
    """Representative with cycles in decreasing length on consecutive support."""
    images = list(range(sum(lam)))
    start = 0
    for length in lam:
        for i in range(length):
            images[start + i] = start + (i + 1) % length
        start += length
    return tuple(images)


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------


class ClassFunction:
    """Map from cycle types of S_r to integer values."""

    __slots__ = ("r", "values")

    def __init__(self, r: int, values: Mapping[tuple[int, ...], int]):
        if set(values) != set(partitions_of(r)):
            raise SymgroupError("class function must be defined on all cycle types")
        if any(type(v) is not int for v in values.values()):
            raise SymgroupError("class function values must be int")
        self.r = r
        self.values = values

    def twist_by_sign(self) -> "ClassFunction":
        """Multiply by the sign character (the duality-side bookkeeping toggle)."""
        return ClassFunction(
            self.r, {lam: v * sign_of_type(lam) for lam, v in self.values.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "+".join(str(p) for p in lam): v
            for lam, v in sorted(self.values.items(), reverse=True)
        }


class ProductClassFunction(NamedTuple):
    """Class function on a product of symmetric groups S_a1 x ... x S_ak."""

    alphas: tuple[int, ...]
    values: Mapping[tuple[tuple[int, ...], ...], int]

    def to_json_dict(self) -> dict:
        return {
            " x ".join("+".join(str(p) for p in lam) or "-" for lam in key): v
            for key, v in sorted(self.values.items(), reverse=True)
        }


# ---------------------------------------------------------------------------
# the action on the cographic complex
# ---------------------------------------------------------------------------


def signed_edge_action(perm: Sequence[int], graph: Multigraph) -> dict[int, tuple[int, int]]:
    """Edge-label action of a vertex permutation with orientation signs.

    Copies inside a parallel class are matched by position, so the vertex
    permutation must preserve the multiplicity pattern; the sign is -1
    exactly when the permutation reverses the canonical orientation.
    """
    if sorted(perm) != list(range(graph.vertex_count)):
        raise SymgroupError("not a vertex permutation")
    classes = graph.edge_classes()
    out: dict[int, tuple[int, int]] = {}
    for (u, v), labels in classes.items():
        pu, pv = perm[u], perm[v]
        target = classes.get((min(pu, pv), max(pu, pv)))
        if target is None or len(target) != len(labels):
            raise SymgroupError("vertex permutation breaks the multiplicity pattern")
        sign = -1 if pu > pv else 1
        for lab, tgt in zip(labels, target):
            out[lab] = (tgt, sign)
    return out


def edge_action(perm: Sequence[int], graph: Multigraph) -> dict[int, int]:
    """Edge-label permutation induced by a vertex permutation."""
    return {lab: tgt for lab, (tgt, _) in signed_edge_action(perm, graph).items()}


def cell_permutation(perm: Sequence[int], graph: Multigraph) -> tuple[int, ...]:
    """The edge action as a permutation of the cells of the graph's complexes,
    which are indexed by position in ``graph.labels()``."""
    labels = graph.labels()
    index_of = {lab: i for i, lab in enumerate(labels)}
    cells = [0] * len(labels)
    for lab, tgt in edge_action(perm, graph).items():
        cells[index_of[lab]] = index_of[tgt]
    return tuple(cells)


def complete_graph(r: int) -> Multigraph:
    edges = []
    label = 0
    for i in range(r):
        for j in range(i + 1, r):
            edges.append((i, j, label))
            label += 1
    return Multigraph(r, tuple(edges))


def top_homology_character(r: int) -> ClassFunction:
    """Character of S_r on the top reduced homology of the cographic complex
    of the complete graph, one trace per cycle type.

    For r = 2 the complex is just the empty face; by convention the character
    of that degenerate case is identically zero.
    """
    if not 2 <= r <= 6:
        raise SymgroupError("r must be between 2 and 6")
    if r == 2:
        return ClassFunction(2, {lam: 0 for lam in partitions_of(2)})
    graph = complete_graph(r)
    return _class_traces(r, cographic_complex(graph), lambda perm: cell_permutation(perm, graph))


def partition_cell_permutation(perm: Sequence[int], r: int) -> tuple[int, ...]:
    """A permutation of {0..r-1} acting on {1..r} as the permutation of the
    ground cells (proper partitions) of ``partition_order_complex(r)``."""
    if sorted(perm) != list(range(r)):
        raise SymgroupError("not a permutation of the r points")
    cells = proper_partitions(r)
    index = {p: i for i, p in enumerate(cells)}
    # blocks are disjoint, so sorting them as tuples sorts them by minimum
    return tuple(
        index[tuple(sorted(tuple(sorted(perm[x - 1] + 1 for x in blk)) for blk in p))] for p in cells
    )


def partition_lattice_character(r: int) -> ClassFunction:
    """Character of S_r on the top reduced homology of the order complex of
    the proper part of the partition lattice, one trace per cycle type.

    A route independent of ``top_homology_character``: another complex on
    another ground set.  Both characters are sgn ⊗ Lie_r (Stanley, "Some
    aspects of groups acting on finite posets", JCTA 32 (1982); Hanlon
    (1981); Wachs, "Poset topology: tools and applications" (2007), §4.4).
    """
    if not 3 <= r <= 6:
        raise SymgroupError("r must be between 3 and 6")
    return _class_traces(
        r, partition_order_complex(r), lambda perm: partition_cell_permutation(perm, r)
    )


def _class_traces(r: int, complex_, cells) -> ClassFunction:
    """The trace on the complex's top homology of one permutation per cycle
    type of S_r; ``cells`` turns a permutation of the r points into the
    permutation of the complex's ground cells."""
    action = TopHomologyAction(complex_)
    return ClassFunction(
        r, {lam: action.trace(cells(canonical_permutation(lam))) for lam in partitions_of(r)}
    )


# ---------------------------------------------------------------------------
# induced character oracle
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def induced_character_oracle(r: int) -> ClassFunction:
    """Lie_r: the character of S_r induced from a faithful character omega of
    the cyclic group C_r generated by an r-cycle, by Frobenius' formula.

    Ind omega(s) = (1/r) * sum of omega(x s x^-1) over the x in S_r with
    x s x^-1 in C_r.  Only the cycle types (d, ..., d) meet C_r, in its phi(d)
    elements of order d; each of them is x s x^-1 for |C(s)| = r!/|class| of
    the x, and omega sends them to the primitive d-th roots of unity, which sum
    to mu(d).  So the value is mu(d) (r-1)!/|class| on type (d, ..., d) and 0
    on every other type.  A quotient that is not exact raises.
    """
    if r < 1:
        raise SymgroupError("r must be at least 1")
    values = {}
    for lam in partitions_of(r):
        if len(set(lam)) > 1:
            values[lam] = 0
            continue
        value, remainder = divmod(_mobius(lam[0]) * math.factorial(r - 1), class_size(lam))
        if remainder:
            raise SymgroupError("induced character value is not an integer")
        values[lam] = value
    return ClassFunction(r, values)


# ---------------------------------------------------------------------------
# Young-subgroup restriction
# ---------------------------------------------------------------------------


def restrict_to_young(chi: ClassFunction, alphas: Sequence[int]) -> ProductClassFunction:
    """Restrict to S_a1 x ... x S_ak embedded on consecutive blocks."""
    alphas = tuple(int(a) for a in alphas)
    if any(a < 1 for a in alphas) or sum(alphas) != chi.r:
        raise SymgroupError("multiplicities must be positive and sum to r")
    values = {}
    for lams in itertools.product(*(partitions_of(a) for a in alphas)):
        merged = tuple(sorted((p for lam in lams for p in lam), reverse=True))
        values[lams] = chi.values[merged]
    return ProductClassFunction(alphas, values)
