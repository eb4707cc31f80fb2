"""Closed-form invariants of the support strata and the headline report:
dimensions, the affine delta invariant, perversity ranges, local-system
ranks, and monodromy data, with optional recomputation of the homological
ingredients from the actual complexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .complexes import cographic_complex
from .homology import boundary_complex, reduced_homology
from .multigraph import (
    GraphError,
    HitchinPartition,
    Multigraph,
    build_dual_graph,
    delta_aff,
)

HOMOLOGY_EDGE_THRESHOLD = 12  # verify through complexes when the reduced graph is this small


class VerificationError(RuntimeError):
    """A formula failed its recomputation from first principles."""


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def dim_base(p: HitchinPartition) -> int:
    return p.n**2 * (p.genus - 1) + 1


def dim_total_space(p: HitchinPartition) -> int:
    return p.n**2 * (2 * p.genus - 2) + 2


def delta_aff_formula(p: HitchinPartition) -> int:
    """sum_{i<j} n_i n_j (2g - 2) - k + 1."""
    pairs = sum(
        p.parts[i] * p.parts[j] for i in range(p.k) for j in range(i + 1, p.k)
    )
    return pairs * (2 * p.genus - 2) - p.k + 1


def normalized_h1_dim(p: HitchinPartition) -> int:
    """Dimension of H^1 of the normalized spectral curve, 2 (dim A - delta)."""
    return 2 * (dim_base(p) - delta_aff_formula(p))


def perversity_range(p: HitchinPartition) -> tuple[int, int]:
    delta = delta_aff_formula(p)
    return (delta, 2 * dim_base(p) - delta)


def local_system_rank(p: HitchinPartition, i: int) -> int:
    """(k-1)! * C(2 (dim A - delta), i)."""
    width = normalized_h1_dim(p)
    if not 0 <= i <= width:
        raise GraphError("outside perversity range")
    return math.factorial(p.k - 1) * math.comb(width, i)


# ---------------------------------------------------------------------------
# doubling reduction and homological stalks
# ---------------------------------------------------------------------------


def doubling_reduce(graph: Multigraph) -> tuple[Multigraph, int]:
    """Strip parallel copies beyond the first, counting the removed edges.

    Top homology degrees shift by the count: reduced Betti b_l of the input
    complex equals b_{l - shift} of the reduced graph's complex.
    """
    keep: list[tuple[int, int, int]] = []
    shift = 0
    for (u, v), labels in sorted(graph.edge_classes().items()):
        keep.append((u, v, labels[0]))
        shift += len(labels) - 1
    return Multigraph(graph.vertex_count, tuple(keep)), shift


def cographic_top_betti(graph: Multigraph) -> int:
    """Reduced Betti number of the cographic complex in degree delta - 1,
    computed through the doubling reduction."""
    reduced, shift = doubling_reduce(graph)
    degree = delta_aff(graph) - 1 - shift
    profile = reduced_homology(boundary_complex(cographic_complex(reduced)))
    return profile.betti_number(degree)


def _top_betti(graph: Multigraph, threshold: int) -> tuple[int, str | None]:
    """Top cographic Betti number of a dual graph, and a warning.

    The number comes from the complex when the doubling reduction leaves at
    most ``threshold`` edges.  Above that size it is the (k-1)! closed form for
    the graph's k vertices, and the warning says that the complex was skipped.
    """
    reduced, _ = doubling_reduce(graph)
    if reduced.edge_count > threshold:
        return math.factorial(graph.vertex_count - 1), (
            "homology verification skipped: reduced dual graph has "
            f"{reduced.edge_count} edges (threshold {threshold})"
        )
    return cographic_top_betti(graph), None


def stalk_dimension(p: HitchinPartition, r: int) -> int:
    """Stalk rank at perversity r: top cographic Betti number times a binomial.

    The Betti factor is recomputed from the complex whenever the doubling
    reduction leaves at most ``HOMOLOGY_EDGE_THRESHOLD`` edges, and falls back
    to the (k-1)! closed form above that size.
    """
    delta = delta_aff_formula(p)
    lo, hi = perversity_range(p)
    if not lo <= r <= hi:
        raise GraphError("outside perversity range")
    betti, _ = _top_betti(build_dual_graph(p), HOMOLOGY_EDGE_THRESHOLD)
    return betti * math.comb(normalized_h1_dim(p), r - delta)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportReport:
    genus: int
    partition: tuple[int, ...]
    n: int
    k: int
    dim_base: int
    dim_total: int
    delta_aff: int
    codim_stratum: int
    perversity_range: tuple[int, int]
    normalized_h1: int
    top_rank: int
    local_system_ranks: Mapping[int, int]
    monodromy_group_order: int
    constant_monodromy: bool
    verify_level: str
    homology_checked: bool
    warning: str | None = None
    degree: int | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "genus": self.genus,
            "partition": list(self.partition),
            "n": self.n,
            "k": self.k,
            "dim_base": self.dim_base,
            "dim_total": self.dim_total,
            "delta_aff": self.delta_aff,
            "codim_stratum": self.codim_stratum,
            "perversity_range": list(self.perversity_range),
            "normalized_h1": self.normalized_h1,
            "top_rank": self.top_rank,
            "local_system_ranks": {str(r): v for r, v in sorted(self.local_system_ranks.items())},
            "monodromy_group_order": self.monodromy_group_order,
            "constant_monodromy": self.constant_monodromy,
            "verify_level": self.verify_level,
            "homology_checked": self.homology_checked,
        }
        if self.warning:
            doc["warning"] = self.warning
        if self.degree is not None:
            doc["degree"] = self.degree
        return doc


def support_report(
    p: HitchinPartition,
    verify_level: str = "formula",
    homology_threshold: int = HOMOLOGY_EDGE_THRESHOLD,
    degree: int | None = None,
) -> SupportReport:
    """Assemble the full numerology for one stratum.

    ``verify_level``:
      * ``none``     -- formulas only;
      * ``formula``  -- also check the delta formula against the dual graph;
      * ``homology`` -- additionally recompute the rank factor (k-1)! as the
        top Betti number of the actual cographic complex (degraded to formulas
        with a warning when the reduced graph is too large).  The stalk ranks
        (k-1)! C(width, i) follow from that Betti check, so they are not
        compared again.
    """
    if verify_level not in ("none", "formula", "homology"):
        raise GraphError(f"unknown verify level: {verify_level}")
    if degree is not None and math.gcd(degree, p.n) != 1:
        raise GraphError("bundle degree must be coprime to n")
    delta = delta_aff_formula(p)
    lo, hi = perversity_range(p)
    width = normalized_h1_dim(p)
    top_rank = math.factorial(p.k - 1)
    warning = None
    homology_checked = False

    if verify_level in ("formula", "homology"):
        graph = build_dual_graph(p)
        if delta_aff(graph) != delta:
            raise VerificationError("delta formula disagrees with the dual graph")
    if verify_level == "homology":
        betti, warning = _top_betti(graph, homology_threshold)
        homology_checked = warning is None
        if betti != top_rank:
            raise VerificationError(
                f"top homology rank {betti} disagrees with (k-1)! = {top_rank}"
            )

    alphas = p.multiplicities()
    return SupportReport(
        genus=p.genus,
        partition=p.parts,
        n=p.n,
        k=p.k,
        dim_base=dim_base(p),
        dim_total=dim_total_space(p),
        delta_aff=delta,
        codim_stratum=delta,
        perversity_range=(lo, hi),
        normalized_h1=width,
        top_rank=top_rank,
        local_system_ranks={r: local_system_rank(p, r - delta) for r in range(lo, hi + 1)},
        monodromy_group_order=math.prod(math.factorial(a) for a in alphas.values()),
        constant_monodromy=all(a == 1 for a in alphas.values()),
        verify_level=verify_level,
        homology_checked=homology_checked,
        warning=warning,
        degree=degree,
    )
