"""Closed-form invariants of the support strata and the headline report:
dimensions, the affine delta invariant, perversity ranges, local-system
ranks, and monodromy data, with the rank factor (k-1)! recomputed on every
report as the Tutte evaluation T_G(1, 0) of the dual graph.  ``check_row``
builds the rows of every document's ``checks``.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, NamedTuple

from .multigraph import (
    GraphError,
    HitchinPartition,
    Multigraph,
    _component_count,
    build_dual_graph,
    delta_aff,
)

# T_G(1, 0) of the dual graph of 1^k takes 0.01 s at k = 12, 0.12 s at k = 20,
# 1 s at k = 30 and 4.4 s (300 MB) at k = 40, in-process on a 2-core Xeon VM
# with Python 3.11; up to 20 parts the check costs about as much as starting
# the process (`report` on 1^20 takes 0.18 s, on 1^21 0.12 s), so it always runs
TUTTE_VERTEX_LIMIT = 20


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
    """(k-1)! * C(2 (dim A - delta), i).  Public API: ``support_report``
    builds the same row by recurrence, and the tests compare the two."""
    width = normalized_h1_dim(p)
    if not 0 <= i <= width:
        raise GraphError("outside perversity range")
    return math.factorial(p.k - 1) * math.comb(width, i)


# ---------------------------------------------------------------------------
# the top cographic Betti number
# ---------------------------------------------------------------------------


def cographic_top_betti(graph: Multigraph) -> int:
    """Reduced Betti number of the cographic complex in degree delta - 1.

    That number is the Tutte evaluation T_G(1, 0) (Bjoerner, "The homology
    and shellability of matroids and geometric lattices", 1992), computed by
    deletion-contraction of the largest edge, memoised on the vertex count and
    the simple edge set.  A loop is a cone point, so it gives 0.  A parallel
    copy contracts to a loop, so at (1, 0) it drops out and only simple edges
    are kept.  A disconnected state counts 0, so a bridge contributes its
    contraction alone; checking each deletion for it keeps a tree linear
    instead of exploring both branches of every bridge.
    """
    if not graph.is_connected():
        raise GraphError("graph must be connected")
    if any(u == v for u, v, _ in graph.edges):
        return 0
    memo: dict[tuple[int, frozenset], int] = {}

    def tutte(vertex_count: int, edges: frozenset) -> int:
        if not edges:
            return int(vertex_count <= 1)
        key = (vertex_count, edges)
        if key not in memo:
            edge = max(edges)
            rest = edges - {edge}
            u, v = edge  # contract v into u, shifting the vertices above v down

            def merge(w: int) -> int:
                return u if w == v else w - (w > v)

            contracted = frozenset(tuple(sorted((merge(a), merge(b)))) for a, b in rest)
            deleted = tutte(vertex_count, rest) if _component_count(vertex_count, rest) == 1 else 0
            memo[key] = deleted + tutte(vertex_count - 1, contracted)
        return memo[key]

    return tutte(graph.vertex_count, frozenset((u, v) for u, v, _ in graph.edges))


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


def check_row(route: str, outcome: bool | str) -> dict[str, str]:
    """One row of a document's ``checks``: the independent ``route`` and its
    ``result``, EQUAL or DIFFER by ``outcome``, or ``SKIPPED: <outcome>``
    when ``outcome`` is the reason the route did not run.  The CLI exits 1
    exactly when some row is DIFFER."""
    if isinstance(outcome, str):
        return {"route": route, "result": f"SKIPPED: {outcome}"}
    return {"route": route, "result": "EQUAL" if outcome else "DIFFER"}


class SupportReport(NamedTuple):
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
    checks: Mapping[str, Mapping[str, str]]

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "partition": list(self.partition),
            "perversity_range": list(self.perversity_range),
            "local_system_ranks": {str(r): v for r, v in sorted(self.local_system_ranks.items())},
            "checks": dict(self.checks),
        }


def _check_printable(k: int, width: int) -> None:
    """Refuse a stratum whose largest stalk rank (k-1)! C(width, width // 2)
    has more decimal digits than ``sys.get_int_max_str_digits()``, so that no
    document fails to print after the work.  The digit count is estimated with
    lgamma, before any binomial is formed, and decided exactly only when the
    estimate lies within one digit of the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if not limit:
        return
    half = width // 2
    log10 = (
        math.lgamma(k) + math.lgamma(width + 1) - math.lgamma(half + 1) - math.lgamma(width - half + 1)
    ) / math.log(10)
    if abs(log10 - limit) < 1:
        too_long = math.factorial(k - 1) * math.comb(width, half) >= 10**limit
    else:
        too_long = log10 > limit
    if too_long:
        raise GraphError(
            f"stalk ranks reach about {int(log10) + 1} decimal digits, "
            f"above the {limit}-digit limit of sys.get_int_max_str_digits()"
        )


def support_report(p: HitchinPartition) -> SupportReport:
    """Assemble the full numerology for one stratum, checked two ways.

    The delta formula is compared with the first Betti number of the dual
    graph, and the rank factor (k-1)! with the top Betti number of the
    cographic complex, T_G(1, 0) of the dual graph; each comparison is a row
    of ``checks``.  Above ``TUTTE_VERTEX_LIMIT`` vertices the Betti row is
    SKIPPED with the vertex count.  The stalk ranks
    (k-1)! C(width, i) follow from that Betti check, so they are not compared
    again; they are built as one row by C(w, i + 1) = C(w, i) (w - i)/(i + 1).
    A stratum whose largest stalk rank could not be printed is refused first.
    """
    delta = delta_aff_formula(p)
    lo, hi = perversity_range(p)
    width = normalized_h1_dim(p)
    _check_printable(p.k, width)
    top_rank = math.factorial(p.k - 1)
    graph = build_dual_graph(p)
    if graph.vertex_count > TUTTE_VERTEX_LIMIT:
        rank_outcome = f"dual graph has {graph.vertex_count} vertices (limit {TUTTE_VERTEX_LIMIT})"
    else:
        rank_outcome = cographic_top_betti(graph) == top_rank
    checks = {
        "delta_aff": check_row("first Betti number of the dual graph", delta_aff(graph) == delta),
        "top_rank": check_row("T_G(1,0) of the dual graph (Bjoerner 1992)", rank_outcome),
    }

    ranks, rank = {}, top_rank
    for i in range(width + 1):
        ranks[lo + i] = rank
        rank = rank * (width - i) // (i + 1)
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
        local_system_ranks=ranks,
        monodromy_group_order=math.prod(math.factorial(a) for a in alphas.values()),
        constant_monodromy=all(a == 1 for a in alphas.values()),
        checks=checks,
    )
