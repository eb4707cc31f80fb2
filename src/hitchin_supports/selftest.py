"""Seeded property-test drivers for the invariants the library promises.

Each property draws its own instances from a shared seeded generator, so a
run is reproducible from the recorded seed, and failures carry a dump of the
offending instance.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .cks import (
    _direct_cks,
    build_cks,
    build_graded_model,
    cks_cohomology,
    image_NI,
    model_from_graph,
    nilpotent_family,
)
from .complexes import (
    cographic_complex,
    nonspanning_complex,
    partition_order_complex,
)
from .homology import (
    HomologyError,
    SparseIntMatrix,
    TopHomologyAction,
    boundary_complex,
    reduced_homology,
    top_cycle_basis,
)
from .multigraph import (
    HitchinPartition,
    Multigraph,
    build_dual_graph,
    cycle_space,
    delta_aff,
    double_edges,
)
from .numerology import cographic_top_betti, delta_aff_formula
from .symgroup import (
    cell_permutation,
    complete_graph,
    partition_lattice_character,
    top_homology_character,
)


class SelftestConfig(NamedTuple):
    """The seed and sizes of a selftest run."""

    seed: int
    max_edges: int = 10
    count: int = 30
    r: int = 4


def random_connected_multigraph(rng: random.Random, max_edges: int) -> Multigraph:
    """Random connected multigraph: spanning tree plus extra parallel/loop edges."""
    v = rng.randrange(1, 6)
    edges = []
    label = 0
    for w in range(1, v):
        edges.append((rng.randrange(w), w, label))
        label += 1
    extra = rng.randrange(0, max(1, max_edges - len(edges) + 1))
    for _ in range(extra):
        a = rng.randrange(v)
        b = rng.randrange(v)
        edges.append((a, b, label))
        label += 1
    return Multigraph(v, tuple(edges))


def random_partition(rng: random.Random) -> HitchinPartition:
    genus = rng.randrange(2, 7)
    n = rng.randrange(1, 9)
    parts = []
    remaining = n
    while remaining:
        p = rng.randrange(1, remaining + 1)
        parts.append(p)
        remaining -= p
    return HitchinPartition(genus, tuple(sorted(parts, reverse=True)))


def _betti_of(graph: Multigraph) -> dict[int, int]:
    profile = reduced_homology(boundary_complex(cographic_complex(graph)))
    return dict(profile.betti)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def prop_delta_formula(rng, cfg):
    for _ in range(cfg.count):
        p = random_partition(rng)
        lhs = delta_aff_formula(p)
        rhs = delta_aff(build_dual_graph(p))
        if lhs != rhs:
            return False, f"partition {p.parts} at g={p.genus}: {lhs} != {rhs}"
    return True, f"{cfg.count} random partitions"


def prop_relabel_invariance(rng, cfg):
    for _ in range(cfg.count):
        g = random_connected_multigraph(rng, cfg.max_edges)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = Multigraph(
            g.vertex_count, tuple((perm[u], perm[v], 1000 - lab) for u, v, lab in g.edges)
        )
        if delta_aff(relabeled) != delta_aff(g):
            return False, f"graph {g.edges}"
    return True, f"{cfg.count} random graphs"


def prop_cycle_space(rng, cfg):
    for _ in range(cfg.count):
        g = random_connected_multigraph(rng, cfg.max_edges)
        basis = cycle_space(g)
        if basis.rank != delta_aff(g):
            return False, f"rank mismatch on {g.edges}"
        by_label = {lab: (u, v) for u, v, lab in g.edges}
        for cyc in basis.cycles:
            boundary = [0] * g.vertex_count
            for lab, coeff in cyc.items():
                u, v = by_label[lab]
                boundary[v] += coeff
                boundary[u] -= coeff
            if any(boundary):
                return False, f"cycle {cyc} is not closed on {g.edges}"
    return True, f"{cfg.count} random graphs"


def _subsets_where(g: Multigraph, keeps) -> tuple:
    """Index subsets of the sorted labels whose label set ``keeps`` accepts,
    by dimension and in lexicographic order, scanning all 2^m of them."""
    labels = g.labels()
    levels = [
        tuple(s for s in itertools.combinations(range(len(labels)), k) if keeps({labels[i] for i in s}))
        for k in range(1, len(labels) + 1)
    ]
    while levels and not levels[-1]:
        levels.pop()
    return tuple(levels)


def prop_downward_closure(rng, cfg):
    """Closure of both graph complexes, and their faces against a union-find
    test of every edge subset."""
    for _ in range(max(1, cfg.count // 2)):
        g = random_connected_multigraph(rng, min(cfg.max_edges, 8))
        cographic = cographic_complex(g)
        try:
            boundary_complex(cographic)  # raises unless every facet of every face is a face
        except HomologyError:
            return False, f"cographic closure fails on {g.edges}"
        if cographic.faces_by_dim != _subsets_where(g, lambda drop: g.is_connected(without=drop)):
            return False, f"cographic faces differ from the subset scan on {g.edges}"
        if g.vertex_count < 2:
            continue
        nonspanning = nonspanning_complex(g)
        try:
            boundary_complex(nonspanning)
        except HomologyError:
            return False, f"nonspanning closure fails on {g.edges}"
        every = set(g.labels())
        if nonspanning.faces_by_dim != _subsets_where(g, lambda kept: g.component_count(without=every - kept) > 1):
            return False, f"nonspanning faces differ from the subset scan on {g.edges}"
    return True, "closure on random graphs"


def prop_tutte(rng, cfg):
    """The deletion-contraction T_G(1, 0) against the top Betti number of
    the eliminated cographic complex."""
    for _ in range(max(4, cfg.count // 3)):
        g = random_connected_multigraph(rng, min(cfg.max_edges, 9))
        profile = reduced_homology(boundary_complex(cographic_complex(g)))
        tutte, betti = cographic_top_betti(g), profile.betti_number(delta_aff(g) - 1)
        if tutte != betti:
            return False, f"graph {g.edges}: T(1, 0) = {tutte}, top Betti number {betti}"
    return True, "deletion-contraction against elimination"


def prop_concentration(rng, cfg):
    for _ in range(max(4, cfg.count // 3)):
        g = random_connected_multigraph(rng, min(cfg.max_edges, 9))
        delta = delta_aff(g)
        if delta < 1:
            continue
        has_loop = any(u == v for u, v, _ in g.edges)
        betti = _betti_of(g)
        if has_loop:
            if betti:
                return False, f"loop graph {g.edges} has homology {betti}"
        elif set(betti) - {delta - 1}:
            return False, f"graph {g.edges}: betti {betti}, delta {delta}"
    return True, "bouquet concentration"


def prop_doubling(rng, cfg):
    for _ in range(max(4, cfg.count // 3)):
        g = random_connected_multigraph(rng, min(cfg.max_edges, 7))
        labels = g.labels()
        if not labels:
            continue  # a single vertex: no edge to double
        size = rng.randrange(1, min(3, len(labels)) + 1)
        subset = rng.sample(labels, size)
        doubled, _ = double_edges(g, subset)
        before = _betti_of(g)
        after = _betti_of(doubled)
        shifted = {d + len(subset): b for d, b in before.items()}
        if shifted != after:
            return False, f"graph {g.edges}, I={sorted(subset)}: {before} vs {after}"
    return True, "doubling shift"


def prop_alexander(rng, cfg):
    r = cfg.r
    n_edges = r * (r - 1) // 2
    b_c = _betti_of(complete_graph(r))
    nsp = reduced_homology(boundary_complex(nonspanning_complex(complete_graph(r)))).betti
    for i in set(b_c) | {n_edges - 3 - d for d in nsp}:
        if b_c.get(i, 0) != nsp.get(n_edges - 3 - i, 0):
            return False, f"r={r}, degree {i}: {b_c} vs {dict(nsp)}"
    return True, f"duality at r={r}"


def prop_folkman(rng, cfg):
    r = cfg.r
    nsp = reduced_homology(boundary_complex(nonspanning_complex(complete_graph(r)))).betti
    flats = reduced_homology(boundary_complex(partition_order_complex(r))).betti
    if dict(nsp) != dict(flats):
        return False, f"r={r}: {dict(nsp)} vs {dict(flats)}"
    return True, f"crosscut comparison at r={r}"


def prop_representation_laws(rng, cfg):
    g = complete_graph(4)
    action = TopHomologyAction(cographic_complex(g))
    identity = action.matrix(tuple(range(len(g.labels()))))
    if identity != SparseIntMatrix.identity(action.rank):
        return False, "identity law fails"
    for _ in range(6):
        a = list(range(4))
        b = list(range(4))
        rng.shuffle(a)
        rng.shuffle(b)
        pa, pb = cell_permutation(a, g), cell_permutation(b, g)
        composed = tuple(pa[pb[i]] for i in range(len(pb)))
        if action.matrix(pa).matmul(action.matrix(pb)) != action.matrix(composed):
            return False, f"composition law fails for {a}, {b}"
    return True, "group laws on the complete graph"


def prop_partition_character(rng, cfg):
    """The S_r character on the top homology of the partition lattice against
    the one on the cographic complex of K_r, at r clamped to 3..5."""
    r = min(max(cfg.r, 3), 5)
    lattice = partition_lattice_character(r)
    cographic = top_homology_character(r)
    if lattice.values != cographic.values:
        return False, f"r={r}: {lattice.to_json_dict()} vs {cographic.to_json_dict()}"
    return True, f"partition lattice against cographic complex at r={r}"


def prop_nilpotent_commute(rng, cfg):
    model = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    family = nilpotent_family(model)
    for a, b in itertools.combinations(family.values(), 2):
        if not a.matmul(b).is_zero() or not b.matmul(a).is_zero():
            return False, "operator products are nonzero on the model"
    return True, "commuting nilpotents"


def prop_vanishing(rng, cfg):
    model = build_graded_model(HitchinPartition(2, (1, 1)))
    labels = model.labels()
    for i in range(0, 3):
        for size in range(len(labels) + 1):
            for subset in itertools.combinations(labels, size):
                image = image_NI(model, subset, i)
                removal_connected = model.graph.is_connected(without=set(subset))
                expected_zero = len(subset) > i or not removal_connected
                if expected_zero != (len(image) == 0):
                    return False, f"I={subset}, i={i}"
    return True, "image vanishing on the two-part model"


def prop_kunneth(rng, cfg):
    """The Kuenneth split of ``build_cks`` against the complex assembled on
    the whole exterior power."""
    for _ in range(cfg.count):
        g = random_connected_multigraph(rng, min(cfg.max_edges, 4))
        model = model_from_graph(g, [rng.randrange(2) for _ in range(g.vertex_count)])
        i = rng.randrange(min(3, model.dimension) + 1)
        if _cks_tables(build_cks(model, i)) != _cks_tables(_direct_cks(model, i)):
            return False, f"graph {g.edges}, genera {model.component_genera}, i={i}"
    return True, "split equals the direct complex on random graphs"


def _cks_tables(instance) -> tuple:
    coh = cks_cohomology(instance)
    return {k: instance.term_dimension(k) for k in instance.terms}, coh.degrees, coh.top_weight


def prop_unit_leads(rng, cfg):
    """Every top-cycle basis vector of the cographic and non-spanning
    complexes has lead 1, which ``coords_in_rref`` relies on."""
    for _ in range(cfg.count):
        g = random_connected_multigraph(rng, min(cfg.max_edges, 9))
        complexes = [("cographic", cographic_complex(g))]
        if g.vertex_count >= 2:
            complexes.append(("nonspanning", nonspanning_complex(g)))
        for kind, c in complexes:
            leads = {vec[min(vec)] for vec in top_cycle_basis(boundary_complex(c).boundaries)}
            if leads - {1}:
                return False, f"{kind} complex of {g.edges}: leads {sorted(leads)}"
    return True, f"{cfg.count} random graphs"


PROPERTIES = {
    "delta_formula": prop_delta_formula,
    "relabel": prop_relabel_invariance,
    "cycle_space": prop_cycle_space,
    "closure": prop_downward_closure,
    "tutte": prop_tutte,
    "concentration": prop_concentration,
    "doubling": prop_doubling,
    "alexander": prop_alexander,
    "folkman": prop_folkman,
    "rep_laws": prop_representation_laws,
    "partition_character": prop_partition_character,
    "nilpotent_commute": prop_nilpotent_commute,
    "vanishing": prop_vanishing,
    "kunneth": prop_kunneth,
    "unit_leads": prop_unit_leads,
}


def run_selftest(cfg: SelftestConfig, only: str | None = None) -> dict:
    names = sorted(PROPERTIES)
    if only is not None:
        if only not in PROPERTIES:
            raise KeyError(f"unknown property: {only}")
        names = [only]

    def run_one(name: str):
        rng = random.Random((cfg.seed, name).__repr__())
        try:
            ok, detail = PROPERTIES[name](rng, cfg)
        except Exception as exc:  # a property crash is a failure with context
            ok, detail = False, f"exception: {exc!r}"
        return {"name": name, "pass": bool(ok), "detail": detail}

    results = [run_one(name) for name in names]
    return {
        "seed": cfg.seed,
        "max_edges": cfg.max_edges,
        "count": cfg.count,
        "r": cfg.r,
        "results": results,
        "all_pass": all(r["pass"] for r in results),
    }
