import math
import random
import sys

import pytest

from hitchin_supports import complexes, numerology
from hitchin_supports.complexes import cographic_complex
from hitchin_supports.homology import boundary_complex, reduced_homology
from hitchin_supports.multigraph import (
    GraphError,
    HitchinPartition,
    Multigraph,
    build_dual_graph,
    delta_aff,
    double_edges,
)
from hitchin_supports.numerology import (
    cographic_top_betti,
    delta_aff_formula,
    dim_base,
    dim_total_space,
    local_system_rank,
    normalized_h1_dim,
    perversity_range,
    support_report,
)
from hitchin_supports.selftest import random_connected_multigraph

from conftest import parallel_graph


def all_partitions(n):
    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(n, n))


# ---------------------------------------------------------------------------
# delta formula
# ---------------------------------------------------------------------------


def test_delta_formula_examples():
    assert delta_aff_formula(HitchinPartition(2, (1, 1))) == 1
    assert delta_aff_formula(HitchinPartition(3, (1, 1))) == 3
    assert delta_aff_formula(HitchinPartition(2, (2,))) == 0


def test_delta_formula_matches_graph_for_small_partitions():
    for genus in (2, 3):
        for n in range(1, 6):
            for parts in all_partitions(n):
                p = HitchinPartition(genus, parts)
                assert delta_aff_formula(p) == delta_aff(build_dual_graph(p))


# ---------------------------------------------------------------------------
# dimensions and ranks
# ---------------------------------------------------------------------------


def test_dims_for_rank_two_genus_two():
    p = HitchinPartition(2, (1, 1))
    assert dim_base(p) == 5
    assert dim_total_space(p) == 10
    assert dim_total_space(p) == 2 * dim_base(p)
    assert perversity_range(p) == (1, 9)
    assert normalized_h1_dim(p) == 8


def test_local_system_ranks_rank_two():
    p = HitchinPartition(2, (1, 1))
    assert local_system_rank(p, 0) == 1
    assert local_system_rank(p, 3) == 56  # C(8, 3)
    with pytest.raises(GraphError, match="outside"):
        local_system_rank(p, 9)


def test_local_system_rank_three_parts():
    p = HitchinPartition(2, (1, 1, 1))
    assert local_system_rank(p, 0) == 2  # (3-1)!


def test_normalized_h1_matches_component_genera():
    from hitchin_supports.cks import build_graded_model

    for genus in (2, 3):
        for parts in ((1, 1), (2, 1), (1, 1, 1), (3, 2)):
            p = HitchinPartition(genus, parts)
            model = build_graded_model(p)
            assert normalized_h1_dim(p) == model.gr1_dim == 2 * sum(model.component_genera)


def test_rank_symmetry():
    for parts in ((1, 1), (2, 1), (1, 1, 1)):
        p = HitchinPartition(2, parts)
        width = normalized_h1_dim(p)
        for i in range(width + 1):
            assert local_system_rank(p, i) == local_system_rank(p, width - i)


# ---------------------------------------------------------------------------
# the top cographic Betti number and stalks
# ---------------------------------------------------------------------------


def _eliminated_top_betti(graph):
    profile = reduced_homology(boundary_complex(cographic_complex(graph)))
    return profile.betti_number(delta_aff(graph) - 1)


def test_tutte_equals_the_eliminated_top_betti_number():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_connected_multigraph(rng, 10)
        assert cographic_top_betti(g) == _eliminated_top_betti(g), (seed, g.edges)
        if g.edge_count:
            subset = rng.sample(g.labels(), rng.randrange(1, min(3, g.edge_count) + 1))
            doubled, _ = double_edges(g, subset)
            assert cographic_top_betti(doubled) == _eliminated_top_betti(doubled), (seed, subset)


def test_cographic_top_betti_small_cases():
    # 2 vertices, 2 edges: one minus-one sphere worth of reduced homology
    assert cographic_top_betti(build_dual_graph(HitchinPartition(2, (1, 1)))) == 1
    assert cographic_top_betti(build_dual_graph(HitchinPartition(2, (1, 1, 1)))) == 2
    assert cographic_top_betti(Multigraph(1, ())) == 1  # only the empty face
    assert cographic_top_betti(Multigraph(1, ((0, 0, 0),))) == 0  # a loop is a cone point
    assert cographic_top_betti(Multigraph(3, ((0, 1, 0), (1, 2, 1)))) == 1  # a tree
    assert cographic_top_betti(parallel_graph(5)) == 1
    with pytest.raises(GraphError, match="connected"):
        cographic_top_betti(Multigraph(2, ()))


@pytest.mark.parametrize("k", range(1, 13))
def test_cographic_top_betti_of_dual_graphs_is_k_minus_one_factorial(k):
    assert cographic_top_betti(build_dual_graph(HitchinPartition(2, (1,) * k))) == math.factorial(k - 1)


@pytest.mark.parametrize("genus, parts", [(3, (2, 1, 1)), (3, (3, 2, 1, 1)), (4, (2, 2, 1)), (4, (1, 1, 1, 1))])
def test_cographic_top_betti_of_multi_part_dual_graphs(genus, parts):
    graph = build_dual_graph(HitchinPartition(genus, parts))
    assert cographic_top_betti(graph) == math.factorial(len(parts) - 1)


def test_local_system_rank_examples():
    # delta = 1 on (1,1) and 4 on (1,1,1): the stalk at perversity r is
    # local_system_rank(p, r - delta)
    p = HitchinPartition(2, (1, 1))
    assert local_system_rank(p, 0) == 1
    assert local_system_rank(p, 8) == 1  # top of the range
    assert local_system_rank(p, 4) == 70  # C(8, 4)
    p3 = HitchinPartition(2, (1, 1, 1))
    assert local_system_rank(p3, 0) == 2
    with pytest.raises(GraphError):
        local_system_rank(p, -1)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


def test_report_rank_two_genus_two():
    rep = support_report(HitchinPartition(2, (1, 1)))
    assert rep.dim_base == 5
    assert rep.delta_aff == 1
    assert rep.codim_stratum == 1
    assert rep.perversity_range == (1, 9)
    assert rep.local_system_ranks == {r: math.comb(8, r - 1) for r in range(1, 10)}
    assert rep.constant_monodromy is False
    assert rep.monodromy_group_order == 2


def test_report_distinct_parts_have_constant_monodromy():
    rep = support_report(HitchinPartition(2, (2, 1)))
    assert rep.constant_monodromy is True
    assert rep.monodromy_group_order == 1


def test_report_trivial_partition():
    rep = support_report(HitchinPartition(2, (3,)))
    assert rep.delta_aff == 0
    assert rep.perversity_range == (0, 2 * rep.dim_base)
    assert rep.top_rank == 1


def test_report_homology_verification():
    rep = support_report(HitchinPartition(2, (1, 1, 1)))
    assert rep.checks["top_rank"]["result"] == "EQUAL"
    assert rep.top_rank == 2


@pytest.mark.parametrize("parts", [(1, 1, 1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (1,) * 20])
def test_report_builds_no_complex(monkeypatch, parts):
    def refuse(*args, **kwargs):
        raise AssertionError("support_report built a complex")

    # _depth_first enumerates the faces of every graph complex, however imported
    monkeypatch.setattr(complexes, "cographic_complex", refuse)
    monkeypatch.setattr(complexes, "_depth_first", refuse)
    rep = support_report(HitchinPartition(2, parts))
    assert [row["result"] for row in rep.checks.values()] == ["EQUAL", "EQUAL"]


def test_report_degrades_above_the_vertex_limit_with_warning():
    rep = support_report(HitchinPartition(2, (1,) * 21))
    assert rep.top_rank == math.factorial(20)
    assert rep.checks["top_rank"]["result"] == "SKIPPED: dual graph has 21 vertices (limit 20)"


def test_report_marks_a_rank_factor_that_disagrees_with_tutte_differ(monkeypatch):
    calls = []

    def off_by_one(graph):
        calls.append(graph.vertex_count)
        return math.factorial(graph.vertex_count - 1) + 1

    monkeypatch.setattr(numerology, "cographic_top_betti", off_by_one)
    rep = support_report(HitchinPartition(2, (2, 1, 1)))
    assert (rep.checks["top_rank"]["result"], rep.top_rank) == ("DIFFER", 2)
    # above the limit nothing is computed, so nothing is compared
    rep = support_report(HitchinPartition(2, (1,) * 21))
    assert calls == [3]
    assert rep.checks["top_rank"]["result"].startswith("SKIPPED: ")


@pytest.mark.parametrize("genus, parts", [(250, (1, 1)), (2, (1, 1, 1, 1, 1))])
def test_report_row_equals_local_system_rank_at_every_perversity(genus, parts):
    p = HitchinPartition(genus, parts)
    rep = support_report(p)
    lo, hi = rep.perversity_range
    assert list(rep.local_system_ranks) == list(range(lo, hi + 1))
    assert [rep.local_system_ranks[lo + i] for i in range(hi - lo + 1)] == [
        local_system_rank(p, i) for i in range(hi - lo + 1)
    ]


def test_report_refuses_stalk_ranks_longer_than_the_digit_limit():
    # one part: width 2g, so C(14290, 7145) has 4,300 digits and C(14292, 7146) 4,301
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default
    try:
        rep = support_report(HitchinPartition(7145, (1,)))
        assert len(str(max(rep.local_system_ranks.values()))) == 4300
        with pytest.raises(GraphError, match="4301 decimal digits, above the 4300-digit limit"):
            support_report(HitchinPartition(7146, (1,)))
        with pytest.raises(GraphError, match="digit limit"):
            support_report(HitchinPartition(100000, (1, 1)))
    finally:
        sys.set_int_max_str_digits(limit)


def test_report_constant_monodromy_flag_over_small_partitions():
    for n in range(1, 7):
        for parts in _partitions(n):
            p = HitchinPartition(2, parts)
            rep = support_report(p)
            assert rep.constant_monodromy == (len(set(parts)) == len(parts))


def _partitions(n):
    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def test_report_json_has_stable_fields():
    fields = {
        "genus", "partition", "n", "k", "dim_base", "dim_total", "delta_aff",
        "codim_stratum", "perversity_range", "normalized_h1", "top_rank",
        "local_system_ranks", "monodromy_group_order", "constant_monodromy",
        "checks",
    }
    doc = support_report(HitchinPartition(2, (1, 1))).to_json_dict()
    assert set(doc) == fields
    assert doc["partition"] == [1, 1]
    assert doc["local_system_ranks"]["1"] == 1
    assert set(support_report(HitchinPartition(2, (1,) * 20)).to_json_dict()) == fields
    assert set(support_report(HitchinPartition(2, (1,) * 21)).to_json_dict()) == fields
