"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is exact.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from hitchin_supports.cks import build_cks, build_graded_model, cks_cohomology, image_NI, top_weight_action
from hitchin_supports.cli import main as cli_main
from hitchin_supports.complexes import (
    cographic_complex,
    nonspanning_complex,
    partition_order_complex,
)
from hitchin_supports.homology import boundary_complex, reduced_homology
from hitchin_supports.multigraph import (
    HitchinPartition,
    build_dual_graph,
    double_edges,
)
from hitchin_supports.numerology import (
    delta_aff_formula,
    local_system_rank,
    normalized_h1_dim,
    perversity_range,
    support_report,
)
from hitchin_supports.selftest import random_connected_multigraph
from hitchin_supports.symgroup import (
    complete_graph,
    induced_character_oracle,
    top_homology_character,
)

from conftest import entries


def betti_of(graph):
    return dict(reduced_homology(boundary_complex(cographic_complex(graph))).betti)


def all_partitions(n):
    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def test_criterion_1_top_rank_factorial():
    started = time.monotonic()
    for r, expected in ((3, 2), (4, 6), (5, 24)):
        degree = math.comb(r, 2) - r
        betti = betti_of(complete_graph(r))
        assert betti == {degree: expected}, f"r={r}: {betti}"
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"criterion 1 PASS: ranks (r-1)! = 2, 6, 24 concentrated correctly ({elapsed:.1f}s)")


def test_criterion_2_sphere_case():
    started = time.monotonic()
    for genus in (2, 3, 4):
        graph = build_dual_graph(HitchinPartition(genus, (1, 1)))
        assert graph.edge_count == 2 * genus - 2
        betti = betti_of(graph)
        assert betti == {2 * genus - 4: 1}, f"g={genus}: {betti}"
    elapsed = time.monotonic() - started
    assert elapsed < 5
    print(f"criterion 2 PASS: rank-1 sphere homology in degree 2g-4 ({elapsed:.1f}s)")


def test_criterion_3_sign_representation():
    for genus in (2, 3, 4):
        model = build_graded_model(HitchinPartition(genus, (1, 1)))
        mat = top_weight_action(model, (1, 0))
        assert (mat.rows, mat.cols) == (1, 1)
        assert entries(mat) == {(0, 0): Fraction(-1)}, f"g={genus}: {entries(mat)}"
    print("criterion 3 PASS: vertex swap acts by -1 for g = 2, 3, 4")


def test_criterion_4_character_identification():
    started = time.monotonic()
    for r in (3, 4, 5, 6):
        top = top_homology_character(r)
        oracle = induced_character_oracle(r)
        if r < 6:
            # Lie_r is its own sign twist exactly when r is not 2 mod 4
            assert top.values == oracle.values, f"r={r}"
        assert top.values == oracle.twist_by_sign().values, f"r={r}"
    elapsed = time.monotonic() - started
    assert elapsed < 10
    print(f"criterion 4 PASS: top character is the sign twist of the induced character, r = 3..6 ({elapsed:.1f}s)")


def test_criterion_5_alexander_and_folkman():
    for r in (3, 4, 5):
        n_edges = math.comb(r, 2)
        b_cographic = betti_of(complete_graph(r))
        b_nonspanning = dict(
            reduced_homology(boundary_complex(nonspanning_complex(complete_graph(r)))).betti
        )
        b_flats = dict(
            reduced_homology(boundary_complex(partition_order_complex(r))).betti
        )
        degrees = set(b_cographic) | {n_edges - 3 - d for d in b_nonspanning} | {
            n_edges - 3 - d for d in b_flats
        }
        for i in degrees:
            dual = n_edges - 3 - i
            assert b_cographic.get(i, 0) == b_nonspanning.get(dual, 0), f"r={r}, i={i}"
            assert b_cographic.get(i, 0) == b_flats.get(dual, 0), f"r={r}, i={i}"
    print("criterion 5 PASS: duality and crosscut comparison agree for r = 3, 4, 5")


def test_criterion_6_doubling_isomorphism():
    seed = 20260811
    rng = random.Random(seed)
    checked = 0
    while checked < 200:
        graph = random_connected_multigraph(rng, 8)
        if not 1 <= graph.edge_count <= 10:
            continue
        labels = graph.labels()
        size = rng.randrange(1, min(3, len(labels)) + 1)
        subset = rng.sample(labels, size)
        doubled, _ = double_edges(graph, subset)
        before = betti_of(graph)
        after = betti_of(doubled)
        shifted = {d + len(subset): b for d, b in before.items()}
        assert shifted == after, (
            f"seed={seed}, graph={graph.edges}, I={sorted(subset)}: {before} vs {after}"
        )
        checked += 1
    print(f"criterion 6 PASS: doubling shift on 200 random multigraphs (seed {seed})")


def test_criterion_7_delta_formula_agreement():
    count = 0
    for genus in (2, 3, 4, 5):
        for n in range(1, 9):
            for parts in all_partitions(n):
                p = HitchinPartition(genus, parts)
                graph = build_dual_graph(p)
                assert delta_aff_formula(p) == graph.edge_count - graph.vertex_count + 1
                count += 1
    print(f"criterion 7 PASS: delta formula matches the dual graph on {count} partitions")


def test_criterion_8_vanishing_lemma():
    for parts, degrees in (((1, 1), range(0, 5)), ((1, 1, 1), range(0, 5))):
        model = build_graded_model(HitchinPartition(2, parts))
        labels = model.labels()
        for i in degrees:
            for size in range(len(labels) + 1):
                for subset in itertools.combinations(labels, size):
                    image = image_NI(model, subset, i)
                    removal_connected = model.graph.is_connected(without=set(subset))
                    expected_zero = size > i or not removal_connected
                    assert expected_zero == (len(image) == 0), (
                        f"parts={parts}, I={subset}, i={i}: dim {len(image)}"
                    )
    print("criterion 8 PASS: images vanish exactly off the bond matroid, i <= 4")


def test_criterion_9_highest_weight_concentration():
    started = time.monotonic()
    cases = (
        ((1, 1), 1),
        ((1, 1), 2),
        ((1, 1, 1), 4),
    )
    for parts, i in cases:
        p = HitchinPartition(2, parts)
        model = build_graded_model(p)
        delta = model.delta
        coh = cks_cohomology(build_cks(model, i))
        betti = betti_of(model.graph)[delta - 1]
        expected_at_delta = betti * math.comb(normalized_h1_dim(p), i - delta)
        for k, value in coh.top_weight.items():
            if k < delta:
                assert value == 0, f"parts={parts}, i={i}, degree {k}"
            elif k == delta:
                assert value == expected_at_delta, f"parts={parts}, i={i}: {value}"
            else:
                assert value == 0
        assert all(coh.degrees.get(k, 0) == 0 for k in coh.degrees if k > delta)
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"criterion 9 PASS: highest-weight cohomology concentrated at delta ({elapsed:.1f}s)")


def test_criterion_10_rank_formula_consistency():
    for parts in ((1, 1), (1, 1, 1)):
        p = HitchinPartition(2, parts)
        delta = delta_aff_formula(p)
        lo, hi = perversity_range(p)
        width = normalized_h1_dim(p)
        for r in range(lo, hi + 1):
            expected = math.factorial(p.k - 1) * math.comb(width, r - delta)
            assert local_system_rank(p, r - delta) == expected
    print("criterion 10 PASS: stalk dimensions match the closed rank formula")


def test_criterion_11_constant_monodromy_flag():
    count = 0
    for n in range(1, 7):
        for parts in all_partitions(n):
            rep = support_report(HitchinPartition(2, parts))
            assert rep.constant_monodromy == (len(set(parts)) == len(parts)), parts
            count += 1
    print(f"criterion 11 PASS: constant-monodromy flag exact on {count} partitions")


def test_criterion_12_determinism(capsys):
    invocations = (
        ["report", "--genus", "2", "--partition", "1,1"],
        ["complex", "--r", "4", "--kind", "nonspanning"],
        ["cks", "--genus", "2", "--partition", "1,1", "--exterior", "2"],
        ["report", "--genus", "3", "--partition", "2,1", "--format", "md"],
        ["complex", "--genus", "2", "--partition", "1,1", "--format", "csv"],
    )
    for argv in invocations:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first, argv
    with capsys.disabled():
        print("criterion 12 PASS: byte-identical documents on repeated runs")
