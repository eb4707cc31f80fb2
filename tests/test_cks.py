import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from hitchin_supports import cks as cks_module
from hitchin_supports.cks import (
    CksError,
    apply_derivation,
    build_cks,
    build_graded_model,
    cks_cohomology,
    image_NI,
    model_from_graph,
    nilpotent_family,
    picard_lefschetz,
    signed_edge_action,
    top_weight_action,
    CksBlock,
    CksPiece,
    WedgeBasis,
    _direct_cks,
)
from hitchin_supports.complexes import cographic_complex
from hitchin_supports import homology
from hitchin_supports.homology import SparseIntMatrix, TopHomologyAction, exact_rank
from hitchin_supports.multigraph import GraphError, HitchinPartition, Multigraph
from hitchin_supports.numerology import cographic_top_betti
from hitchin_supports.selftest import random_connected_multigraph
from hitchin_supports.symgroup import SymgroupError, cell_permutation

from conftest import compose, entries, parallel_graph, record_rank_leads


def path_model():
    g = Multigraph(3, ((0, 1, 0), (1, 2, 1)))
    return model_from_graph(g, (0, 0, 0))


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


def test_model_dimensions_two_parts():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    assert m.delta == 1
    assert m.gr1_dim == 8  # 2 * (2 + 2)
    assert m.dimension == 10  # = 2 (n^2 (g-1) + 1) with n = 2, g = 2


def test_model_dimensions_irreducible():
    m = build_graded_model(HitchinPartition(2, (2,)))
    assert m.delta == 0
    assert m.gr1_dim == 10
    assert m.dimension == 10


def test_model_dimensions_three_parts():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    assert m.delta == 4
    assert m.gr1_dim == 12
    assert m.dimension == 20  # = 2 (9 * 1 + 1)


def test_index_weights_layout():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    assert m.index_weights() == (0,) + (1,) * 8 + (2,)


# ---------------------------------------------------------------------------
# the edge operators
# ---------------------------------------------------------------------------


def test_operator_on_tree_model_is_zero():
    m = path_model()
    for lab in (0, 1):
        assert picard_lefschetz(m, lab).is_zero()


def test_operator_on_two_parallel_edges():
    m = model_from_graph(parallel_graph(2), (0, 0))
    n0 = picard_lefschetz(m, 0)
    n1 = picard_lefschetz(m, 1)
    # rank one, sends the cycle generator to the graph-cohomology generator,
    # and both orientation-reversed parallel copies give the same operator
    assert entries(n0) == {(0, 1): Fraction(1)}
    assert n0 == n1


def test_operator_is_orientation_independent_on_triangle():
    # the same abstract graph entered with reversed endpoint order
    g1 = Multigraph(3, ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
    g2 = Multigraph(3, ((1, 0, 0), (2, 1, 1), (2, 0, 2)))
    m1 = model_from_graph(g1, (0, 0, 0))
    m2 = model_from_graph(g2, (0, 0, 0))
    for lab in (0, 1, 2):
        assert picard_lefschetz(m1, lab) == picard_lefschetz(m2, lab)


def test_operators_square_and_multiply_to_zero_on_model():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    family = nilpotent_family(m)
    for a, b in itertools.product(family.values(), repeat=2):
        assert a.matmul(b).is_zero()


@pytest.mark.parametrize("genus", [2, 30, 600])
def test_the_operators_of_a_parallel_class_have_4_delta_minus_2_entries(genus):
    # the delta + 1 edges e_0 < ... < e_delta join the two parts, e_0 is the
    # forest and chord e_j closes by e_(j-1), so e_0 and e_delta have one
    # cycle entry each and the others two; N_e = v_e v_e^T has len(v_e)^2
    # entries, 4 (delta - 1) + 2 in all
    m = build_graded_model(HitchinPartition(genus, (1, 1)))
    assert max(map(len, m.cycles.columns.values())) <= 2
    assert sum(op.nnz for op in nilpotent_family(m).values()) == 4 * m.delta - 2


def test_rank_of_each_operator_is_at_most_one():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    from hitchin_supports.homology import exact_rank

    for lab in m.labels():
        assert exact_rank(picard_lefschetz(m, lab)) <= 1


def test_derivations_commute_on_wedge_two():
    # every wedge of wedge^2 and wedge^3 against every pair of edge operators
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    pairs = list(itertools.combinations(m.labels(), 2))
    counts = {}
    for degree in (2, 3):
        wedges = WedgeBasis(m.dimension, degree)
        ops = nilpotent_family(m)
        derive = cks_module._Derivations(wedges, ops, cks_module._readers(m, ops))
        checked = products = 0
        for widx in range(len(wedges)):
            twice = {r: derive.images(img) for r, img in derive.images({widx: 1}).items()}
            for a, b in pairs:
                ab = twice.get(b, {}).get(a, {})
                assert ab == twice.get(a, {}).get(b, {})
                checked += 1
                products += bool(ab)
        counts[degree] = (checked, products)
    assert counts == {2: (2850, 27), 3: (17100, 450)}


def test_picard_lefschetz_is_rebuilt_equal_and_build_cks_is_unchanged():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    assert picard_lefschetz(m, 0) == picard_lefschetz(m, 0)
    instance = build_cks(m, 3)
    assert {k: instance.term_dimension(k) for k in instance.terms} == {0: 1140, 1: 918, 2: 240, 3: 20}
    assert build_cks(m, 3).terms == instance.terms


# ---------------------------------------------------------------------------
# images on exterior powers
# ---------------------------------------------------------------------------


def test_image_of_empty_subset_is_everything():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    basis = image_NI(m, (), 1)
    assert len(basis) == 10


def test_image_vanishes_when_subset_exceeds_degree():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    assert image_NI(m, (0, 1), 1) == ()


def test_image_vanishes_when_removal_disconnects():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    # removing both parallel edges disconnects the dual graph
    assert image_NI(m, (0, 1), 2) == ()


def test_image_is_order_independent():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    forward = image_NI(m, (0, 2), 2)
    backward = image_NI(m, (2, 0), 2)
    assert forward == backward


def test_image_dimension_single_edge():
    # Im N_e on wedge^2: the graph-cohomology generator wedged against the
    # kernel of the pairing functional modulo that generator, dim C(8, 1)
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    basis = image_NI(m, (0,), 2)
    assert len(basis) == 8
    weights = WedgeBasis(m.dimension, 2).weights(m.index_weights())
    for vec in basis:
        ws = {weights[i] for i in vec}
        assert len(ws) == 1  # homogeneous


def test_wedge_limit_guard():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    with pytest.raises(CksError, match="too large"):
        build_cks(m, 10, wedge_limit=10)
    # image_NI refuses at the default limit: C(38, 10) wedges on g = 3
    big = build_graded_model(HitchinPartition(3, (1, 1, 1)))
    assert math.comb(big.dimension, 10) > cks_module.DEFAULT_WEDGE_LIMIT
    with pytest.raises(CksError, match="too large"):
        image_NI(big, (0,), 10)


# ---------------------------------------------------------------------------
# the assembled complex and its cohomology
# ---------------------------------------------------------------------------


def test_cks_delta_zero_is_concentrated_in_degree_zero():
    m = build_graded_model(HitchinPartition(2, (2,)))
    inst = build_cks(m, 1)
    assert set(inst.terms) == {0}
    coh = cks_cohomology(inst)
    assert coh.degrees[0] == 10


def test_cks_two_parts_exterior_one_structure():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    inst = build_cks(m, 1)
    assert inst.term_dimension(0) == 10
    assert inst.term_dimension(1) == 2  # one rank-one image per edge
    assert inst.terms.get(2) is None or inst.term_dimension(2) == 0


def test_cks_two_parts_exterior_one_cohomology():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    coh = cks_cohomology(build_cks(m, 1))
    assert coh.degrees == {0: 9, 1: 1}
    assert coh.top_weight == {0: 0, 1: 1}
    assert coh.top_weight_label == 2


def test_cks_two_parts_exterior_two_top_weight():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    coh = cks_cohomology(build_cks(m, 2))
    assert coh.top_weight[0] == 0
    assert coh.top_weight[1] == 8  # C(8, 1) * reduced Betti of two points


def test_cks_distinct_parts_top_weight():
    # partition (2, 1) at g=2: four parallel edges, delta 3, genera 5 and 2
    p = HitchinPartition(2, (2, 1))
    m = build_graded_model(p)
    assert m.delta == 3
    assert m.component_genera == (5, 2)
    assert m.gr1_dim == 14
    coh = cks_cohomology(build_cks(m, 3))
    assert coh.top_weight == {0: 0, 1: 0, 2: 0, 3: 1}  # the 2g-4 sphere factor
    assert all(coh.degrees.get(k, 0) == 0 for k in coh.degrees if k > 3)


def _drawn_multigraphs():
    # 60 seeded connected multigraphs on 2-4 vertices: a tree plus 1-3
    # parallel edges, distinct labels drawn from -20..19, genera 0 or 1
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 4)
        ends = [(rng.randrange(v), v) for v in range(1, n)]
        ends += [rng.choice(ends) for _ in range(rng.randint(1, 3))]  # parallel edges
        labels = rng.sample(range(-20, 20), len(ends))
        genera = [rng.randint(0, 1) for _ in range(n)]
        yield n, ends, labels, genera


def test_negative_edge_labels_give_the_same_complex_as_their_ranks():
    # the assembly orders subsets by label, and labels may be negative: a
    # graph with labels drawn from -20..19 has the complex of the graph whose
    # labels are their ranks 0..m-1
    negative_cycles = 0
    for n, ends, labels, genera in _drawn_multigraphs():
        rank = {lab: i for i, lab in enumerate(sorted(labels))}
        drawn = model_from_graph(Multigraph(n, tuple((u, v, lab) for (u, v), lab in zip(ends, labels))), genera)
        ranked = model_from_graph(Multigraph(n, tuple((u, v, rank[lab]) for (u, v), lab in zip(ends, labels))), genera)
        negative_cycles += any(lab < 0 and drawn.cycles.columns[lab] for lab in labels)
        for i in range(1, min(4, drawn.dimension) + 1):
            a, b = build_cks(drawn, i), build_cks(ranked, i)
            assert [a.term_dimension(k) for k in range(drawn.delta + 1)] == [
                b.term_dimension(k) for k in range(drawn.delta + 1)
            ], (ends, labels, i)
            assert [tuple(rank[lab] for lab in blk.subset) for blks in a.terms.values() for blk in blks] == [
                blk.subset for blks in b.terms.values() for blk in blks
            ], (ends, labels, i)
            ca, cb = cks_cohomology(a), cks_cohomology(b)
            assert (ca.degrees, ca.top_weight) == (cb.degrees, cb.top_weight), (ends, labels, i)
    assert negative_cycles > 30  # a negative label on a cycle defines a block from the empty subset


def test_cks_exterior_zero_top_weight_vanishes():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    coh = cks_cohomology(build_cks(m, 0))
    assert coh.degrees[0] == 1
    assert all(v == 0 for v in coh.top_weight.values())


def test_no_terms_beyond_delta():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    inst = build_cks(m, 2)
    assert max(inst.terms) <= m.delta


def test_term_dimensions_count_connected_subsets():
    # |I| = 1 blocks exist for every edge of the three-part dual graph
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    inst = _direct_cks(m, 2)
    assert {blk.subset for blk in inst.terms[1]} == {(lab,) for lab in m.labels()}
    # all 15 pairs keep the graph connected, so all appear
    assert {blk.subset for blk in inst.terms[2]} == set(itertools.combinations(m.labels(), 2))
    # within one weight summand each subset has at most one block
    for _, _, piece in inst.pieces:
        for blocks in piece.terms.values():
            assert len({blk.subset for blk in blocks}) == len(blocks)


def test_top_weight_slice_is_cographic_chain_complex_tensor_middle():
    # dimension per degree: face count of the cographic complex in dimension
    # k-1 times C(gr1_dim, i - delta), and each block contributes one line
    from math import comb

    from hitchin_supports.complexes import cographic_complex

    m = build_graded_model(HitchinPartition(2, (1, 1)))
    for i in (1, 2, 3):
        inst = _direct_cks(m, i)
        f_vec = cographic_complex(m.graph).f_vector()
        factor = comb(m.gr1_dim, i - m.delta)
        # the highest weight is carried by one piece
        (top,) = [piece for _, _, piece in inst.pieces if piece.weight == i + m.delta]
        for k in range(m.delta + 1):
            f_count = f_vec[k] if k < len(f_vec) else 0
            assert top.term_dimension(k) == f_count * factor, (i, k)
        # per-block: one top-weight line per non-disconnecting subset
        for k, blocks in top.terms.items():
            assert len(blocks) == (f_vec[k] if k < len(f_vec) else 0), (i, k)
            for blk in blocks:
                assert blk.dim() == factor, (i, blk.subset)


KUNNETH_MODELS = {
    "g2-11": (lambda: build_graded_model(HitchinPartition(2, (1, 1))), 4),
    "g3-11": (lambda: build_graded_model(HitchinPartition(3, (1, 1))), 4),
    "g2-21": (lambda: build_graded_model(HitchinPartition(2, (2, 1))), 3),
    "g2-111": (lambda: build_graded_model(HitchinPartition(2, (1, 1, 1))), 4),
    # a loop, a double edge and genera 0, 1, 2: delta 3, Gr1 of dimension 6
    "loop-mixed": (
        lambda: model_from_graph(Multigraph(3, ((0, 1, 0), (1, 2, 1), (0, 2, 2), (1, 1, 3), (0, 1, 4))), (0, 1, 2)),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(KUNNETH_MODELS))
def test_kunneth_split_matches_the_direct_complex(name):
    make, top_degree = KUNNETH_MODELS[name]
    m = make()
    for i in range(top_degree + 1):
        split, direct = build_cks(m, i), _direct_cks(m, i)
        assert [j for j, _, _ in direct.pieces] == [0] * len(direct.pieces)
        assert sorted({j for j, _, _ in split.pieces}) == list(range(max(0, i - 2 * m.delta), min(m.gr1_dim, i) + 1))
        # one piece per weight of the degree-0 wedges, over j then ascending weight
        for inst in (split, direct):
            keys = [(j, piece.weight) for j, _, piece in inst.pieces]
            assert keys == sorted(set(keys)), i
        assert list(split.terms) == list(direct.terms), i
        for k in direct.terms:
            assert split.term_dimension(k) == direct.term_dimension(k), (i, k)
        split_coh, direct_coh = cks_cohomology(split), cks_cohomology(direct)
        assert split_coh.degrees == direct_coh.degrees, i
        assert split_coh.top_weight == direct_coh.top_weight, i


# (genus, partition, exterior degree) -> cohomology, highest-weight cohomology
# and term dimensions by degree: the tables the benchmark pins for its
# cks-monodromy workload
PINNED_CKS_TABLES = {
    (2, (1, 1, 1), 4): ((1969, 678, 239, 51, 2), (0, 0, 0, 0, 2), (4845, 4896, 1800, 280, 12)),
    (2, (1, 1, 1), 5): ((5126, 1899, 921, 304, 24), (0, 0, 0, 0, 24), (15504, 18360, 8400, 1820, 144)),
    (2, (1, 1, 1, 1), 3): ((2331, 647, 118, 10) + (0,) * 6, (0,) * 10, (5984, 5952, 1980, 220)),
    (3, (1, 1), 4): ((1495, 232, 67, 12), (0, 0, 0, 12), (3060, 2240, 546, 48)),
    (2, (2, 1), 3): ((699, 92, 14, 1), (0, 0, 0, 1), (1140, 612, 96, 4)),
}


@pytest.mark.parametrize("genus, parts", sorted({(g, p) for g, p, _ in PINNED_CKS_TABLES}))
def test_picard_lefschetz_is_the_dense_outer_product_of_the_cycle_coordinates(genus, parts):
    m = build_graded_model(HitchinPartition(genus, parts))
    for model in (m, m.reduced):
        for lab in model.labels():
            v = [cyc.get(lab, 0) for cyc in model.cycles.cycles]
            dense = [[0] * model.dimension for _ in range(model.dimension)]
            for a, b in itertools.product(range(model.delta), repeat=2):
                dense[a][model.gr2_offset + b] = v[a] * v[b]
            op = picard_lefschetz(model, lab)
            assert op.rows == op.cols == model.dimension
            # entries in increasing row order, as the pinned assembly reads them
            assert [list(col.items()) for col in op.columns] == [
                [(a, dense[a][c]) for a in range(model.dimension) if dense[a][c]] for c in range(model.dimension)
            ]
            # the empty columns are one shared dict
            assert len({id(col) for col in op.columns if not col}) == 1


def _scanned_readers(ops):
    """Reference for ``cks._readers``: t -> [the r whose operator has a
    non-empty column t], in ``ops`` order, by a scan of every column."""
    readers = {}
    for r, op in ops.items():
        for t, col in enumerate(op.columns):
            if col:
                readers.setdefault(t, []).append(r)
    return readers


def test_readers_from_the_cycle_columns_equal_a_scan_of_every_operator():
    # the PINNED_CKS_TABLES strata, whole and reduced, and a multigraph with
    # a parallel class of three edges (4, 2, 7), a loop (5) and a bridge (6)
    models = []
    for genus, parts in sorted({(g, p) for g, p, _ in PINNED_CKS_TABLES}):
        m = build_graded_model(HitchinPartition(genus, parts))
        models += [m, m.reduced]
    graph = Multigraph(4, ((0, 1, 4), (0, 1, 2), (0, 1, 7), (1, 2, 3), (2, 2, 5), (0, 2, 1), (2, 3, 6)))
    models.append(model_from_graph(graph, (1, 0, 2, 0)))
    for model in models:
        ops = nilpotent_family(model)
        assert cks_module._readers(model, ops) == _scanned_readers(ops)
    # the bridge reads nothing; each list is in label order
    assert cks_module._readers(models[-1], ops) == {10: [1, 2, 3], 11: [2, 4], 12: [5], 13: [4, 7]}


@pytest.mark.parametrize("genus, parts, i", sorted(PINNED_CKS_TABLES))
def test_build_cks_reproduces_the_pinned_tables(genus, parts, i):
    degrees, top_weight, terms = PINNED_CKS_TABLES[(genus, parts, i)]
    inst = build_cks(build_graded_model(HitchinPartition(genus, parts)), i)
    coh = cks_cohomology(inst)
    assert coh.degrees == dict(enumerate(degrees))
    assert coh.top_weight == dict(enumerate(top_weight))
    assert {k: inst.term_dimension(k) for k in inst.terms} == dict(enumerate(terms))


@pytest.mark.parametrize("genus, parts, i", sorted(PINNED_CKS_TABLES))
def test_block_basis_leads_are_one(genus, parts, i):
    # coords_in_rref reads the entries of d off the pivots of these bases
    inst = build_cks(build_graded_model(HitchinPartition(genus, parts)), i)
    leads = [vec[min(vec)] for blocks in inst.terms.values() for blk in blocks for vec in blk.basis]
    assert leads and set(leads) == {1}


def test_weight_summands_are_ranked_with_clearing(monkeypatch):
    # g = 2, (1,1,1,1), wedge^3: 2,517 non-zero columns across all weight
    # slices of d; clearing hands the rank routine fewer of them
    inst = build_cks(build_graded_model(HitchinPartition(2, (1, 1, 1, 1))), 3)
    slice_columns = sum(1 for _, _, piece in inst.pieces for d in piece.differentials for col in d.columns if col)
    assert slice_columns == 2517
    ranked = []
    real = homology.exact_rank

    def recording(m, pivots=None):
        ranked.append(sum(1 for col in m.columns if col))
        return real(m, pivots=pivots)

    monkeypatch.setattr(homology, "exact_rank", recording)
    coh = cks_cohomology(inst)
    assert 0 < sum(ranked) < slice_columns
    degrees, top_weight, _ = PINNED_CKS_TABLES[(2, (1, 1, 1, 1), 3)]
    assert coh.degrees == dict(enumerate(degrees))
    assert coh.top_weight == dict(enumerate(top_weight))


# (calls, sha256) of every matrix handed to homology.exact_rank, entries in
# order, while cks_cohomology ranks the complexes of PINNED_CKS_TABLES
PINNED_RANK_INPUTS = (79, "6317bf77e0746d9c9611e2de729734f17821ff529ab338ad297c3b9f56af1904")


def test_the_rank_routine_receives_the_pinned_matrices(monkeypatch):
    calls = []
    real = homology.exact_rank

    def recording(m, pivots=None):
        calls.append((m.rows, [list(c.items()) for c in m.columns]))
        return real(m, pivots=pivots)

    monkeypatch.setattr(homology, "exact_rank", recording)
    for genus, parts, i in PINNED_CKS_TABLES:
        cks_cohomology(build_cks(build_graded_model(HitchinPartition(genus, parts)), i))
    assert (len(calls), hashlib.sha256(json.dumps(calls).encode()).hexdigest()) == PINNED_RANK_INPUTS


def _piece_digest(instances):
    # every stored differential (rows, then each column's (row, value) items
    # in order) and every block's subset and basis, piece by piece
    digest = hashlib.sha256()
    for inst in instances:
        for j, mult, piece in inst.pieces:
            digest.update(repr((j, mult, piece.weight)).encode())
            for k, blocks in piece.terms.items():
                for blk in blocks:
                    digest.update(repr((k, blk.subset, [list(vec.items()) for vec in blk.basis])).encode())
            for m in piece.differentials:
                digest.update(repr((m.rows, [list(col.items()) for col in m.columns])).encode())
    return digest.hexdigest()


# sha256 of the complete output of build_cks on the PINNED_CKS_TABLES strata
# and of _direct_cks on g = 2, (2,1), wedge^3: exact_rank sees only the
# columns that clearing keeps, so the rest of every piece is pinned here
PINNED_CKS_OUTPUT = (
    "4d054acd30fa98ebfe1121ccbc0d72b9c04599660095b14aca12ad7521b76817",
    "705662fe94d9a675d03aa9e847403a7283bc2bb9b7bd93361c4a870fd1c97394",
)


def test_assembly_keeps_every_block_and_differential_entry_in_order():
    split = [build_cks(build_graded_model(HitchinPartition(g, p)), i) for g, p, i in sorted(PINNED_CKS_TABLES)]
    direct = _direct_cks(build_graded_model(HitchinPartition(2, (2, 1))), 3)
    assert (_piece_digest(split), _piece_digest([direct])) == PINNED_CKS_OUTPUT
    # one map between each pair of consecutive non-empty degrees, none out
    # of the last
    for inst in split + [direct]:
        for _, _, piece in inst.pieces:
            assert len(piece.differentials) == len(piece.terms) - 1
            assert all(m.rows > 0 for m in piece.differentials)


def test_assembly_derives_no_image_that_the_grading_forces_to_zero(monkeypatch):
    # an edge operator reads only the Gr2 indices of its column v_r, so one
    # derivation column is built per (Gr2 wedge, operator reading it) pair,
    # and every operator lowers the ambient weight by 2, so a vector whose
    # wedges all have weight below 2 is never pushed; inputs records the
    # wedge weights of every vector _assemble pushes
    columns = []
    inputs = []
    weights = []
    real_assemble, real_images, derive = cks_module._assemble, cks_module._Derivations.images, cks_module.apply_derivation

    def assemble(derivations, wedge_weights, weight, start):
        weights.append(wedge_weights)
        try:
            return real_assemble(derivations, wedge_weights, weight, start)
        finally:
            weights.pop()

    def images(self, vec, skip=()):
        if weights:
            inputs.append({weights[-1][w] for w in vec})
        return real_images(self, vec, skip)

    def counting(wedges, cols, widx):
        columns.append(widx)
        return derive(wedges, cols, widx)

    monkeypatch.setattr(cks_module, "_assemble", assemble)
    monkeypatch.setattr(cks_module._Derivations, "images", images)
    monkeypatch.setattr(cks_module, "apply_derivation", counting)
    m = build_graded_model(HitchinPartition(30, (1, 1)))
    build_cks(m, 1)
    # the delta Gr2 wedges of the weight-2 piece, each pushed once; the
    # cycle of chord j is e_j - e_(j-1), so index j is read by those two edges
    assert len(inputs) == m.delta == 57
    assert len(columns) == 2 * m.delta == 114
    inputs.clear()
    for genus, parts, i in PINNED_CKS_TABLES:
        build_cks(build_graded_model(HitchinPartition(genus, parts)), i)
    assert inputs
    assert all(max(ws) >= 2 for ws in inputs)


def _all_pairs_pieces(model, exterior_degree):
    # the weight summands of wedge^i of the model by the all-pairs route:
    # N_r x for every block I, every operator r outside I and every basis
    # vector x, summed from apply_derivation columns with no skip, then
    # reduced into the block of I + r as _assemble reduces it
    wedges = WedgeBasis(model.dimension, exterior_degree)
    weights = wedges.weights(model.index_weights())
    ops = nilpotent_family(model)

    def image(r, x):
        out = {}
        for widx, coeff in x.items():
            for t, v in apply_derivation(wedges, ops[r].columns, widx).items():
                out[t] = out.get(t, 0) + coeff * v
        return {t: v for t, v in out.items() if v}

    pieces = []
    for w in sorted(set(weights)):
        terms = {0: (CksBlock((), tuple({i: 1} for i, wi in enumerate(weights) if wi == w)),)}
        mats = []
        for k in range(w // 2):
            targets, columns, rows = {}, [], 0
            for blk in terms[k]:
                cols = [{} for _ in blk.basis]
                for r in ops:
                    if r in blk.subset:
                        continue
                    imgs = [image(r, x) for x in blk.basis]
                    target = tuple(sorted(blk.subset + (r,)))
                    if not blk.subset or r > blk.subset[-1]:
                        basis = homology.rref_basis(imgs)
                        if basis:
                            targets[target] = (rows, basis, {min(v): pos for pos, v in enumerate(basis)})
                            rows += len(basis)
                    offset, basis, pivots = targets.get(target, (0, (), {}))
                    for col, img in zip(cols, imgs):
                        if img:
                            for pos, c in homology.coords_in_rref(img, basis, pivots).items():
                                col[offset + pos] = cks_module._insertion_sign(blk.subset, r) * c
                columns += cols
            if not targets:
                break
            mats.append(SparseIntMatrix(rows, tuple(columns)))
            terms[k + 1] = tuple(CksBlock(target, basis) for target, (_, basis, _) in targets.items())
        pieces.append(CksPiece(w, terms, tuple(mats)))
    return pieces


def _assert_equal_to_the_all_pairs_route(model, i):
    reduced = model.reduced
    js = range(max(0, i - reduced.dimension), min(model.gr1_dim, i) + 1)
    reference = [(j, piece) for j in js for piece in _all_pairs_pieces(reduced, i - j)]
    built = [(j, piece) for j, _, piece in build_cks(model, i).pieces]
    assert [(j, p.weight) for j, p in built] == [(j, p.weight) for j, p in reference]
    for (_, piece), (_, expected) in zip(built, reference):
        assert piece.terms == expected.terms
        assert piece.differentials == expected.differentials


@pytest.mark.parametrize("genus, parts, i", sorted(PINNED_CKS_TABLES))
def test_pushing_each_vector_through_its_readers_equals_the_all_pairs_route(genus, parts, i):
    # _assemble skips every (vector, operator) pair in which the operator
    # reads no index of the vector's wedges; the skipped images are zero
    _assert_equal_to_the_all_pairs_route(build_graded_model(HitchinPartition(genus, parts)), i)


def test_pushing_each_vector_through_its_readers_equals_the_all_pairs_route_on_multigraphs():
    # loops are absent from dual graphs, so one is added to every fourth draw
    loops = 0
    for count, (n, ends, labels, genera) in enumerate(_drawn_multigraphs()):
        edges = [(u, v, lab) for (u, v), lab in zip(ends, labels)]
        if count % 4 == 0:
            edges.append((0, 0, 20 + count))
            loops += 1
        model = model_from_graph(Multigraph(n, tuple(edges)), genera)
        for i in range(1, min(4, model.dimension) + 1):
            _assert_equal_to_the_all_pairs_route(model, i)
    assert loops == 15


@pytest.mark.parametrize("genus, parts, i", sorted(PINNED_CKS_TABLES))
def test_cleared_ranks_of_every_weight_summand_equal_the_uncleared_ranks(monkeypatch, genus, parts, i):
    # cks_cohomology goes through homology's cleared_homology once per piece,
    # and its homology is that of the uncleared ranks
    summands = []
    real = cks_module.cleared_homology

    def recording(dims, maps):
        result = real(dims, maps)
        summands.append((dims, maps, result))
        return result

    monkeypatch.setattr(cks_module, "cleared_homology", recording)
    instance = build_cks(build_graded_model(HitchinPartition(genus, parts)), i)
    cks_cohomology(instance)
    assert [maps for _, maps, _ in summands] == [piece.differentials for _, _, piece in instance.pieces]
    for dims, maps, result in summands:
        assert [(m.cols, m.rows) for m in maps] == list(zip(dims, dims[1:]))
        for lower, upper in zip(maps, maps[1:]):
            assert lower.rows == upper.cols
            assert upper.matmul(lower).is_zero()
        ranks = [0] + [exact_rank(m) for m in maps] + [0]
        assert result == [dim - ranks[k] - ranks[k + 1] for k, dim in enumerate(dims)]


def test_every_cleared_rank_of_the_pinned_strata_clears_with_unit_leads(monkeypatch):
    # the derivation matrices are not +-1, yet every recorded lead, the lead
    # of a stored, content-normalized pivot, is, so _cancel never scales a
    # vector
    records = record_rank_leads(monkeypatch)
    for genus, parts, i in PINNED_CKS_TABLES:
        cks_cohomology(build_cks(build_graded_model(HitchinPartition(genus, parts)), i))
    assert len(records) == 79
    for shape, rank, leads in records:
        assert len(leads) == rank and set(leads) <= {1, -1}, shape


def test_an_image_missing_a_vector_is_caught(monkeypatch):
    rref_basis = cks_module.rref_basis
    monkeypatch.setattr(cks_module, "rref_basis", lambda vectors: rref_basis(vectors)[:-1])
    with pytest.raises(CksError, match="image outside its block"):
        build_cks(build_graded_model(HitchinPartition(2, (1, 1, 1))), 3)


def test_an_image_with_no_block_is_caught(monkeypatch):
    rref_basis = cks_module.rref_basis

    def drop_lines(vectors):
        basis = rref_basis(vectors)
        return () if len(basis) == 1 else basis

    monkeypatch.setattr(cks_module, "rref_basis", drop_lines)
    with pytest.raises(CksError, match="differential leaves the complex: no block for its target"):
        build_cks(build_graded_model(HitchinPartition(2, (1, 1, 1))), 3)


def test_an_operator_that_breaks_the_weight_grading_is_caught(monkeypatch):
    # one edge operator also sends a Gr1 class into W0, as it sends a cycle:
    # weight drops by 1, not 2.  The operators still square and multiply to
    # zero, so only the grading check sees it
    family = cks_module.nilpotent_family

    def skewed(model):
        ops = dict(family(model))
        lab = min(ops)
        cols = [dict(col) for col in ops[lab].columns]
        cols[model.delta] = dict(next(col for col in cols if col))  # the first Gr1 class
        ops[lab] = SparseIntMatrix(model.dimension, tuple(cols))
        return ops

    monkeypatch.setattr(cks_module, "nilpotent_family", skewed)
    with pytest.raises(CksError, match="differential breaks the weight grading"):
        _direct_cks(build_graded_model(HitchinPartition(2, (1, 1))), 2)


def test_an_unsigned_differential_fails_the_square_zero_check(monkeypatch):
    monkeypatch.setattr(cks_module, "_insertion_sign", lambda subset, label: 1)
    with pytest.raises(CksError, match="does not square to zero"):
        build_cks(build_graded_model(HitchinPartition(2, (1, 1, 1))), 3)


def test_cohomology_reads_the_stored_differentials(monkeypatch):
    calls = []
    derive = cks_module.apply_derivation

    def counting(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(cks_module, "apply_derivation", counting)
    inst = build_cks(build_graded_model(HitchinPartition(2, (1, 1, 1))), 4)
    assert calls  # the assembly is counted
    calls.clear()
    cks_cohomology(inst)
    assert calls == []


def test_each_derivation_column_is_built_once_per_exterior_power(monkeypatch):
    calls = []
    derive = cks_module.apply_derivation

    def counting(wedges, cols, widx):
        calls.append((wedges, cols, widx))
        return derive(wedges, cols, widx)

    monkeypatch.setattr(cks_module, "apply_derivation", counting)
    model = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    inst = build_cks(model, 4)
    # no (exterior power, operator, wedge) column is built twice: the pieces of one exterior power share them
    pairs = {(id(wedges), id(cols), widx) for wedges, cols, widx in calls}
    assert len(pairs) == len(calls)
    labels = len(model.labels())
    # one call per basis vector and operator after its subset, every degree
    # counted (3,102 here), is what the assembly would cost without the cache
    per_basis_vector = sum(
        blk.dim() * (labels - len(blk.subset))
        for _, _, piece in inst.pieces
        for blocks in piece.terms.values()
        for blk in blocks
    )
    assert 0 < len(calls) < per_basis_vector


# ---------------------------------------------------------------------------
# the highest-weight action of graph automorphisms
# ---------------------------------------------------------------------------


def test_signed_edge_action_of_vertex_swap():
    g = parallel_graph(3)
    act = signed_edge_action((1, 0), g)
    assert act == {0: (0, -1), 1: (1, -1), 2: (2, -1)}


def test_vertex_swap_acts_by_sign_genus_two():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    mat = top_weight_action(m, (1, 0))
    assert (mat.rows, mat.cols) == (1, 1)
    assert entries(mat) == {(0, 0): Fraction(-1)}


def test_vertex_swap_acts_by_sign_genus_three():
    m = build_graded_model(HitchinPartition(3, (1, 1)))
    assert m.delta == 3
    mat = top_weight_action(m, (1, 0))
    assert (mat.rows, mat.cols) == (1, 1)
    assert entries(mat) == {(0, 0): Fraction(-1)}


def test_identity_acts_trivially_on_top_weight():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    mat = top_weight_action(m, (0, 1, 2))
    assert mat == SparseIntMatrix.identity(mat.rows)
    assert mat.rows == 2  # rank (k-1)! = 2


def test_three_cycle_top_weight_action_has_finite_order():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    mat = top_weight_action(m, (1, 2, 0))
    cubed = mat.matmul(mat).matmul(mat)
    assert cubed == SparseIntMatrix.identity(mat.rows)


def test_top_weight_action_composes_as_a_representation():
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    perms = list(itertools.permutations(range(3)))
    mats = {p: top_weight_action(m, p) for p in perms}
    for sigma, tau in itertools.product(perms, repeat=2):
        assert mats[sigma].matmul(mats[tau]) == mats[compose(sigma, tau)], (sigma, tau)


@pytest.mark.parametrize("genus, parts", [(2, (1, 1)), (3, (1, 1)), (2, (1, 1, 1)), (2, (2, 1))])
def test_top_weight_slice_is_the_cographic_cochain_complex_up_to_a_gauge(genus, parts):
    # the lemma top_weight_action rests on, read off the assembled complex:
    # one line per cographic face, the coboundary pattern I -> I + r with
    # entries +-1, and one sign per line turning them into insertion signs
    m = build_graded_model(HitchinPartition(genus, parts))
    (piece,) = [piece for _, _, piece in build_cks(m.reduced, m.delta).pieces if piece.weight == 2 * m.delta]
    lines = {}  # degree -> subset -> column of the top-weight line
    for k, blocks in piece.terms.items():
        for col, blk in enumerate(blocks):
            assert blk.dim() == 1
            assert blk.subset not in lines.setdefault(k, {})
            lines[k][blk.subset] = col
    cographic = cographic_complex(m.graph)
    faces = {(): 0} | {
        tuple(cographic.ground_set[i] for i in face): len(face)
        for dim_faces in cographic.faces_by_dim
        for face in dim_faces
    }
    assert {subset: k for k, by_subset in lines.items() for subset in by_subset} == faces

    gauge = {(): 1}
    for k in sorted(lines):
        for subset, col in lines[k].items():
            # no map is stored out of the top degree, which has no cofaces
            entries = piece.differentials[k].columns[col] if k < len(piece.differentials) else {}
            cofaces = {}
            for r in m.labels():
                target = tuple(sorted(subset + (r,)))
                if r not in subset and target in lines.get(k + 1, {}):
                    cofaces[lines[k + 1][target]] = (target, (-1) ** sum(1 for x in subset if x < r))
            assert set(entries) == set(cofaces), subset
            for row, (target, insertion) in cofaces.items():
                assert entries[row] in (1, -1)
                gauge.setdefault(target, entries[row] * gauge[subset] * insertion)
                assert gauge[subset] * entries[row] * gauge[target] == insertion, (subset, target)
    assert len(gauge) == len(faces)


# (genus, partition) -> trace of top_weight_action for every admissible
# vertex permutation, as the wedge transport through the assembled top-weight
# slice computed them.  That route stopped at delta = 11; g = 8, (1, 1) has
# delta = 13 and its swap still acts on the line by -1.
_S3 = dict.fromkeys(itertools.permutations(range(3)), 0) | {(0, 1, 2): 2, (1, 2, 0): -1, (2, 0, 1): -1}
PINNED_TRACES = {
    (2, (1, 1)): {(0, 1): 1, (1, 0): -1},
    (3, (1, 1)): {(0, 1): 1, (1, 0): -1},
    (8, (1, 1)): {(0, 1): 1, (1, 0): -1},
    (2, (2, 1)): {(0, 1): 1, (1, 0): -1},
    (2, (2, 2)): {(0, 1): 1, (1, 0): -1},
    (2, (1, 1, 1)): _S3,
    (3, (1, 1, 1)): _S3,
    (2, (2, 1, 1)): {(0, 1, 2): 2, (0, 2, 1): 0},
    (2, (1, 1, 1, 1)): dict.fromkeys(itertools.permutations(range(4)), 0)
    | {(0, 1, 2, 3): 6, (1, 0, 3, 2): -2, (2, 3, 0, 1): -2, (3, 2, 1, 0): -2},
}


@pytest.mark.parametrize("genus, parts", sorted(PINNED_TRACES))
def test_top_weight_action_reproduces_the_pinned_traces(genus, parts):
    m = build_graded_model(HitchinPartition(genus, parts))
    pinned = PINNED_TRACES[(genus, parts)]
    betti = cographic_top_betti(m.graph)
    for perm in itertools.permutations(range(len(parts))):
        if perm not in pinned:
            with pytest.raises(SymgroupError):
                top_weight_action(m, perm)
            continue
        mat = top_weight_action(m, perm)
        assert mat.rows == mat.cols == betti
        assert sum(col.get(j, 0) for j, col in enumerate(mat.columns)) == pinned[perm], perm


def test_top_weight_action_on_a_delta_eight_stratum():
    m = build_graded_model(HitchinPartition(2, (2, 1, 1)))
    assert m.delta == 8
    identity = top_weight_action(m, (0, 1, 2))
    assert identity.rows == cographic_top_betti(m.graph) == 2
    assert identity == SparseIntMatrix.identity(identity.rows)
    swap = top_weight_action(m, (0, 2, 1))
    assert swap.matmul(swap) == identity


def _cycle_space_determinant(model, action) -> Fraction:
    """det of the signed edge action on the cycle space, by elimination over Q
    on its matrix in the cycle basis.  On the chords that basis is
    unitriangular with 1 on the diagonal, so an image's coordinates come by
    back-substitution over the chords in reverse order."""
    cycles = model.cycles
    rows = []
    for cyc in cycles.cycles:
        image = {}
        for lab, coeff in cyc.items():
            target, sign = action[lab]
            image[target] = image.get(target, 0) + sign * coeff
        coords = [0] * cycles.rank
        rest = dict(image)
        for j in reversed(range(cycles.rank)):
            coords[j] = c = rest.get(cycles.chords[j], 0)
            for lab, v in cycles.cycles[j].items():
                rest[lab] = rest.get(lab, 0) - c * v
        rebuilt = {}
        for c, basis_cycle in zip(coords, cycles.cycles):
            for lab, v in basis_cycle.items():
                rebuilt[lab] = rebuilt.get(lab, 0) + c * v
        assert {k: v for k, v in rebuilt.items() if v} == {k: v for k, v in image.items() if v}
        rows.append([Fraction(c) for c in coords])
    det = Fraction(1)
    for i in range(len(rows)):
        pivot = next(r for r in range(i, len(rows)) if rows[r][i])
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, len(rows)):
            f = rows[r][i] / rows[i][i]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return det


def test_the_twist_is_the_determinant_on_the_cycle_space():
    # seeded multigraphs with loops, parallel and reversed edges; on 31 of
    # these actions the determinant is -1 on a non-zero top homology
    rng = random.Random(5)
    flipped = 0
    for _ in range(200):
        graph = random_connected_multigraph(rng, 8)
        m = model_from_graph(graph, (0,) * graph.vertex_count)
        if m.delta < 1:
            continue
        simplicial = TopHomologyAction(cographic_complex(graph))
        for perm in itertools.permutations(range(graph.vertex_count)):
            try:
                action = signed_edge_action(perm, graph)
            except SymgroupError:
                continue
            det = _cycle_space_determinant(m, action)
            plain = simplicial.matrix(cell_permutation(perm, graph))
            assert entries(top_weight_action(m, perm)) == {k: det * v for k, v in entries(plain).items()}
            flipped += det == -1 and plain.rows > 0
    assert flipped == 31


def test_top_weight_action_is_built_once_per_model(monkeypatch):
    built, assembled = [], []
    action, assemble = cks_module.TopHomologyAction, cks_module._assemble

    def counting_action(c):
        built.append(c)
        return action(c)

    def counting_assemble(*args):
        assembled.append(args)
        return assemble(*args)

    monkeypatch.setattr(cks_module, "TopHomologyAction", counting_action)
    monkeypatch.setattr(cks_module, "_assemble", counting_assemble)
    m = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    first = top_weight_action(m, (1, 2, 0))
    assert top_weight_action(m, (1, 2, 0)) == first
    assert top_weight_action(m, (0, 2, 1)).rows == first.rows
    assert len(built) == 1
    assert assembled == []
    # the reduced model is built once too, and build_cks assembles on it
    assert m.reduced is m.reduced
    build_cks(m, 2)
    assert assembled
    assert all(args[0].ops == nilpotent_family(m.reduced) for args in assembled)


def test_unknown_labels_and_bad_models_are_refused():
    m = build_graded_model(HitchinPartition(2, (1, 1)))
    with pytest.raises(GraphError, match="no such edge: 99"):
        picard_lefschetz(m, 99)
    with pytest.raises(GraphError, match="no such edge: 99"):
        image_NI(m, (0, 99), 1)
    with pytest.raises(CksError, match="one genus per vertex required"):
        model_from_graph(parallel_graph(2), (1,))
    with pytest.raises(GraphError, match="graph must be connected"):
        model_from_graph(Multigraph(3, ((0, 1, 0),)), (1, 1, 1))
    # a tree has delta = 0, so there is no top-weight action to take
    with pytest.raises(CksError, match="the action needs delta >= 1"):
        top_weight_action(path_model(), (2, 1, 0))
    with pytest.raises(SymgroupError, match="not a vertex permutation"):
        signed_edge_action((0, 0), m.graph)
