import copy
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from hitchin_supports import homology
from hitchin_supports.complexes import FaceComplex, cographic_complex, nonspanning_complex, partition_order_complex
from hitchin_supports.homology import (
    HomologyError,
    IntChainComplex,
    SparseIntMatrix,
    TopHomologyAction,
    boundary_complex,
    cleared_homology,
    coords_in_rref,
    exact_rank,
    reduced_homology,
    rref_basis,
    top_cycle_basis,
)
from hitchin_supports.multigraph import HitchinPartition, Multigraph, build_dual_graph
from hitchin_supports.selftest import random_connected_multigraph

from conftest import complete_graph, entries, face_complex, parallel_graph, record_rank_leads, transpose


def points_complex(n: int) -> FaceComplex:
    return face_complex(tuple(range(n)), (tuple((i,) for i in range(n)),))


def triangle_boundary_complex() -> FaceComplex:
    # hollow triangle: 3 vertices, 3 edges
    return face_complex(
        (0, 1, 2),
        (
            ((0,), (1,), (2,)),
            ((0, 1), (0, 2), (1, 2)),
        ),
    )


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------


def int_columns(cols: int, entries) -> list[dict[int, int]]:
    out = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        out[c][r] = v
    return out


def from_entries(rows: int, cols: int, entries) -> SparseIntMatrix:
    return SparseIntMatrix(rows, tuple(int_columns(cols, {k: v for k, v in entries.items() if v})))


def test_rank_of_zero_matrix():
    m = from_entries(4, 7, {})
    assert exact_rank(m) == 0


def random_int_entries(rng: random.Random, rows: int, cols: int) -> dict:
    """About half the cells filled with small non-zero ints."""
    return {
        (r, c): rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        for r in range(rows)
        for c in range(cols)
        if rng.random() < 0.5
    }


def dense(rows: int, cols: int, entries) -> list[list[Fraction]]:
    return [[Fraction(entries.get((r, c), 0)) for c in range(cols)] for r in range(rows)]


def test_matmul_and_transpose_match_a_dense_reference():
    rng = random.Random(29)
    for _ in range(40):
        n, k, m = rng.randrange(0, 7), rng.randrange(0, 7), rng.randrange(0, 7)
        a_entries, b_entries = random_int_entries(rng, n, k), random_int_entries(rng, k, m)
        a = from_entries(n, k, a_entries)
        b = from_entries(k, m, b_entries)
        da, db = dense(n, k, a_entries), dense(k, m, b_entries)
        product = [
            [sum((da[r][i] * db[i][c] for i in range(k)), Fraction(0)) for c in range(m)]
            for r in range(n)
        ]
        ab = a.matmul(b)
        assert (ab.rows, ab.cols) == (n, m)
        assert dense(n, m, entries(ab)) == product
        assert ab == from_entries(n, m, {(r, c): int(product[r][c]) for r in range(n) for c in range(m)})
        at = transpose(a)
        assert (at.rows, at.cols) == (k, n)
        assert dense(k, n, entries(at)) == [[da[r][c] for r in range(n)] for c in range(k)]
        assert transpose(at) == a
        for mat in (a, ab, at):
            assert all(v and type(v) is int for v in entries(mat).values())


def test_matmul_refuses_a_shape_mismatch():
    with pytest.raises(HomologyError, match="shape mismatch"):
        SparseIntMatrix.identity(2).matmul(SparseIntMatrix.identity(3))


def test_rank_of_identity():
    assert exact_rank(SparseIntMatrix.identity(5)) == 5


def test_rank_of_triangle_boundary():
    cc = boundary_complex(triangle_boundary_complex())
    assert exact_rank(cc.boundaries[1]) == 2


def test_rank_of_a_banded_matrix_of_side_600_and_its_doubled_columns():
    # banded full-rank plus duplicated columns: leads 2 and -3 scale rows
    n = 600
    entries = {}
    for i in range(n):
        entries[(i, i)] = 2
        if i + 1 < n:
            entries[(i, i + 1)] = -3
    m = from_entries(n, n, entries)
    assert exact_rank(m) == n
    duplicated = {(r, c): v for (r, c), v in entries.items()}
    duplicated.update({(r, c + n): v for (r, c), v in entries.items()})
    m2 = from_entries(n, 2 * n, duplicated)
    assert exact_rank(m2) == n


def test_rank_random_matrices_match_dense_reference():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.5:
                    entries[(r, c)] = rng.randrange(-4, 5)
        m = from_entries(rows, cols, entries)
        # dense reference elimination
        dense = [[Fraction(entries.get((r, c), 0)) for c in range(cols)] for r in range(rows)]
        rank = 0
        for c in range(cols):
            piv = next((r for r in range(rank, rows) if dense[r][c]), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            for r in range(rows):
                if r != rank and dense[r][c]:
                    f = dense[r][c] / dense[rank][c]
                    dense[r] = [x - f * y for x, y in zip(dense[r], dense[rank])]
            rank += 1
        assert exact_rank(m) == rank


def dense_rank(rows: int, cols: int, entries) -> int:
    """Plain Gaussian elimination over Fraction, the reference for the kernel."""
    dense = [[Fraction(entries.get((r, c), 0)) for c in range(cols)] for r in range(rows)]
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if dense[r][c]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        for r in range(rank + 1, rows):
            if dense[r][c]:
                f = dense[r][c] / dense[rank][c]
                dense[r] = [x - f * y for x, y in zip(dense[r], dense[rank])]
        rank += 1
    return rank


def test_kernel_matches_dense_reference_on_fill_heavy_matrices():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randrange(1, 31), rng.randrange(1, 31)
        density = rng.uniform(0.5, 1.0)
        # a low-rank product makes most eliminations fill in and cancel
        inner = rng.randrange(1, min(rows, cols) + 1)
        a = [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(rows)]
        b = [
            [rng.randrange(-3, 4) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(inner)
        ]
        entries = {}
        for r in range(rows):
            for c in range(cols):
                v = sum(a[r][k] * b[k][c] for k in range(inner))
                if v:
                    entries[(r, c)] = v
        rank = dense_rank(rows, cols, entries)
        columns = int_columns(cols, entries)
        assert homology.exact_rank_int(columns, rows) == rank
        assert homology.exact_rank_int(transpose(SparseIntMatrix(rows, tuple(columns))).columns, cols) == rank


P1, P2 = 2**31 - 1, 2**30 + 3  # primes


def _banded(n: int) -> list[dict[int, int]]:
    """(2, -3) on the diagonal and above it: rank n over Q."""
    return [{i: 2, i - 1: -3} if i else {0: 2} for i in range(n)]


NON_UNIT_INPUTS = {
    # an entry far above every machine word
    "2**70": ([{0: 2**70, 1: 1}, {0: 1}], 2, 2),
    # a lead 2 whose vector holds nothing else
    "bare lead 2": ([{0: 2}, {0: 3, 1: 1}], 2, 2),
    # leads 2 clear the band from row 0 down, each the only entry of its vector
    "banded 40": (_banded(40) + [{0: 2}], 40, 40),
    # one column repeated, and a column P1 e_n that no other vector holds
    "banded 40 and a column P1 e_40": (_banded(40) + [{0: 2}, {40: P1}], 41, 41),
    "banded 600 and a column P1 e_600": (_banded(600) + [{0: 2}, {600: P1}], 601, 601),
    # a product of two primes is no zero over Z
    "P1 P2": ([{0: P1 * P2}], 1, 1),
}


@pytest.mark.parametrize("case", sorted(NON_UNIT_INPUTS))
def test_rank_of_large_and_non_unit_entries_matches_a_dense_reference(case):
    columns, rows, rank = NON_UNIT_INPUTS[case]
    entries = {(r, c): v for c, col in enumerate(columns) for r, v in col.items()}
    assert dense_rank(rows, len(columns), entries) == rank
    pivots: dict[int, int] = {}
    assert homology.exact_rank_int(columns, rows, pivots) == len(pivots) == rank


# ---------------------------------------------------------------------------
# boundary matrices
# ---------------------------------------------------------------------------


def test_augmentation_of_two_points():
    cc = boundary_complex(points_complex(2))
    aug = cc.boundaries[0]
    assert (aug.rows, aug.cols) == (1, 2)
    assert entries(aug) == {(0, 0): 1, (0, 1): 1}


def test_triangle_boundary_shape_and_signs():
    cc = boundary_complex(triangle_boundary_complex())
    b1 = cc.boundaries[1]
    assert (b1.rows, b1.cols) == (3, 3)
    assert all(abs(v) == 1 for v in entries(b1).values())
    # column of edge (0,1): -1 at vertex 0... sign convention: face (0,1) -> (1,) - (0,)
    assert b1.columns[0] == {0: Fraction(-1), 1: Fraction(1)}


def test_k4_cographic_boundary_shapes():
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    shapes = [(m.rows, m.cols) for m in cc.boundaries]
    assert shapes == [(1, 6), (6, 15), (15, 16)]


def _with_column(cc: IntChainComplex, d: int, j: int, col: dict) -> IntChainComplex:
    m = cc.boundaries[d]
    mat = SparseIntMatrix(m.rows, m.columns[:j] + (col,) + m.columns[j + 1 :])
    return IntChainComplex(cc.boundaries[:d] + (mat,) + cc.boundaries[d + 1 :])


def _entry_mutations(cc: IntChainComplex, mutate):
    """The complex with one boundary column replaced by ``mutate(col, r, rows)``,
    for each entry r of each column, and the degree of the changed map;
    ``mutate`` returns None to skip an entry."""
    for d, m in enumerate(cc.boundaries):
        for j, col in enumerate(m.columns):
            for r in col:
                new = mutate(col, r, m.rows)
                if new is not None:
                    yield d, _with_column(cc, d, j, new)


def _flipped_entries(cc: IntChainComplex):
    return _entry_mutations(cc, lambda col, r, rows: {**col, r: -col[r]})


def test_square_zero_check_rejects_every_single_sign_flip():
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    assert max(m.cols for m in cc.boundaries) <= homology.VERIFY_LIMIT
    homology._verify_square_zero(cc.boundaries, None)
    count = 0
    for d, bad in _flipped_entries(cc):
        with pytest.raises(HomologyError, match="boundary squared"):
            homology._verify_square_zero(bad.boundaries, None)
        count += 1
    assert count == sum(m.nnz for m in cc.boundaries)


def test_square_zero_check_samples_from_the_rng_as_before():
    # above VERIFY_LIMIT the check draws 20 columns per map from the rng
    # the complete graph on 30 vertices and 10 of its triangles: 435 edges
    ground = tuple(range(30))
    triangles = tuple(itertools.combinations(range(5), 3))
    cc = boundary_complex(
        face_complex(ground, (tuple((i,) for i in ground), tuple(itertools.combinations(ground, 2)), triangles))
    )
    assert [m.cols > homology.VERIFY_LIMIT for m in cc.boundaries] == [False, True, False]
    rng = random.Random(5)
    homology._verify_square_zero(cc.boundaries, rng)
    expected = random.Random(5)
    for m in cc.boundaries[1:]:
        if m.cols > homology.VERIFY_LIMIT:
            for _ in range(20):
                expected.randrange(m.cols)
    assert rng.random() == expected.random()


def _accumulated_square_is_zero(cc: IntChainComplex) -> bool:
    """Reference: every column of every ∂_(d-1) ∂_d accumulated entry by entry."""
    for d in range(1, cc.top_dim + 1):
        lower = cc.boundaries[d - 1].columns
        for col in cc.boundaries[d].columns:
            acc = {}
            for k, w in col.items():
                for r, v in lower[k].items():
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                return False
    return True


def _caught_as_the_reference_says(cc: IntChainComplex) -> bool:
    """Run the check, which must raise exactly when the reference finds a
    non-zero column; return whether it raised."""
    if _accumulated_square_is_zero(cc):
        homology._verify_square_zero(cc.boundaries, None)
        return False
    with pytest.raises(HomologyError, match="boundary squared"):
        homology._verify_square_zero(cc.boundaries, None)
    return True


def _moved_to_another_row(col: dict, r: int, rows: int) -> dict | None:
    to = next((s for s in itertools.chain(range(r + 1, rows), range(r)) if s not in col), None)
    return None if to is None else {to if s == r else s: v for s, v in col.items()}


def test_square_zero_check_agrees_with_accumulation_when_an_entry_moves_row():
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    outcomes = [_caught_as_the_reference_says(bad) for _, bad in _entry_mutations(cc, _moved_to_another_row)]
    # the augmentation has one row, so only the entries above it can move
    assert len(outcomes) == sum(m.nnz for m in cc.boundaries[1:])
    assert all(outcomes)


def test_square_zero_check_agrees_with_accumulation_when_an_entry_is_dropped():
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    dropped = _entry_mutations(cc, lambda col, r, rows: {s: v for s, v in col.items() if s != r})
    outcomes = [_caught_as_the_reference_says(bad) for _, bad in dropped]
    assert len(outcomes) == sum(m.nnz for m in cc.boundaries)
    assert all(outcomes)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_square_zero_check_separates_a_row_hit_by_every_entry_of_a_column(n):
    # all n entries of the column land on row 0 with sign +1 and one of them
    # also puts -1 on row 1: the product column is (n, -1), whose value at
    # 2**b is n - 2**b, zero for a lane with 2**b = n
    lower = SparseIntMatrix(2, ({0: 1, 1: -1},) + tuple({0: 1} for _ in range(n - 1)))
    upper = SparseIntMatrix(n, ({k: 1 for k in range(n)},))
    assert _caught_as_the_reference_says(IntChainComplex((lower, upper)))


@pytest.mark.parametrize("value", [2, Fraction(1, 2)])
def test_square_zero_check_rejects_an_entry_other_than_plus_or_minus_one(value):
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    count = 0
    for _, bad in _entry_mutations(cc, lambda col, r, rows: {**col, r: value}):
        with pytest.raises(HomologyError, match="not \\+-1"):
            homology._verify_square_zero(bad.boundaries, None)
        count += 1
    assert count == sum(m.nnz for m in cc.boundaries)


def _k6_minus_an_edge_maps() -> tuple[SparseIntMatrix, ...]:
    """The boundary maps of the cographic complex of K_6 minus an edge, the
    large-complexes input."""
    ends = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)]
    graph = Multigraph(6, tuple((u, v, i) for i, (u, v) in enumerate(ends)))
    return boundary_complex(cographic_complex(graph)).boundaries


def _drawn_columns(maps, seed: int) -> list[tuple]:
    """For each map above ``VERIFY_LIMIT``, in increasing dimension, its
    dimension, the state of a copy of ``Random(seed)`` before its draws, and
    the 20 columns it draws."""
    rng = random.Random(seed)
    drawn = []
    for d, m in enumerate(maps):
        if d and m.cols > homology.VERIFY_LIMIT:
            state = rng.getstate()
            drawn.append((d, state, [rng.randrange(m.cols) for _ in range(20)]))
    return drawn


def _check_pair(lower: SparseIntMatrix, upper: SparseIntMatrix, state) -> None:
    rng = random.Random()
    rng.setstate(state)
    homology._verify_square_zero((lower, upper), rng)


def test_the_check_on_drawn_columns_catches_every_flipped_entry():
    maps = _k6_minus_an_edge_maps()
    drawn = _drawn_columns(maps, 17)
    assert [d for d, *_ in drawn] == [3, 4, 5, 6, 7, 8]
    flips = 0
    for d, state, js in drawn:
        lower, upper = maps[d - 1 : d + 1]
        for j in js:
            col = upper.columns[j]
            for k, w in col.items():
                bad = SparseIntMatrix(upper.rows, upper.columns[:j] + ({**col, k: -w},) + upper.columns[j + 1 :])
                with pytest.raises(HomologyError, match="boundary squared is nonzero"):
                    _check_pair(lower, bad, state)
                flips += 1
    assert flips == sum(20 * (d + 1) for d, *_ in drawn)


def test_the_check_on_drawn_columns_agrees_with_accumulation_when_a_reached_entry_moves_row():
    maps = _k6_minus_an_edge_maps()
    outcomes = []
    for d, state, js in _drawn_columns(maps, 17):
        lower, upper = maps[d - 1 : d + 1]
        drawn = [upper.columns[j] for j in js]
        for k in sorted({k for col in drawn for k in col}):
            for r in lower.columns[k]:
                columns = list(lower.columns)
                columns[k] = _moved_to_another_row(columns[k], r, lower.rows)
                bad = SparseIntMatrix(lower.rows, tuple(columns))
                nonzero = False
                for col in drawn:
                    acc = {}
                    for k2, w in col.items():
                        for r2, v in columns[k2].items():
                            acc[r2] = acc.get(r2, 0) + v * w
                    nonzero = nonzero or any(acc.values())
                try:
                    _check_pair(bad, upper, state)
                    outcomes.append(not nonzero)
                except HomologyError as exc:
                    outcomes.append(nonzero and str(exc) == "boundary squared is nonzero")
    assert len(outcomes) > 1000 and all(outcomes)


# sha256 of (rows, [list(col.items()) for col in columns]) over every
# boundary map of cographic K_5, Π_5 and 40 seeded random multigraphs; the
# rank reduction picks each lead as the lowest row, whatever the order of a
# column's entries, but that order is pinned along with the entries all the
# same, so that a change to the assembly shows here
BOUNDARY_MATRICES_SHA256 = "39ffc15a6493823a1bee9a8da1ce8ba623eaae1f3e81943e9e05faa46785ef84"


def test_boundary_matrices_keep_their_entries_and_column_order():
    rng = random.Random(17)
    complexes = [cographic_complex(complete_graph(5)), partition_order_complex(5)]
    complexes += [cographic_complex(random_connected_multigraph(rng, 8)) for _ in range(40)]
    digest = hashlib.sha256()
    for c in complexes:
        for m in boundary_complex(c).boundaries:
            digest.update(repr((m.rows, [list(col.items()) for col in m.columns])).encode())
    assert digest.hexdigest() == BOUNDARY_MATRICES_SHA256


def test_boundary_rejects_non_closed_complex():
    bad = face_complex((0, 1), (((0,),), ((0, 1),)))
    with pytest.raises(HomologyError):
        boundary_complex(bad)


def _unchecked_maps(c: FaceComplex) -> list[SparseIntMatrix]:
    """Every boundary map of ``c`` from ``_boundary_map`` with no check."""
    bit = [1 << i for i in range(len(c.ground_set))]
    maps, index = [], {0: 0}
    for faces in c.faces_by_dim:
        masks = [homology._face_mask(f, bit) for f in faces]
        maps.append(homology._boundary_map(faces, masks, index, bit)[0])
        index = {mask: j for j, mask in enumerate(masks)}
    return maps


def _first_two_cells_swapped(c: FaceComplex):
    """``c`` with the first two cells of one face swapped, for every face of
    dimension 1 and up in turn: the masks stay, and the signs of the first
    two entries of the face's column trade places."""
    for d, faces in enumerate(c.faces_by_dim[1:], 1):
        for j, (a, b, *rest) in enumerate(faces):
            swapped = faces[:j] + ((b, a, *rest),) + faces[j + 1 :]
            yield face_complex(c.ground_set, c.faces_by_dim[:d] + (swapped,) + c.faces_by_dim[d + 1 :])


def test_the_check_as_the_maps_are_written_raises_exactly_when_a_product_is_nonzero():
    graph = random_connected_multigraph(random.Random(7), 8)
    ends = [(min(u, v), max(u, v)) for u, v, _ in graph.edges]
    assert any(u == v for u, v in ends) and any(ends.count(e) > 1 for e in ends if e[0] != e[1])
    raised = passed = 0
    for c in (cographic_complex(complete_graph(4)), cographic_complex(graph), triangle_boundary_complex()):
        assert max(c.f_vector()) <= homology.VERIFY_LIMIT  # every column checked as written
        assert boundary_complex(c).boundaries == tuple(_unchecked_maps(c))
        for bad in _first_two_cells_swapped(c):
            maps = _unchecked_maps(bad)
            if all(lower.matmul(upper).is_zero() for lower, upper in zip(maps, maps[1:])):
                assert boundary_complex(bad).boundaries == tuple(maps)
                passed += 1
            else:
                with pytest.raises(HomologyError, match="boundary squared is nonzero"):
                    boundary_complex(bad)
                raised += 1
    # a swap trades the signs of the face's first two entries: ∂_(d-1) ∂_d
    # is non-zero at a face of three cells or more; an edge's column is only
    # negated, which ∂_1 ∂_2 sees at every triangle on the edge and nothing
    # sees on an edge in no triangle (the hollow triangle's three)
    assert (raised, passed) == (119, 3)


def test_boundary_complex_draws_20_columns_per_map_above_the_limit_in_increasing_dimension(monkeypatch):
    # K_4 with every edge doubled: maps of 12, 66 and 220 columns, then five above the limit
    c = cographic_complex(build_dual_graph(HitchinPartition(2, (1, 1, 1, 1))))
    large = [m.cols for m in boundary_complex(c).boundaries if m.cols > homology.VERIFY_LIMIT]
    assert large == [495, 792, 920, 768, 432]
    received = []
    real = homology._verify_square_zero

    def recorded(maps, rng):
        received.append(([m.cols for m in maps], rng, rng.getstate()))
        real(maps, rng)

    monkeypatch.setattr(homology, "_verify_square_zero", recorded)
    rng = random.Random(5)
    boundary_complex(c, rng)
    expected = random.Random(5)
    for n in large:
        for _ in range(20):
            expected.randrange(n)
    assert rng.getstate() == expected.getstate()
    assert [cols for cols, *_ in received] == [[220, 495], [495, 792], [792, 920], [920, 768], [768, 432]]
    # without an rng, one Random(17) serves every sampled map
    received.clear()
    boundary_complex(c)
    assert len({id(r) for _, r, _ in received}) == 1
    assert received[0][2] == random.Random(17).getstate()


# ---------------------------------------------------------------------------
# reduced homology
# ---------------------------------------------------------------------------


def test_s0_has_reduced_b0_one():
    profile = reduced_homology(boundary_complex(points_complex(2)))
    assert profile.betti == {0: 1}


def test_three_points_reduced_b0_two():
    c = cographic_complex(complete_graph(3))
    profile = reduced_homology(boundary_complex(c))
    assert profile.betti == {0: 2}


def test_k4_cographic_concentrated_rank_six():
    profile = reduced_homology(boundary_complex(cographic_complex(complete_graph(4))))
    assert profile.betti == {2: 6}


def test_empty_complex_has_betti_minus_one():
    empty = face_complex((), ())
    profile = reduced_homology(boundary_complex(empty))
    assert profile.betti == {-1: 1}


def test_euler_characteristic_is_an_int_when_h_minus_one_is_nonzero():
    profile = reduced_homology(boundary_complex(face_complex((), ())))
    assert type(profile.euler) is int and profile.euler == -1


def test_contractible_cone_has_no_reduced_homology():
    g = Multigraph(1, ((0, 0, 0),))
    profile = reduced_homology(boundary_complex(cographic_complex(g)))
    assert profile.betti == {}


def test_sphere_from_parallel_edges():
    # m parallel edges: boundary of the (m-1)-simplex, an (m-2)-sphere
    for m in (2, 3, 4, 5):
        profile = reduced_homology(boundary_complex(cographic_complex(parallel_graph(m))))
        assert profile.betti == {m - 2: 1}


def _betti_from_uncleared_ranks(cc: IntChainComplex) -> dict[int, int]:
    ranks = [exact_rank(m) for m in cc.boundaries]
    betti = {-1: 1 - (ranks[0] if ranks else 0)}
    for d in range(cc.top_dim + 1):
        betti[d] = cc.boundaries[d].cols - ranks[d] - (ranks[d + 1] if d < cc.top_dim else 0)
    return {d: b for d, b in betti.items() if b}


def _clearing_cases():
    k6 = [(u, v) for u, v, _ in complete_graph(6).edges if (u, v) != (0, 1)]
    yield cographic_complex(complete_graph(5))
    yield cographic_complex(Multigraph(6, tuple((u, v, i) for i, (u, v) in enumerate(k6))))
    yield partition_order_complex(5)
    yield nonspanning_complex(complete_graph(5))
    rng = random.Random(59)
    for _ in range(60):
        yield cographic_complex(random_connected_multigraph(rng, 8))


def test_cleared_betti_numbers_equal_those_of_the_uncleared_ranks():
    for c in _clearing_cases():
        cc = boundary_complex(c)
        assert dict(reduced_homology(cc).betti) == _betti_from_uncleared_ranks(cc), c.f_vector()


def test_cleared_homology_of_hand_made_chains():
    # no maps: the one space is its own homology
    assert cleared_homology([3], []) == [3]
    assert cleared_homology([0], []) == [0]
    # one map Q^3 -> Q^2 of rank 1
    m = SparseIntMatrix(2, ({0: 1, 1: 2}, {0: 2, 1: 4}, {}))
    assert cleared_homology([3, 2], [m]) == [2, 1]
    # 0 -> Q -> Q^2 -> Q -> 0, exact: (1, -1) spans the kernel of (1 1)
    inject = SparseIntMatrix(2, ({0: 1, 1: -1},))
    project = SparseIntMatrix(1, ({0: 1}, {0: 1}))
    assert project.matmul(inject).is_zero()
    assert cleared_homology([1, 2, 1], [inject, project]) == [0, 0, 0]


def test_reduced_homology_goes_through_cleared_homology(monkeypatch):
    calls = []
    real = homology.cleared_homology

    def recording(dims, maps):
        calls.append((list(dims), tuple(maps)))
        return real(dims, maps)

    monkeypatch.setattr(homology, "cleared_homology", recording)
    cc = boundary_complex(cographic_complex(complete_graph(5)))
    assert dict(reduced_homology(cc).betti) == {5: 24}
    assert calls == [([m.cols for m in cc.boundaries[::-1]] + [1], cc.boundaries[::-1])]
    calls.clear()
    assert dict(reduced_homology(IntChainComplex(())).betti) == {-1: 1}
    assert calls == [([1], ())]


def test_every_cleared_boundary_rank_clears_with_unit_leads(monkeypatch):
    # a recorded lead is the lead of a stored, content-normalized pivot, so
    # +-1 everywhere means _cancel never scales a vector, above 500 rows or
    # columns too (K_6 - e has five such maps)
    records = record_rank_leads(monkeypatch)
    for c in _clearing_cases():
        reduced_homology(boundary_complex(c))
    assert len(records) == 191
    assert sum(max(shape) > 500 for shape, *_ in records) == 5
    for shape, rank, leads in records:
        assert len(leads) == rank and set(leads) <= {1, -1}, shape


def test_clearing_with_pivots_whose_leads_are_not_units():
    # each odd column c_j of K_5's top boundary that has a right neighbour
    # becomes p c_j + c_(j+1): the same ranks over Q and d o d = 0, and the
    # stored pivots take leads p and p**2 (a column merely scaled by p would
    # lose p to content normalization), which still index a block with a
    # non-zero integer determinant
    p = 2**31 - 1
    cc = boundary_complex(cographic_complex(complete_graph(5)))
    top, below = cc.boundaries[-1], cc.boundaries[-2]
    columns = list(top.columns)
    for j in range(1, len(columns) - 1, 2):
        mixed = {r: p * v for r, v in columns[j].items()}
        for r, v in columns[j + 1].items():
            mixed[r] = mixed.get(r, 0) + v
        columns[j] = {r: v for r, v in mixed.items() if v}
    scaled = SparseIntMatrix(top.rows, tuple(columns))
    assert below.matmul(scaled).is_zero()
    pivots: dict[int, int] = {}
    assert exact_rank(scaled, pivots) == len(pivots) == exact_rank(top)
    assert {p, p**2} <= set(pivots.values())
    kept = SparseIntMatrix(below.rows, tuple(c for j, c in enumerate(below.columns) if j not in pivots))
    assert exact_rank(kept) == exact_rank(below)

    # the same through reduced_homology
    expected = _betti_from_uncleared_ranks(cc)
    assert expected == {5: 24}
    scaled_cc = IntChainComplex(cc.boundaries[:-1] + (scaled,))
    assert dict(reduced_homology(scaled_cc).betti) == expected


def test_the_pivot_rows_of_every_cleared_map_are_independent():
    # the premise of the clearing lemma: the rows R that exact_rank reports
    # have rank |R| = rank m, so some columns C make m[R, C] invertible
    checked = 0
    for c in _clearing_cases():
        for m in boundary_complex(c).boundaries:
            if max(m.rows, m.cols) > 250:
                continue
            pivots: dict[int, int] = {}
            rank = exact_rank(m, pivots)
            at = {r: i for i, r in enumerate(sorted(pivots))}
            rows = {(at[r], j): v for j, col in enumerate(m.columns) for r, v in col.items() if r in at}
            assert dense_rank(len(at), m.cols, rows) == len(at) == rank, (m.rows, m.cols)
            checked += 1
    assert checked == 184


def test_rank_kernel_and_rref_basis_share_one_reduction(monkeypatch):
    calls = []
    reduce = homology._reduce

    def counting(vectors):
        calls.append(1)
        return reduce(vectors)

    monkeypatch.setattr(homology, "_reduce", counting)
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    counts = []
    for run in (
        lambda: exact_rank(cc.boundaries[1]),
        lambda: top_cycle_basis(cc.boundaries),
        lambda: rref_basis(cc.boundaries[2].columns),
    ):
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def _vectors_with_leads(rng: random.Random, n: int) -> list[dict[int, int]]:
    """Integer vectors whose leads are 1, -1, +-2 or +-6, every entry a
    multiple of a divisor of the lead: vectors with content above 1 share it."""
    vectors = []
    for _ in range(rng.randint(1, n + 2)):
        lead = rng.choice((1, -1, 2, -2, 6, -6))
        content = rng.choice([g for g in (1, 2, 3, 6) if lead % g == 0])
        at = rng.randrange(n)
        vec = {at: lead}
        for k in rng.sample(range(at + 1, n), rng.randint(0, n - at - 1)):
            if v := content * rng.randint(-4, 4):
                vec[k] = v
        vectors.append(vec)
    return vectors


def test_reduce_stores_primitive_pivots_keeps_a_unit_lead_and_takes_no_gcd_there(monkeypatch):
    normalized = []
    normalize = homology.normalize_int_vec

    def recording(vec):
        normalized.append(vec[min(vec)])
        return normalize(vec)

    monkeypatch.setattr(homology, "normalize_int_vec", recording)
    assert homology._reduce([{0: -1, 1: 2}]) == {0: {0: -1, 1: 2}}
    assert homology._reduce([{0: -6, 2: 9}]) == {0: {0: 2, 2: -3}}
    assert homology._reduce([{0: 1, 3: -4}, {0: 1, 1: -1, 3: -4}]) == {0: {0: 1, 3: -4}, 1: {1: -1}}
    # cleared against a lead of -1: vec + 3 pivot, no scaling
    assert homology._reduce([{0: -1, 2: 1}, {0: 3, 1: 1}]) == {0: {0: -1, 2: 1}, 1: {1: 1, 2: 3}}
    rng = random.Random(67)
    leads, stored = set(), set()
    for _ in range(200):
        n = rng.randint(1, 8)
        vectors = _vectors_with_leads(rng, n)
        entries = {(r, c): v for c, vec in enumerate(vectors) for r, v in vec.items()}
        pivots = homology._reduce(copy.deepcopy(vectors))
        for lead, pivot in pivots.items():
            assert min(pivot) == lead and (pivot[lead] > 0 or pivot[lead] == -1)
            assert math.gcd(*pivot.values()) == 1 and 0 not in pivot.values()
            stored.add(pivot[lead])
        assert len(pivots) == dense_rank(n, len(vectors), entries)
        leads.update(vec[min(vec)] for vec in vectors)
    assert leads == {1, -1, 2, -2, 6, -6}
    assert {1, -1, 2} <= stored
    assert normalized and 1 not in normalized and -1 not in normalized


def test_boundary_ranks_take_no_gcd_and_cancel_against_both_unit_leads(monkeypatch):
    # every lead of a boundary map is +-1 (see the clearing test above), so
    # _cancel clears with f = a b and normalize_int_vec is never reached
    pivot_leads = []
    cancel = homology._cancel

    def recording(vec, at, pivot):
        pivot_leads.append(pivot[at])
        cancel(vec, at, pivot)

    def refused(*args):
        raise AssertionError("gcd taken")

    monkeypatch.setattr(homology, "_cancel", recording)
    monkeypatch.setattr(homology, "gcd", refused)
    cc = boundary_complex(cographic_complex(complete_graph(5)))
    assert [exact_rank(m) for m in cc.boundaries] == [1, 9, 36, 84, 121, 101]
    assert len(top_cycle_basis(cc.boundaries)) == 24
    assert set(pivot_leads) == {1, -1}


def test_rank_rref_and_top_cycle_callers_keep_their_vectors():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 8)
        vectors = _vectors_with_leads(rng, n)
        vectors.append({k: 0 for k in range(n)})  # zero entries, dropped by exact_rank_int
        given = copy.deepcopy(vectors)
        homology.exact_rank_int(vectors, n)
        assert vectors == given
        basis = rref_basis(vectors[:-1])
        assert vectors == given and not any(b is v for b in basis for v in vectors)
    for c in (cographic_complex(complete_graph(5)), partition_order_complex(5), points_complex(3)):
        cc = boundary_complex(c)
        given = copy.deepcopy(cc.boundaries)
        top_cycle_basis(cc.boundaries)
        assert cc.boundaries == given


def test_reduce_changes_no_vector_and_stores_an_untouched_unit_lead_itself():
    rng = random.Random(73)
    kinds = {"lead 1": 0, "lead -1": 0, "normalized": 0, "cancelled": 0}
    for _ in range(80):
        n = rng.randint(1, 8)
        vectors = _vectors_with_leads(rng, n)
        given = copy.deepcopy(vectors)
        pivots = homology._reduce(vectors)
        assert vectors == given
        for i, vec in enumerate(vectors):
            lead = min(vec)
            if lead in homology._reduce(given[:i]):  # a pivot holds its lead: cancelled there
                kind = "cancelled"
            else:
                kind = {1: "lead 1", -1: "lead -1"}.get(vec[lead], "normalized")
            kinds[kind] += 1
            stored_at = [at for at, pivot in pivots.items() if pivot is vec]
            assert stored_at == ([lead] if kind in ("lead 1", "lead -1") else [])
    assert min(kinds.values()) > 20, kinds


def test_rref_basis_copies_a_pivot_before_back_substitution_and_returns_no_input():
    first, second = {0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}
    pivots = homology._reduce([first, second])
    assert pivots[0] is first and pivots[1] is second  # neither is cancelled in the reduction
    basis = rref_basis([first, second])
    assert basis == ({0: 1, 2: 2}, {1: 1, 2: -1})  # the first is cleared at pivot 1
    assert (first, second) == ({0: 1, 1: 1, 2: 1}, {1: 1, 2: -1})
    assert not any(b is v for b in basis for v in (first, second))


# ---------------------------------------------------------------------------
# induced maps on top homology
# ---------------------------------------------------------------------------


def test_identity_permutation_gives_identity_matrix():
    c = cographic_complex(complete_graph(3))
    mat = TopHomologyAction(c).matrix((0, 1, 2))
    assert mat == SparseIntMatrix.identity(2)


def test_swap_of_s0_points_acts_by_minus_one():
    c = points_complex(2)
    mat = TopHomologyAction(c).matrix((1, 0))
    assert (mat.rows, mat.cols) == (1, 1)
    assert entries(mat) == {(0, 0): -1}


def test_three_cycle_on_k3_top_homology():
    # cells of C(K3) are the edges of K3; a vertex 3-cycle rotates them
    c = cographic_complex(complete_graph(3))
    action = TopHomologyAction(c)
    # vertex 3-cycle (0 1 2) maps edge {0,1}->{1,2}->{0,2}->{0,1}: cell perm (2, 0, 1)
    mat = action.matrix((2, 0, 1))
    assert action.trace((2, 0, 1)) == -1
    squared = mat.matmul(mat)
    cubed = squared.matmul(mat)
    assert cubed == SparseIntMatrix.identity(2)


def test_induced_maps_compose_as_a_representation():
    c = cographic_complex(complete_graph(4))
    action = TopHomologyAction(c)
    # two cell permutations induced by vertex permutations of K4
    from hitchin_supports.symgroup import cell_permutation

    g = complete_graph(4)
    labels = g.labels()
    p1 = cell_permutation((1, 0, 2, 3), g)
    p2 = cell_permutation((0, 2, 3, 1), g)
    composed = tuple(p1[p2[i]] for i in range(len(p2)))
    assert action.matrix(p1).matmul(action.matrix(p2)) == action.matrix(composed)
    assert action.matrix(tuple(range(len(labels)))) == SparseIntMatrix.identity(6)


def test_non_automorphism_is_rejected():
    c = cographic_complex(complete_graph(4))
    with pytest.raises(HomologyError):
        TopHomologyAction(c).matrix((1, 0, 2, 3, 4, 5))


def test_top_cycle_basis_is_canonical_and_integral():
    cc = boundary_complex(cographic_complex(complete_graph(4)))
    basis = top_cycle_basis(cc.boundaries)
    assert len(basis) == 6
    for vec in basis:
        assert vec[min(vec)] > 0
        from math import gcd

        g = 0
        for v in vec.values():
            g = gcd(g, abs(v))
        assert g == 1


@pytest.mark.parametrize("kind", ["cographic", "partition"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_top_cycle_basis_leads_are_one(kind, n):
    # coords_in_rref reads coordinates off the pivots of these bases
    c = cographic_complex(complete_graph(n)) if kind == "cographic" else partition_order_complex(n)
    basis = top_cycle_basis(boundary_complex(c).boundaries)
    assert len(basis) == math.factorial(n - 1)
    assert all(vec[min(vec)] == 1 for vec in basis)


def _top_cycle_cases():
    rng = random.Random(41)
    for _ in range(40):
        graph = random_connected_multigraph(rng, 8)
        yield cographic_complex(graph)
        if graph.vertex_count >= 2:
            yield nonspanning_complex(graph)
    for r in (3, 4, 5):
        yield partition_order_complex(r)


def test_top_cycle_basis_is_the_rref_kernel_of_the_top_boundary():
    from math import gcd

    for c in _top_cycle_cases():
        cc = boundary_complex(c)
        basis = top_cycle_basis(cc.boundaries)
        assert len(basis) == reduced_homology(cc).betti_number(cc.top_dim), c
        if cc.top_dim < 0:
            assert basis == [{0: 1}]
            continue
        columns = cc.boundaries[cc.top_dim].columns
        pivots = [min(vec) for vec in basis]
        assert pivots == sorted(set(pivots))
        for vec, pivot in zip(basis, pivots):
            image: dict[int, int] = {}
            for j, coeff in vec.items():
                for row, val in columns[j].items():
                    image[row] = image.get(row, 0) + coeff * val
            assert not any(image.values()), c
            assert vec[pivot] > 0
            assert all(v for v in vec.values())
            g = 0
            for v in vec.values():
                g = gcd(g, abs(v))
            assert g == 1
            assert all(other not in vec for other in pivots if other != pivot)


def _dense_solve(basis, vec):
    """Coordinates of ``vec`` along independent ``basis`` vectors, by Gauss-Jordan
    elimination of the dense augmented matrix over Fractions; None when the
    system has no solution."""
    n = 1 + max([max(b) for b in basis] + list(vec))
    m = len(basis)
    rows = [[Fraction(b.get(r, 0)) for b in basis] + [Fraction(vec.get(r, 0))] for r in range(n)]
    for c in range(m):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    if any(row[m] for row in rows[m:]):
        return None
    return [rows[i][m] for i in range(m)]


def _random_unit_lead_rref(rng: random.Random, n: int) -> list[dict[int, int]]:
    """An RREF basis in n coordinates: lead 1 at each pivot, no entry at the
    other pivots, small ints after the pivot elsewhere."""
    leads = sorted(rng.sample(range(n), rng.randint(1, n)))
    basis = []
    for p in leads:
        vec = {p: 1}
        for k in range(p + 1, n):
            if k not in leads and rng.random() < 0.6:
                vec[k] = rng.choice((-3, -2, -1, 1, 2, 3))
        basis.append(vec)
    return basis


def test_coords_in_rref_matches_a_dense_solve():
    rng = random.Random(8)
    inside = outside = 0
    for _ in range(60):
        n = rng.randint(2, 9)
        basis = _random_unit_lead_rref(rng, n)
        pivots = {min(v): i for i, v in enumerate(basis)}
        combo: dict[int, int] = {}
        for b in basis:
            c = rng.randint(-4, 4)
            for k, v in b.items():
                combo[k] = combo.get(k, 0) + c * v
        probe = {k: rng.randint(-2, 2) for k in range(n)}
        for vec in ({k: v for k, v in combo.items() if v}, {k: v for k, v in probe.items() if v}):
            solution = _dense_solve(basis, vec)
            if solution is None:
                outside += 1
                with pytest.raises(HomologyError, match="not in subspace"):
                    coords_in_rref(vec, basis, pivots)
                continue
            inside += 1
            coords = coords_in_rref(vec, basis, pivots)
            assert coords == {i: c for i, c in enumerate(solution) if c}
            assert all(type(c) is int for c in coords.values())
    assert inside and outside


def test_coords_in_rref_rejects_a_lead_other_than_one():
    basis = [{0: 2, 2: 1}, {1: 1, 2: -1}]
    pivots = {0: 0, 1: 1}
    assert coords_in_rref({1: 3, 2: -3}, basis, pivots) == {1: 3}  # the lead-2 vector is not visited
    with pytest.raises(HomologyError, match="lead 2"):
        coords_in_rref({0: 2, 2: 1}, basis, pivots)


def _fraction_rref(vectors, n: int) -> list[dict[int, int]]:
    """Gauss-Jordan over Fractions with the coordinates in increasing order,
    each row scaled to a primitive integer vector (positive lead), by lead."""
    rows = [[Fraction(vec.get(k, 0)) for k in range(n)] for vec in vectors]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][c] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    basis = []
    for row in rows[:rank]:
        ints = [int(x * math.lcm(*(y.denominator for y in row))) for x in row]
        g = math.gcd(*ints)
        basis.append({k: x // g for k, x in enumerate(ints) if x})
    return basis


def test_rref_basis_leaves_its_inputs_alone_and_equals_the_fraction_rref(monkeypatch):
    steps = []
    cancel = homology._cancel

    def recording(vec, at, pivot):
        steps.append(vec[at] % pivot[at] != 0)  # the lead does not divide: a step that scales
        cancel(vec, at, pivot)

    monkeypatch.setattr(homology, "_cancel", recording)
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(1, 9)
        vectors = [
            {k: v for k in rng.sample(range(n), rng.randint(1, n)) if (v := rng.randint(-5, 5))}
            for _ in range(rng.randint(1, n + 2))
        ]
        given = copy.deepcopy(vectors)
        basis = rref_basis(iter(vectors))
        assert vectors == given
        assert type(basis) is tuple and not any(b is v for b in basis for v in vectors)
        assert list(basis) == _fraction_rref(vectors, n)
        for vec in basis:
            vec.clear()
        assert vectors == given and list(rref_basis(vectors)) == _fraction_rref(vectors, n)
    assert sum(steps) > 20


# ---------------------------------------------------------------------------
# the top-cycle basis and the action against the straightforward routines
# ---------------------------------------------------------------------------


def _forward_top_cycle_basis(cc):
    """The RREF of the columns extended by unit vectors, first to last: its
    vectors with leads past the rows are the kernel in RREF."""
    if cc.top_dim < 0:
        return [{0: 1}]
    top = cc.boundaries[cc.top_dim]
    shift = top.rows
    basis = rref_basis({**col, shift + j: 1} for j, col in enumerate(top.columns))
    return [{k - shift: v for k, v in vec.items()} for vec in basis if min(vec) >= shift]


def test_top_cycle_basis_equals_forward_insertion_and_rref():

    cases = [cographic_complex(complete_graph(r)) for r in (4, 5, 6)]
    cases.append(nonspanning_complex(complete_graph(5)))
    cases += [partition_order_complex(r) for r in (4, 5, 6)]
    rng = random.Random(57)
    cases += [cographic_complex(random_connected_multigraph(rng, 8)) for _ in range(60)]
    for c in cases:
        cc = boundary_complex(c)
        assert top_cycle_basis(cc.boundaries) == _forward_top_cycle_basis(cc), c.f_vector()


def _sort_sign(values) -> int:
    """Sign of the permutation that sorts ``values``, by counting inversions."""
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


def _reference_matrix(action, perm):
    """The action matrix with one sort sign per (basis vector, entry)."""
    faces = action.complex.faces_by_dim[action.top]
    index = {f: i for i, f in enumerate(faces)}
    columns = []
    for vec in action.basis:
        img = {}
        for j, coeff in vec.items():
            mapped = [perm[i] for i in faces[j]]
            img[index[tuple(sorted(mapped))]] = _sort_sign(mapped) * coeff
        columns.append(coords_in_rref(img, action.basis, action._pivots))
    return SparseIntMatrix(len(action.basis), tuple(columns))


def test_action_matrix_equals_per_entry_reference_on_k5():
    from hitchin_supports.symgroup import cell_permutation

    g = complete_graph(5)
    action = TopHomologyAction(cographic_complex(g))
    for vperm in itertools.permutations(range(5)):
        perm = cell_permutation(vperm, g)
        assert action.matrix(perm) == _reference_matrix(action, perm), vperm


@pytest.mark.parametrize("top", [7, 6])
def test_face_table_equals_the_sort_sign_on_every_permutation_of_a_simplex(top):
    # the full simplex on 7 cells (one top face) and its boundary (seven top
    # faces): every permutation is an automorphism, not only vertex-induced ones
    cells = range(7)
    c = face_complex(tuple(cells), tuple(tuple(itertools.combinations(cells, k)) for k in range(1, top + 1)))
    action = TopHomologyAction(c)
    faces = c.faces_by_dim[action.top]
    index = {f: i for i, f in enumerate(faces)}
    signs = set()
    for perm in itertools.permutations(cells):
        expected = []
        for face in faces:
            mapped = [perm[i] for i in face]
            expected.append((index[tuple(sorted(mapped))], _sort_sign(mapped)))
        assert action._face_table(perm) == expected, perm
        signs.update(sign for _, sign in expected)
    assert signs == {1, -1}


def _closure(facets):
    """Faces by dimension of the complex the facets generate."""
    faces = {()}
    for facet in facets:
        for k in range(1, len(facet) + 1):
            faces.update(itertools.combinations(sorted(facet), k))
    top = max(map(len, faces))
    return tuple(tuple(sorted(f for f in faces if len(f) == k)) for k in range(1, top + 1))


def _every_face_maps_into(c, perm):
    face_set = {face for faces in c.faces_by_dim for face in faces}
    return all(tuple(sorted(perm[i] for i in face)) in face_set for face in face_set)


def _closures_and_graph_complexes(rng):
    """30 closures of random facets, 15 random cographic complexes and Π_4."""
    complexes = []
    for _ in range(30):
        n = rng.randint(3, 6)
        facets = [tuple(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(1, 5))]
        complexes.append(face_complex(tuple(range(n)), _closure(facets)))
    for _ in range(15):
        complexes.append(cographic_complex(random_connected_multigraph(rng, 6)))
    complexes.append(partition_order_complex(4))
    return complexes


def test_facet_check_agrees_with_the_check_on_every_face():
    rng = random.Random(23)
    complexes = _closures_and_graph_complexes(rng)
    outcomes = set()
    for c in complexes:
        action = TopHomologyAction(c)
        n = len(c.ground_set)
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            expected = _every_face_maps_into(c, perm)
            try:
                action.matrix(perm)
                accepted = True
            except HomologyError:
                accepted = False
            assert accepted == expected, (c.faces_by_dim, perm)
            outcomes.add(accepted)
    assert outcomes == {True, False}


def _lower_facets_from_the_rows(c, cc):
    """The facets below the top read off the rows of the full complex's maps
    (the d-faces that are no row of ∂_(d+1)), with the bit masks of all the
    d-faces."""
    out = []
    for d in range(cc.top_dim):
        faces = c.faces_by_dim[d]
        covered = {r for col in cc.boundaries[d + 1].columns for r in col}
        if len(covered) < len(faces):
            masks = {sum(1 << i for i in f) for f in faces}
            out.append((tuple(f for i, f in enumerate(faces) if i not in covered), masks))
    return out


def test_the_two_map_action_equals_the_full_complex():
    complexes = [cographic_complex(complete_graph(5)), partition_order_complex(5)]
    complexes += _closures_and_graph_complexes(random.Random(23))
    assert len(complexes) == 48
    tops = set()
    for c in complexes:
        action, cc = TopHomologyAction(c), boundary_complex(c)
        assert action.top == cc.top_dim
        assert action.basis == top_cycle_basis(cc.boundaries), c.faces_by_dim
        assert action._lower_facets == _lower_facets_from_the_rows(c, cc), c.faces_by_dim
        tops.add(min(cc.top_dim, 2))
    assert tops == {-1, 0, 1, 2}  # no map, ∂_0 alone, the pair onto ∂_0, and higher


@pytest.mark.parametrize("missing", [(3,), (2, 3)])
def test_action_rejects_a_complex_not_downward_closed_below_the_top_pair(missing):
    # the closure of a tetrahedron less one vertex (dimension top - 3, which
    # neither built map reads) or one edge (read as a row of ∂_(top-1))
    levels = _closure([(0, 1, 2, 3)])
    bad = face_complex((0, 1, 2, 3), tuple(tuple(f for f in faces if f != missing) for faces in levels))
    assert sum(map(len, bad.faces_by_dim)) == 14
    with pytest.raises(HomologyError, match="not downward closed"):
        boundary_complex(bad)
    with pytest.raises(HomologyError, match="not downward closed"):
        TopHomologyAction(bad)


def _entry_lists(maps):
    return [(m.rows, [list(col.items()) for col in m.columns]) for m in maps]


def test_action_builds_only_the_top_pair_of_maps(monkeypatch):
    path = cographic_complex(Multigraph(3, ((0, 1, 0), (1, 2, 1))))  # no faces: no map
    cases = [cographic_complex(complete_graph(5)), partition_order_complex(5), points_complex(2), path]
    cases.append(cographic_complex(complete_graph(6)))  # ∂_top of 1,296 columns: sampled
    expected = [boundary_complex(c).boundaries[-2:] for c in cases]
    assert [len(maps) for maps in expected] == [2, 2, 1, 0, 2]
    assert [maps[-1].cols > homology.VERIFY_LIMIT for maps in expected if maps] == [False, False, False, True]
    built, sampled = [], []
    real_map, real_check = homology._boundary_map, homology._verify_square_zero

    def recorded_map(*args):
        out = real_map(*args)
        built.append(out[0])
        return out

    def recorded_check(maps, rng):
        sampled.append((tuple(maps), rng))
        real_check(maps, rng)

    def refused(*args, **kwargs):
        raise AssertionError("boundary_complex called")

    monkeypatch.setattr(homology, "_boundary_map", recorded_map)
    monkeypatch.setattr(homology, "_verify_square_zero", recorded_check)
    monkeypatch.setattr(homology, "boundary_complex", refused)
    for c, maps in zip(cases, expected):
        built.clear()
        sampled.clear()
        action = TopHomologyAction(c)
        action.matrix(tuple(range(len(c.ground_set))))
        assert _entry_lists(built) == _entry_lists(maps)
        # a top map of at most VERIFY_LIMIT columns is checked as it is
        # written; a larger one by the sampled check, from its Random(17)
        if maps and maps[-1].cols > homology.VERIFY_LIMIT:
            assert [(_entry_lists(m), rng) for m, rng in sampled] == [(_entry_lists(maps), None)]
        else:
            assert sampled == []


@pytest.mark.parametrize("c", [cographic_complex(complete_graph(4)), partition_order_complex(5)], ids=["K4", "Pi5"])
def test_action_checks_its_pair_as_it_is_written(c):
    # two cells of one top face swapped: the mask stays and the signs of the
    # column's first two entries trade places, so ∂_(top-1) ∂_top is non-zero
    top = len(c.faces_by_dim) - 1
    faces = c.faces_by_dim[top]
    assert len(faces) <= homology.VERIFY_LIMIT and len(faces[0]) >= 3
    TopHomologyAction(c)
    for j, (a, b, *rest) in enumerate(faces):
        swapped = faces[:j] + ((b, a, *rest),) + faces[j + 1 :]
        bad = FaceComplex(c.ground_set, c.faces_by_dim[:top] + (swapped,), c.masks_by_dim)
        with pytest.raises(HomologyError, match="boundary squared is nonzero"):
            TopHomologyAction(bad)


def _later_popcount_table(action, perm):
    """Reference for ``_face_table``: each top face's image by its mask, and
    its sign from ``later[a]``, the cells after ``a`` that ``perm`` sends
    below ``perm[a]``, one popcount per cell of the face."""
    n = len(perm)
    image_bit = [1 << q for q in perm]
    for facets, face_masks in action._lower_facets:
        if any(homology._face_mask(face, image_bit) not in face_masks for face in facets):
            raise HomologyError("permutation is not a simplicial automorphism")
    later = [sum(1 << c for c in range(a + 1, n) if perm[c] < perm[a]) for a in range(n)]
    table = []
    for face, mask in zip(action._top_faces, action.complex.masks_by_dim[action.top]):
        image = action._face_index.get(homology._face_mask(face, image_bit))
        if image is None:
            raise HomologyError("permutation is not a simplicial automorphism")
        inversions = sum((mask & later[a]).bit_count() for a in face)
        table.append((image, -1 if inversions & 1 else 1))
    return table


def _vertex_induced(r):
    from hitchin_supports.symgroup import cell_permutation

    g = complete_graph(r)
    return cographic_complex(g), [cell_permutation(p, g) for p in itertools.permutations(range(r))]


def _lattice_induced(r):
    from hitchin_supports.symgroup import partition_cell_permutation

    return partition_order_complex(r), [partition_cell_permutation(p, r) for p in itertools.permutations(range(r))]


@pytest.mark.parametrize(
    "build, r, signs",
    # Π_4's cells are numbered by rank and every permutation keeps ranks, so
    # it inverts no pair of a chain: every sign is +1
    [(_vertex_induced, 4, {1, -1}), (_vertex_induced, 5, {1, -1}), (_lattice_induced, 4, {1})],
    ids=["K4", "K5", "Pi4"],
)
def test_face_table_equals_the_later_popcount_formula_on_induced_automorphisms(build, r, signs):
    c, perms = build(r)
    action = TopHomologyAction(c)
    seen = set()
    for perm in perms:
        table = action._face_table(perm)
        assert table == _later_popcount_table(action, perm), perm
        seen.update(sign for _, sign in table)
    assert len(perms) == math.factorial(r) and seen == signs


def test_face_table_equals_the_later_popcount_formula_with_cells_in_no_top_face():
    # the triangle with two pendant edges: cells 3, 4, 5 lie in no top face,
    # so no top face holds a pair (a, b) with b > 2; every permutation of the
    # six cells either gives the reference's table or raises as it does
    c = face_complex(tuple(range(6)), _closure([(0, 1, 2), (2, 3), (4, 5)]))
    action = TopHomologyAction(c)
    assert [(a, b) for a, b, _ in action._pairs] == [(0, 1), (0, 2), (1, 2)]
    outcomes = []
    for perm in itertools.permutations(range(6)):
        try:
            expected = _later_popcount_table(action, perm)
        except HomologyError:
            with pytest.raises(HomologyError, match="not a simplicial automorphism"):
                action._face_table(perm)
            outcomes.append(None)
            continue
        assert action._face_table(perm) == expected, perm
        outcomes.append(expected[0][1])
    assert (outcomes.count(1), outcomes.count(-1)) == (2, 2)


def test_trace_of_the_identity_is_the_rank_and_the_diagonal_sum():
    # two complexes that are not pure: the filled triangle with pendant edges
    # and the hollow tetrahedron with a pendant edge
    pendant = face_complex(tuple(range(6)), _closure([(0, 1, 2), (2, 3), (4, 5)]))
    sphere = face_complex(tuple(range(5)), _closure([*itertools.combinations(range(4), 3), (3, 4)]))
    path = cographic_complex(Multigraph(3, ((0, 1, 0), (1, 2, 1))))  # no faces
    ranks = []
    for c in (cographic_complex(complete_graph(4)), partition_order_complex(4), pendant, sphere, path):
        action = TopHomologyAction(c)
        identity = tuple(range(len(c.ground_set)))
        diagonal = sum(col.get(j, 0) for j, col in enumerate(action.matrix(identity).columns))
        assert action.trace(identity) == action.trace(list(identity)) == action.rank == diagonal
        ranks.append(action.rank)
        with pytest.raises(HomologyError, match="not a permutation of the cells"):
            action.trace((0, 0))
        with pytest.raises(HomologyError, match="not a permutation of the cells"):
            action.trace(identity[:-1])
    assert ranks == [6, 6, 0, 1, 1]


def test_a_top_cycle_basis_lead_other_than_one_is_refused(monkeypatch):
    c = cographic_complex(complete_graph(4))
    real = homology.top_cycle_basis

    def doubled_last(maps):
        basis = real(maps)
        return basis[:-1] + [{k: 2 * v for k, v in basis[-1].items()}]

    monkeypatch.setattr(homology, "top_cycle_basis", doubled_last)
    with pytest.raises(HomologyError, match="basis vector 5 has lead 2, not 1"):
        TopHomologyAction(c)


def test_lower_facet_sent_outside_is_rejected():
    # a triangle with two pendant edges; swapping 3 and 4 fixes the triangle
    # but sends the edges {2, 3} and {4, 5} outside the complex
    c = face_complex(tuple(range(6)), _closure([(0, 1, 2), (2, 3), (4, 5)]))
    action = TopHomologyAction(c)
    swap = (0, 1, 2, 4, 3, 5)
    assert not _every_face_maps_into(c, swap)
    with pytest.raises(HomologyError, match="not a simplicial automorphism"):
        action.matrix(swap)
    assert action.matrix((0, 1, 2, 3, 5, 4)) == SparseIntMatrix.identity(action.rank)


def test_action_without_faces_is_the_identity():
    path = cographic_complex(Multigraph(3, ((0, 1, 0), (1, 2, 1))))  # every edge a bridge
    action = TopHomologyAction(path)
    assert action.top == -1
    assert action.matrix((1, 0)) == SparseIntMatrix.identity(1)
    with pytest.raises(HomologyError, match="not a permutation of the cells"):
        action.matrix((0, 0))
