import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchin_supports.multigraph import (
    GraphError,
    HitchinPartition,
    Multigraph,
    build_dual_graph,
    cycle_space,
    delta_aff,
    double_edges,
    graph_from_json,
)

from conftest import brute_reach, complete_graph, parallel_graph


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1, i) for i in range(n - 1)))


# ---------------------------------------------------------------------------
# dual graphs
# ---------------------------------------------------------------------------


def test_dual_graph_two_parts_genus_two():
    g = build_dual_graph(HitchinPartition(2, (1, 1)))
    assert g.vertex_count == 2
    assert g.edge_count == 2
    assert all((u, v) == (0, 1) for u, v, _ in g.edges)


def test_dual_graph_three_parts_genus_two():
    g = build_dual_graph(HitchinPartition(2, (1, 1, 1)))
    assert g.vertex_count == 3
    assert g.edge_count == 6
    classes = g.edge_classes()
    assert {pair: len(labs) for pair, labs in classes.items()} == {
        (0, 1): 2,
        (0, 2): 2,
        (1, 2): 2,
    }


def test_dual_graph_single_part_has_no_edges():
    g = build_dual_graph(HitchinPartition(3, (2,)))
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_dual_graph_labels_are_lexicographic():
    g = build_dual_graph(HitchinPartition(2, (2, 1, 1)))
    # pair (0,1): 2*1*2 = 4 edges first, then (0,2): 4, then (1,2): 2
    expected_pairs = [(0, 1)] * 4 + [(0, 2)] * 4 + [(1, 2)] * 2
    ordered = sorted(g.edges, key=lambda e: e[2])
    assert [(u, v) for u, v, _ in ordered] == expected_pairs
    assert [lab for _, _, lab in ordered] == list(range(10))


def test_partition_validation():
    with pytest.raises(GraphError):
        HitchinPartition(1, (1, 1))
    with pytest.raises(GraphError):
        HitchinPartition(2, (1, 2))
    with pytest.raises(GraphError):
        HitchinPartition(2, ())
    p = HitchinPartition(2, (3, 2, 2, 1))
    assert p.n == 8
    assert p.k == 4
    assert p.multiplicities() == {3: 1, 2: 2, 1: 1}


# ---------------------------------------------------------------------------
# delta invariant
# ---------------------------------------------------------------------------


def test_delta_on_tree_is_zero():
    assert delta_aff(path_graph(4)) == 0


def test_delta_on_dual_graph_matches_sphere_case():
    g = build_dual_graph(HitchinPartition(2, (1, 1)))
    assert delta_aff(g) == 1  # 2g-3 at g=2


def test_delta_on_k4():
    assert delta_aff(complete_graph(4)) == 3


@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_delta_formula_against_graph(genus, raw_parts):
    parts = tuple(sorted(raw_parts, reverse=True))
    if sum(parts) > 8:
        parts = parts[:2]
    p = HitchinPartition(genus, parts)
    g = build_dual_graph(p)
    expected = (
        sum(
            p.parts[i] * p.parts[j] * (2 * genus - 2)
            for i in range(p.k)
            for j in range(i + 1, p.k)
        )
        - p.k
        + 1
    )
    assert delta_aff(g) == expected


def test_a_graph_equals_only_a_graph():
    g = Multigraph(1, ())
    assert g == Multigraph(1, ())
    assert (g == "x") is False  # NotImplemented on both sides falls back to identity
    assert g != Multigraph(2, ())


def test_delta_invariant_under_relabeling():
    g = complete_graph(4)
    shuffled = Multigraph(
        4, tuple((v, u, 100 - lab) for u, v, lab in g.edges)
    )
    assert delta_aff(shuffled) == delta_aff(g)


# ---------------------------------------------------------------------------
# doubling and contraction
# ---------------------------------------------------------------------------


def test_double_single_edge():
    g = Multigraph(2, ((0, 1, 0),))
    doubled, label_map = double_edges(g, {0})
    assert doubled.edge_count == 2
    assert label_map == {0: 1}
    assert doubled.edge_classes() == {(0, 1): [0, 1]}


def test_double_whole_triangle():
    doubled, label_map = double_edges(complete_graph(3), {0, 1, 2})
    assert doubled.vertex_count == 3
    assert doubled.edge_count == 6
    assert sorted(label_map.values()) == [3, 4, 5]


def test_double_nothing_is_identity():
    g = complete_graph(3)
    doubled, label_map = double_edges(g, set())
    assert doubled == g
    assert label_map == {}


def test_double_unknown_label():
    with pytest.raises(GraphError, match="no such edge"):
        double_edges(complete_graph(3), {9})


# ---------------------------------------------------------------------------
# cycle space
# ---------------------------------------------------------------------------


def test_cycle_space_of_tree_is_empty():
    basis = cycle_space(path_graph(4))
    assert basis.rank == 0
    assert basis.cycles == ()


def test_cycle_space_two_parallel_edges():
    basis = cycle_space(parallel_graph(2))
    assert basis.forest == frozenset({0})
    assert basis.chords == (1,)
    # +1 on the defining chord, the unique cycle up to sign
    assert basis.cycles[0] == {1: 1, 0: -1}


def test_cycle_space_k4_fundamental_cycles():
    g = complete_graph(4)
    basis = cycle_space(g)
    assert basis.rank == delta_aff(g) == 3
    by_label = {lab: (u, v) for u, v, lab in g.edges}
    for chord, cyc in zip(basis.chords, basis.cycles):
        assert cyc[chord] == 1
        assert len(cyc) <= 4  # chord plus at most 3 tree edges
        # each cycle vector is a 1-cycle: its boundary vanishes
        boundary = [0] * g.vertex_count
        for lab, coeff in cyc.items():
            u, v = by_label[lab]
            boundary[v] += coeff
            boundary[u] -= coeff
        assert not any(boundary)


def scattered_multigraphs(count: int, seed: int = 5):
    """Seeded multigraphs with loops, parallel edges, isolated vertices and
    several components, labelled by distinct integers drawn from 0..999 in
    no particular order.  A parallel copy is given in the reverse orientation
    of the edge it copies; the constructor stores both as ``u <= v``."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 10)
        edges = []
        for lab in rng.sample(range(1000), rng.randrange(0, 16)):
            u = rng.randrange(n)
            roll = rng.random()
            if roll < 0.15:
                v = u
            elif roll < 0.4 and edges:
                v, u, _ = rng.choice(edges)
            else:
                v = rng.randrange(n)
            edges.append((u, v, lab))
        yield Multigraph(n, tuple(edges))


def test_cycle_space_closes_each_chord_through_the_forest_or_by_the_previous_edge_of_its_class():
    # a class given in both orientations is stored u -> v, so each chord is
    # closed by the edge before it with coefficient -1
    basis = cycle_space(Multigraph(2, ((0, 1, 0), (1, 0, 1), (0, 1, 2))))
    assert basis.cycles == ({1: 1, 0: -1}, {2: 1, 1: -1})
    graphs = list(scattered_multigraphs(300))
    assert sum(any(u == v for u, v, _ in g.edges) for g in graphs) > 100
    assert sum(len({(u, v) for u, v, _ in g.edges}) < g.edge_count for g in graphs) > 100
    assert sum(g.component_count() > 1 for g in graphs) > 100
    assert sum(any(g.component_count(without={lab}) > g.component_count() for *_, lab in g.edges) for g in graphs) > 100
    closed_by_class = 0
    for g in graphs:
        by_label = {lab: (u, v) for u, v, lab in g.edges}
        # the greedy forest by brute force: an edge joins it when no lower
        # forest edge already joins its ends
        forest = []
        for lab in sorted(by_label):
            u, v = by_label[lab]
            if v not in brute_reach(u, (by_label[f] for f in forest)):
                forest.append(lab)
        basis = cycle_space(g)
        assert basis.forest == frozenset(forest), g.edges
        assert basis.chords == tuple(lab for lab in sorted(by_label) if lab not in basis.forest)
        for chord, cyc in zip(basis.chords, basis.cycles, strict=True):
            u, v = by_label[chord]
            lower = [lab for lab in by_label if lab < chord and by_label[lab] == (u, v)]
            previous = {max(lower)} if lower and u != v else set()
            assert cyc[chord] == 1
            assert set(cyc) <= basis.forest | {chord} | previous
            assert set(cyc.values()) <= {1, -1}
            closed_by_class += bool(previous)
            boundary = [0] * g.vertex_count
            for lab, coeff in cyc.items():
                u, v = by_label[lab]
                boundary[v] += coeff
                boundary[u] -= coeff
            assert not any(boundary), (g.edges, chord)
        # the columns are the transpose of the cycles, keyed by every label,
        # in increasing j, empty exactly on the bridges and holding no zero
        assert set(basis.columns) == set(by_label)
        for lab, col in basis.columns.items():
            assert all(col.values()) and list(col) == sorted(col)
            u, v = by_label[lab]
            bridge = v not in brute_reach(u, (by_label[f] for f in by_label if f != lab))
            assert (col == {}) == bridge, (g.edges, lab)
            for j, cyc in enumerate(basis.cycles):
                assert col.get(j, 0) == cyc.get(lab, 0)
        assert sum(map(len, basis.columns.values())) == sum(map(len, basis.cycles))
    assert closed_by_class > 100


def test_cycle_count_matches_delta_and_cycles_independent():
    for g in (complete_graph(4), parallel_graph(3), complete_graph(3), *scattered_multigraphs(300)):
        basis = cycle_space(g)
        assert basis.rank == delta_aff(g)
        # on the chords the cycles are unitriangular with 1 on the diagonal:
        # each holds its own chord with entry 1 and no later chord, so they
        # are independent
        for i, chord in enumerate(basis.chords):
            assert basis.cycles[i][chord] == 1
            assert not any(cyc.get(chord, 0) for cyc in basis.cycles[:i])


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_json_loader_assigns_labels_by_position():
    g = graph_from_json('{"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    assert g.labels() == (0, 1, 2)
    assert g.edges[1] == (1, 2, 1)


def test_json_rejects_garbage():
    with pytest.raises(GraphError):
        graph_from_json("{not json")
    with pytest.raises(GraphError):
        graph_from_json('{"vertices": 2}')


MALFORMED_GRAPHS = [
    '{"vertices": 2, "edges": [[0]]}',
    '{"vertices": 2, "edges": [[0, 1, 1]]}',
    '{"vertices": "a", "edges": []}',
    '{"vertices": 2.9, "edges": [[0, 1.7], [true, 0]]}',
    '{"vertices": 2.0, "edges": [[0, 1]]}',
    '{"vertices": true, "edges": []}',
    '{"vertices": null, "edges": []}',
    '{"vertices": 2, "edges": [[0, 1.7]]}',
    '{"vertices": 2, "edges": [[true, 0]]}',
    '{"vertices": 2, "edges": [[0, "1"]]}',
    '{"vertices": 2, "edges": ["01"]}',
    '{"vertices": 2, "edges": [0, 1]}',
    '{"vertices": 2, "edges": {"0": [0, 1]}}',
    '{"vertices": 2, "edges": "[[0, 1]]"}',
    '[2, [[0, 1]]]',
    '"graph"',
]


@pytest.mark.parametrize("text", MALFORMED_GRAPHS)
def test_json_rejects_malformed_documents_without_coercion(text):
    with pytest.raises(GraphError, match="bad graph JSON"):
        graph_from_json(text)


SHAPE = '{"vertices": k, "edges": [[u, v], ...]}'


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", f"bad graph JSON: expected an object {SHAPE}"),
        ('"graph"', f"bad graph JSON: expected an object {SHAPE}"),
        ('{"vertices": 2}', f'bad graph JSON: missing key "edges" in {SHAPE}'),
        ('{"edges": []}', f'bad graph JSON: missing key "vertices" in {SHAPE}'),
    ],
)
def test_json_names_the_expected_shape_or_the_missing_key(text, message):
    with pytest.raises(GraphError) as exc:
        graph_from_json(text)
    assert str(exc.value) == message


def test_json_rejects_out_of_range_data():
    with pytest.raises(GraphError):
        graph_from_json('{"vertices": -1, "edges": []}')
    with pytest.raises(GraphError):
        graph_from_json('{"vertices": 2, "edges": [[0, 2]]}')
