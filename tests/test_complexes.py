import itertools
import math
import random

import pytest

from hitchin_supports import complexes
from hitchin_supports.complexes import (
    _coarser,
    _depth_first,
    cographic_complex,
    nonspanning_complex,
    partition_order_complex,
    proper_partitions,
    set_partitions,
)
from hitchin_supports.homology import HomologyError, boundary_complex
from hitchin_supports.multigraph import GraphError, Multigraph, delta_aff
from hitchin_supports.selftest import _subsets_where, random_connected_multigraph

from conftest import brute_face_sets, complete_graph, face_complex, parallel_graph, refines


def faces_as_label_sets(c):
    out = {()}
    for faces in c.faces_by_dim:
        for face in faces:
            out.add(tuple(c.ground_set[i] for i in face))
    return out


# ---------------------------------------------------------------------------
# cographic complex
# ---------------------------------------------------------------------------


def test_cographic_triangle_is_three_points():
    c = cographic_complex(complete_graph(3))
    assert c.f_vector() == (1, 3)
    assert faces_as_label_sets(c) == brute_face_sets(complete_graph(3), "cographic")


def test_cographic_two_parallel_edges_is_s0():
    c = cographic_complex(parallel_graph(2))
    assert c.f_vector() == (1, 2)


def test_cographic_single_loop_is_a_cone():
    g = Multigraph(1, ((0, 0, 0),))
    c = cographic_complex(g)
    assert c.f_vector() == (1, 1)  # the loop itself is removable


def test_cographic_k4_f_vector():
    c = cographic_complex(complete_graph(4))
    assert c.f_vector() == (1, 6, 15, 16)
    assert faces_as_label_sets(c) == brute_face_sets(complete_graph(4), "cographic")


def test_cographic_max_face_size_is_delta():
    for g in (complete_graph(4), complete_graph(5), parallel_graph(4)):
        c = cographic_complex(g)
        assert c.dim == delta_aff(g) - 1


def test_a_complex_missing_a_facet_is_not_downward_closed():
    # the triangle's edges without the vertex 2 that two of them contain
    faces = (((0,), (1,)), ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(HomologyError, match="not downward closed"):
        boundary_complex(face_complex((0, 1, 2), faces))
    boundary_complex(face_complex((0, 1, 2), (faces[0] + ((2,),), faces[1])))


def test_cographic_requires_connected():
    g = Multigraph(3, ((0, 1, 0),))
    with pytest.raises(GraphError, match="connected"):
        cographic_complex(g)


def test_cographic_downward_closed_and_sorted():
    c = cographic_complex(complete_graph(4))
    boundary_complex(c)  # raises unless every facet of every face is a face
    for faces in c.faces_by_dim:
        assert list(faces) == sorted(faces)


# ---------------------------------------------------------------------------
# nonspanning complex
# ---------------------------------------------------------------------------


def test_nonspanning_k3():
    c = nonspanning_complex(complete_graph(3))
    assert c.f_vector() == (1, 3)
    assert faces_as_label_sets(c) == brute_face_sets(complete_graph(3), "nonspanning")


def test_nonspanning_single_edge_graph():
    c = nonspanning_complex(Multigraph(2, ((0, 1, 0),)))
    assert c.f_vector() == (1,)


def test_nonspanning_k4_matches_brute_force():
    c = nonspanning_complex(complete_graph(4))
    assert faces_as_label_sets(c) == brute_face_sets(complete_graph(4), "nonspanning")
    boundary_complex(c)  # raises unless every facet of every face is a face


def test_cographic_nonspanning_complementarity():
    # I keeps the graph connected exactly when the complementary edge set spans.
    g = complete_graph(4)
    labels = g.labels()
    cographic = faces_as_label_sets(cographic_complex(g))
    nonspanning = faces_as_label_sets(nonspanning_complex(g))
    for k in range(len(labels) + 1):
        for subset in itertools.combinations(labels, k):
            complement = tuple(l for l in labels if l not in subset)
            in_c = subset in cographic
            complement_spans = complement not in nonspanning
            assert in_c == complement_spans


# ---------------------------------------------------------------------------
# partition lattice order complex
# ---------------------------------------------------------------------------


def test_set_partitions_counts_are_bell_numbers():
    assert len(set_partitions(3)) == 5
    assert len(set_partitions(4)) == 15
    assert len(set_partitions(5)) == 52


def test_order_complex_r3():
    c = partition_order_complex(3)
    assert c.f_vector() == (1, 3)
    assert set(c.ground_set) == {"12|3", "13|2", "1|23"}


def test_order_complex_r2_is_empty():
    c = partition_order_complex(2)
    assert c.ground_set == ()
    assert c.f_vector() == (1,)


def test_order_complex_r4():
    c = partition_order_complex(4)
    # S(4,2) = 7 and S(4,3) = 6 intermediate partitions
    assert len(c.ground_set) == 13
    assert c.dim == 1  # maximal chains have two steps
    # every 1-face is a strict refinement pair
    parts = {label: tuple(tuple(int(ch) for ch in blk) for blk in label.split("|")) for label in c.ground_set}
    for i, j in c.faces_by_dim[1]:
        p, q = parts[c.ground_set[i]], parts[c.ground_set[j]]
        assert len(p) > len(q)
        assert refines(p, q)
    boundary_complex(c)  # raises unless every facet of every face is a face


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_coarser_lists_match_the_refinement_predicate(r):
    proper = proper_partitions(r)
    expected = [
        [j for j in range(i + 1, len(proper)) if len(proper[j]) < len(p) and refines(p, proper[j])]
        for i, p in enumerate(proper)
    ]
    assert _coarser(proper) == expected


def test_order_complex_rejects_small_r():
    with pytest.raises(GraphError):
        partition_order_complex(1)


def test_vertex_permutation_induces_automorphism_of_complexes():
    # relabeling the graph's vertices permutes cells but preserves face sets
    g = complete_graph(4)
    perm = (1, 2, 3, 0)
    relabeled = Multigraph(4, tuple((perm[u], perm[v], lab) for u, v, lab in g.edges))
    for build in (cographic_complex, nonspanning_complex):
        original = build(g)
        mapped = build(relabeled)
        assert original.f_vector() == mapped.f_vector()


def test_face_limit_stops_a_level_while_it_grows():
    # the full simplex on 40 vertices: 40 vertices, then 780 edges, then 9,880
    # triangles; every candidate read is a face listed, and the guard must
    # raise at the 101st
    reads = []

    class Zeros(list):
        def __getitem__(self, e):
            reads.append(e)
            return 0

    below = [range(e + 1, 40) for e in range(40)]
    with pytest.raises(GraphError, match="more than 100 faces"):
        _depth_first(below, Zeros([0] * 40), 100, max_rank=0, max_nullity=40)
    assert len(reads) <= 101
    # K_5 has 727 non-empty faces
    with pytest.raises(GraphError):
        cographic_complex(complete_graph(5), face_limit=726)
    assert sum(cographic_complex(complete_graph(5), face_limit=727).f_vector()) == 728


class Enumerated(Exception):
    """Raised by a patched enumeration step: the builder got past its bound."""


def _refuse_enumeration(monkeypatch):
    def enumerated(*args, **kwargs):
        raise Enumerated

    for name in ("cycle_space", "_depth_first", "proper_partitions"):
        monkeypatch.setattr(complexes, name, enumerated)


def _path(v: int) -> Multigraph:
    return Multigraph(v, tuple((u, u + 1, u) for u in range(v - 1)))


def test_hopeless_complexes_are_refused_before_enumeration(monkeypatch):
    # 2**171 - 1 cographic faces of K_20, 2**20 - 2 non-spanning faces of a
    # 21-vertex tree, 1,587,600 maximal chains of Pi_8: none is enumerated
    _refuse_enumeration(monkeypatch)
    for build, arg in (
        (cographic_complex, complete_graph(20)),
        (nonspanning_complex, _path(21)),
        (partition_order_complex, 8),
    ):
        with pytest.raises(GraphError, match="more than 500000 faces"):
            build(arg)


def _face_bound(kind: str, n: int) -> int:
    """The closed-form lower bounds on the non-empty faces: 2**δ - 1 for the
    cographic and 2**(V-1) - 2 for the non-spanning complex of K_n, and the
    r!(r-1)!/2**(r-1) maximal chains of Pi_r."""
    if kind == "flats":
        return math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)
    if kind == "cographic":
        return 2 ** (n * (n - 1) // 2 - n + 1) - 1
    return 2 ** (n - 1) - 2


def _build(kind: str, n: int, face_limit: int = complexes.DEFAULT_FACE_LIMIT):
    if kind == "flats":
        return partition_order_complex(n, face_limit)
    build = cographic_complex if kind == "cographic" else nonspanning_complex
    return build(complete_graph(n), face_limit)


BOUND_CASES = [("cographic", n) for n in range(3, 7)] + [("nonspanning", n) for n in range(3, 7)]
BOUND_CASES += [("flats", r) for r in range(3, 8)]


def test_each_face_bound_refuses_exactly_above_its_value(monkeypatch):
    _refuse_enumeration(monkeypatch)
    for kind, n in BOUND_CASES + [("cographic", 8), ("flats", 8)]:
        bound = _face_bound(kind, n)
        with pytest.raises(GraphError, match=f"more than {bound - 1} faces"):
            _build(kind, n, bound - 1)
        with pytest.raises(Enumerated):
            _build(kind, n, bound)
    with pytest.raises(Enumerated):
        partition_order_complex(2, 0)  # Pi_2 has no faces: no bound below r = 3


@pytest.mark.parametrize("kind,n", BOUND_CASES)
def test_each_face_bound_is_at_most_the_enumerated_count(kind, n):
    assert _face_bound(kind, n) <= sum(_build(kind, n).f_vector()) - 1


# ---------------------------------------------------------------------------
# both graph complexes against a union-find test of every edge subset
# ---------------------------------------------------------------------------


def seeded_multigraph(rng: random.Random) -> Multigraph:
    """1-5 vertices and at most 8 edges: a random spanning tree, then loops
    and edges between random (possibly equal) vertices; v = 1 is a bouquet."""
    v = rng.randrange(1, 6)
    edges = [(rng.randrange(w), w) for w in range(1, v)]
    for _ in range(rng.randrange(max(1, 9 - len(edges)))):
        edges.append((rng.randrange(v), rng.randrange(v)))
    return Multigraph(v, tuple((a, b, 10 * i + 3) for i, (a, b) in enumerate(edges)))


ORACLE_GRAPHS = [seeded_multigraph(random.Random(f"oracle:{i}")) for i in range(150)] + [
    Multigraph(1, ((0, 0, 0), (0, 0, 1), (0, 0, 2))),
    Multigraph(4, ((0, 1, 0), (1, 2, 1), (2, 3, 2))),
    Multigraph(4, ((0, 1, 0), (1, 2, 1), (0, 2, 2), (2, 3, 3), (3, 3, 4), (0, 1, 5))),
]


def test_oracle_graphs_cover_loops_parallels_bridges_and_bouquets():
    def parallel(g):
        pairs = [(u, v) for u, v, _ in g.edges if u != v]
        return len(pairs) > len(set(pairs))

    def bridge(g):
        return any(not g.is_connected(without={lab}) for lab in g.labels())

    assert all(g.edge_count <= 8 for g in ORACLE_GRAPHS)
    assert sum(any(u == v for u, v, _ in g.edges) for g in ORACLE_GRAPHS) >= 30
    assert sum(map(parallel, ORACLE_GRAPHS)) >= 30
    assert sum(map(bridge, ORACLE_GRAPHS)) >= 30
    assert sum(g.vertex_count == 1 and g.edge_count > 1 for g in ORACLE_GRAPHS) >= 10


def test_graph_complexes_equal_the_subset_scan():
    for graph in ORACLE_GRAPHS:
        built = [(cographic_complex(graph), lambda drop: graph.is_connected(without=drop))]
        if graph.vertex_count >= 2:
            every = set(graph.labels())
            spanning_fails = lambda kept: graph.component_count(without=every - kept) > 1  # noqa: E731
            built.append((nonspanning_complex(graph), spanning_fails))
        for c, keeps in built:
            assert c.faces_by_dim == _subsets_where(graph, keeps), graph.edges
            for faces in c.faces_by_dim:
                assert list(faces) == sorted(faces), graph.edges


def test_every_builder_writes_the_bit_mask_of_each_face():
    rng = random.Random(44)
    graphs = [random_connected_multigraph(rng, 8) for _ in range(60)]
    pairs = [[(u, v) for u, v, _ in g.edges if u != v] for g in graphs]
    assert any(u == v for g in graphs for u, v, _ in g.edges)
    assert any(len(set(p)) < len(p) for p in pairs)
    complexes = [cographic_complex(complete_graph(5)), nonspanning_complex(complete_graph(5)), partition_order_complex(5)]
    complexes += [cographic_complex(g) for g in graphs]
    complexes += [nonspanning_complex(g) for g in graphs if g.vertex_count >= 2]
    for c in complexes:
        summed = tuple(tuple(sum(1 << i for i in face) for face in faces) for faces in c.faces_by_dim)
        assert c.masks_by_dim == summed, c.faces_by_dim


@pytest.mark.parametrize(
    "build, f_vector",
    [
        (lambda: cographic_complex(complete_graph(3)), (1, 3)),
        (lambda: cographic_complex(complete_graph(4)), (1, 6, 15, 16)),
        (lambda: cographic_complex(complete_graph(5)), (1, 10, 45, 120, 205, 222, 125)),
        (
            lambda: cographic_complex(complete_graph(6)),
            (1, 15, 105, 455, 1365, 2997, 4945, 6165, 5700, 3660, 1296),
        ),
        (lambda: partition_order_complex(4), (1, 13, 18)),
        (lambda: partition_order_complex(5), (1, 50, 205, 180)),
        (lambda: partition_order_complex(6), (1, 201, 1865, 4245, 2700)),
    ],
    ids=["K3", "K4", "K5", "K6", "Pi4", "Pi5", "Pi6"],
)
def test_pinned_f_vectors(build, f_vector):
    c = build()
    assert c.f_vector() == f_vector
    for faces in c.faces_by_dim:
        assert list(faces) == sorted(faces)


def test_nonspanning_refuses_bad_graphs():
    with pytest.raises(GraphError, match="connected"):
        nonspanning_complex(Multigraph(3, ((0, 1, 0), (2, 2, 1))))
    with pytest.raises(GraphError, match="at least 2 vertices"):
        nonspanning_complex(Multigraph(1, ((0, 0, 0),)))
