import itertools

import pytest

from hitchin_supports.complexes import (
    _grow_by_levels,
    cographic_complex,
    nonspanning_complex,
    partition_order_complex,
    refines,
    set_partitions,
)
from hitchin_supports.multigraph import GraphError, Multigraph, delta_aff

from conftest import brute_face_sets, complete_graph, parallel_graph


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


def test_cographic_requires_connected():
    g = Multigraph(3, ((0, 1, 0),))
    with pytest.raises(GraphError, match="connected"):
        cographic_complex(g)


def test_cographic_downward_closed_and_sorted():
    c = cographic_complex(complete_graph(4))
    assert c.verify_downward_closed()
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
    assert c.verify_downward_closed()


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
    assert c.verify_downward_closed()


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
    # triangles; the guard must stop inside the edge level
    calls = []

    def children(face):
        calls.append(face)
        return [face + (e,) for e in range(face[-1] + 1 if face else 0, 40)]

    with pytest.raises(GraphError, match="more than 100 faces"):
        _grow_by_levels(children, 100)
    assert len(calls) <= 4
    # K_5 has 727 non-empty faces
    with pytest.raises(GraphError):
        cographic_complex(complete_graph(5), face_limit=726)
    assert sum(cographic_complex(complete_graph(5), face_limit=727).f_vector()) == 728
