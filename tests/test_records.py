"""The record types keep the constructors, attributes and checks their callers
rely on: each builds from positional and from keyword arguments in its field
order, and the normalising, validating and caching records keep doing so."""

import pytest

from hitchin_supports.cks import (
    CKSComplexInstance,
    CksBlock,
    CksCohomology,
    CksPiece,
    GradedH1Model,
    build_cks,
    build_graded_model,
    cks_cohomology,
)
from hitchin_supports.complexes import FaceComplex, cographic_complex
from hitchin_supports.homology import (
    HomologyProfile,
    IntChainComplex,
    SparseIntMatrix,
    boundary_complex,
    reduced_homology,
)
from hitchin_supports.multigraph import CycleSpaceBasis, GraphError, HitchinPartition, Multigraph, cycle_space
from hitchin_supports.numerology import SupportReport, support_report
from hitchin_supports.selftest import SelftestConfig
from hitchin_supports.symgroup import (
    ClassFunction,
    ProductClassFunction,
    SymgroupError,
    restrict_to_young,
    top_homology_character,
)


def _fields(record, names: str) -> dict:
    return {name: getattr(record, name) for name in names.split()}


def _stored_as_given(record, fields):
    for name, value in fields.items():
        assert getattr(record, name) is value, name


def _check_multigraph(g, fields):
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 5), (2, 2, 7), (0, 2, 9))  # every edge stored with u <= v
    with pytest.raises(GraphError, match="out of range"):
        Multigraph(2, ((0, 2, 0),))
    with pytest.raises(GraphError, match="duplicate edge label 3"):
        Multigraph(2, ((0, 1, 3), (1, 0, 3)))


def _check_partition(p, fields):
    assert p.genus == 2
    assert p.parts == (2, 1) and type(p.parts) is tuple
    assert (p.n, p.k) == (3, 2)
    with pytest.raises(GraphError, match="genus"):
        HitchinPartition(1, (2, 1))
    with pytest.raises(GraphError, match="non-increasing"):
        HitchinPartition(2, (1, 2))


def _check_class_function(cf, fields):
    _stored_as_given(cf, fields)
    assert cf.twist_by_sign().values == {(3,): 2, (2, 1): -1, (1, 1, 1): 6}
    with pytest.raises(SymgroupError, match="must be int"):
        ClassFunction(3, {(3,): 2.0, (2, 1): 0, (1, 1, 1): 6})
    with pytest.raises(SymgroupError, match="all cycle types"):
        ClassFunction(3, {(3,): 2, (1, 1, 1): 6})


def _check_model(m, fields):
    _stored_as_given(m, fields)
    assert m.reduced is m.reduced
    assert m.cographic_action is m.cographic_action


def _check_selftest_config(cfg, fields):
    _stored_as_given(cfg, fields)
    assert SelftestConfig._field_defaults == {"max_edges": 10, "count": 30, "r": 4}
    defaults = SelftestConfig(seed=7)
    assert (defaults.seed, defaults.max_edges, defaults.count, defaults.r) == (7, 10, 30, 4)


def _check_matrix(m, fields):
    _stored_as_given(m, fields)
    # selftest's composition law compares products with ``!=``
    identity = SparseIntMatrix.identity(2)
    assert identity.matmul(m) == m
    assert not identity.matmul(m) != m
    assert m != SparseIntMatrix(m.rows, ({},) * m.cols)
    assert identity == SparseIntMatrix(2, ({0: 1}, {1: 1}))


def _record_cases():
    graph = Multigraph(3, ((0, 1, 5), (2, 2, 7), (0, 2, 9)))
    model = build_graded_model(HitchinPartition(2, (1, 1, 1)))
    instance = build_cks(model, 3)
    piece = instance.pieces[0][2]
    faces = cographic_complex(Multigraph(2, ((0, 1, 0), (0, 1, 1), (0, 1, 2))))
    chains = boundary_complex(faces)
    character = top_homology_character(3)
    return [
        (Multigraph, {"vertex_count": 3, "edges": [(1, 0, 5), (2, 2, 7), (2, 0, 9)]}, _check_multigraph),
        (HitchinPartition, {"genus": 2, "parts": [2, 1]}, _check_partition),
        (ClassFunction, {"r": 3, "values": {(3,): 2, (2, 1): 1, (1, 1, 1): 6}}, _check_class_function),
        (GradedH1Model, _fields(model, "graph component_genera cycles"), _check_model),
        (SelftestConfig, {"seed": 1, "max_edges": 5, "count": 3, "r": 3}, _check_selftest_config),
        (SparseIntMatrix, {"rows": 2, "columns": ({0: 1}, {0: -2, 1: 3})}, _check_matrix),
        (IntChainComplex, _fields(chains, "boundaries"), _stored_as_given),
        (HomologyProfile, _fields(reduced_homology(chains), "betti euler"), _stored_as_given),
        (FaceComplex, _fields(faces, "ground_set faces_by_dim masks_by_dim"), _stored_as_given),
        (CycleSpaceBasis, _fields(cycle_space(graph), "forest chords cycles columns"), _stored_as_given),
        (SupportReport, _fields(support_report(HitchinPartition(2, (2, 1))), SUPPORT_REPORT_FIELDS), _stored_as_given),
        (ProductClassFunction, _fields(restrict_to_young(character, (2, 1)), "alphas values"), _stored_as_given),
        (CksBlock, _fields(piece.terms[0][0], "subset basis"), _stored_as_given),
        (CksPiece, _fields(piece, "weight terms differentials"), _stored_as_given),
        (CKSComplexInstance, _fields(instance, "model exterior_degree pieces"), _stored_as_given),
        (CksCohomology, _fields(cks_cohomology(instance), "exterior_degree delta degrees top_weight"), _stored_as_given),
    ]


SUPPORT_REPORT_FIELDS = (
    "genus partition n k dim_base dim_total delta_aff codim_stratum perversity_range normalized_h1 "
    "top_rank local_system_ranks monodromy_group_order constant_monodromy checks"
)
RECORD_CASES = _record_cases()


@pytest.mark.parametrize("cls, fields, check", RECORD_CASES, ids=[case[0].__name__ for case in RECORD_CASES])
def test_record_builds_positionally_and_by_keyword(cls, fields, check):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    check(positional, fields)
    check(keyword, fields)
