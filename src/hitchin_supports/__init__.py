"""Exact combinatorics and rational homology behind the support strata of
GL_n Hitchin fibrations over the reduced locus: dual graphs of nodal spectral
curves, cographic-matroid complexes, weight-graded monodromy complexes, the
symmetric-group action on top homology, and the closed-form numerology of the
new supports.
"""

from .multigraph import (
    CycleSpaceBasis,
    GraphError,
    HitchinPartition,
    Multigraph,
    build_dual_graph,
    cycle_space,
    delta_aff,
    double_edges,
    graph_from_json,
)
from .complexes import (
    FaceComplex,
    cographic_complex,
    nonspanning_complex,
    partition_order_complex,
)
from .homology import (
    HomologyProfile,
    IntChainComplex,
    SparseIntMatrix,
    boundary_complex,
    exact_rank,
    reduced_homology,
)
from .cks import (
    CKSComplexInstance,
    CksCohomology,
    CksError,
    GradedH1Model,
    build_cks,
    build_graded_model,
    cks_cohomology,
    image_NI,
    model_from_graph,
    nilpotent_family,
    picard_lefschetz,
    top_weight_action,
)
from .symgroup import (
    ClassFunction,
    ProductClassFunction,
    SymgroupError,
    edge_action,
    induced_character_oracle,
    partition_lattice_character,
    restrict_to_young,
    top_homology_character,
)
from .numerology import (
    SupportReport,
    delta_aff_formula,
    local_system_rank,
    support_report,
)

__all__ = [
    "CKSComplexInstance",
    "CksCohomology",
    "CksError",
    "ClassFunction",
    "GradedH1Model",
    "ProductClassFunction",
    "SupportReport",
    "SymgroupError",
    "build_cks",
    "build_graded_model",
    "cks_cohomology",
    "delta_aff_formula",
    "edge_action",
    "image_NI",
    "induced_character_oracle",
    "local_system_rank",
    "model_from_graph",
    "nilpotent_family",
    "partition_lattice_character",
    "picard_lefschetz",
    "restrict_to_young",
    "support_report",
    "top_homology_character",
    "top_weight_action",
    "CycleSpaceBasis",
    "FaceComplex",
    "GraphError",
    "HitchinPartition",
    "HomologyProfile",
    "Multigraph",
    "IntChainComplex",
    "SparseIntMatrix",
    "boundary_complex",
    "build_dual_graph",
    "cographic_complex",
    "cycle_space",
    "delta_aff",
    "double_edges",
    "exact_rank",
    "graph_from_json",
    "nonspanning_complex",
    "partition_order_complex",
    "reduced_homology",
]

__version__ = "0.1.0"
