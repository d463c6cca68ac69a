"""Curvature and canonical forms of left-invariant Lorentzian metrics on
three-dimensional non-unimodular Lie groups."""

from .algebra import (
    AutomorphismParams,
    BasisLabel,
    FamilyTag,
    LieAlgebra3,
    adapted_automorphism,
    adapted_basis_vectors,
    adapted_transition,
    automorphism_matrix,
    change_basis,
    classification_basis,
    is_automorphism,
    make_family_algebra,
)
from .atlas import (
    AtlasEntry,
    ClosedFormCurvature,
    FormSpec,
    atlas_entries,
    canonical_matrix,
    closed_form_report,
    cross_check,
    emit_tables,
    form_specs,
    get_form_spec,
    paper_frame,
)
from .canonical import (
    CanonicalForm,
    ConstantCurvatureClass,
    DegenerateMetricError,
    canonical_form,
    constant_curvature_class,
    equivalent,
    from_adapted_basis,
    to_adapted_basis,
)
from .curvature import (
    Connection,
    CurvatureReport,
    cross,
    curvature_report,
    levi_civita,
    milnor_sectional,
    ricci_operator,
    ricci_tensor,
    riemann,
    scalar_curvature,
    sectional,
)
from .metric import (
    J21,
    MetricTensor,
    OrthonormalFrame,
    SignatureDiagnostics,
    frame_gram_residual,
    orthonormal_frame,
    pull_back_metric,
    validate_metric,
)
from .oneill import ONeillClassification, ONeillType, classify_self_adjoint
from .tolerance import DEFAULT_TOL, ToleranceConfig

__version__ = "0.1.0"

__all__ = [
    "AtlasEntry", "AutomorphismParams", "BasisLabel", "CanonicalForm",
    "ClosedFormCurvature", "Connection", "ConstantCurvatureClass",
    "CurvatureReport", "DEFAULT_TOL", "DegenerateMetricError", "FamilyTag",
    "FormSpec", "J21", "LieAlgebra3", "MetricTensor", "ONeillClassification",
    "ONeillType", "OrthonormalFrame", "SignatureDiagnostics",
    "ToleranceConfig", "adapted_automorphism", "adapted_basis_vectors",
    "adapted_transition", "atlas_entries", "automorphism_matrix",
    "canonical_form", "canonical_matrix", "change_basis",
    "classification_basis", "classify_self_adjoint", "closed_form_report",
    "constant_curvature_class", "cross", "cross_check", "curvature_report",
    "emit_tables", "equivalent", "form_specs", "frame_gram_residual",
    "from_adapted_basis", "get_form_spec", "is_automorphism", "levi_civita",
    "make_family_algebra", "milnor_sectional", "orthonormal_frame",
    "paper_frame", "pull_back_metric", "ricci_operator", "ricci_tensor",
    "riemann", "scalar_curvature", "sectional", "to_adapted_basis",
    "validate_metric",
]
