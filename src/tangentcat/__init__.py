"""Exact classification of morphisms by their tangent-bundle behaviour.

The package builds three concrete settings on one symbolic core --
commutative algebras with dual numbers, affine presentations with Kahler
differentials, and polynomial maps with their Jacobians -- and decides, with
machine-checkable evidence, where a morphism sits in the hierarchy from
monomorphisms through immersions and submersions up to etale maps.
"""

from .classify import (
    ClassificationReport,
    PredicateStatus,
    PREDICATES,
    classify_affine,
    classify_calg,
    coherence_check,
)
from .cdc import (
    CdcMap,
    cdc_context,
    cdc_map,
    classify_cdc_map,
    classify_linear,
    compose,
    differential,
    linearize_section,
    tangent,
    theta,
    verify_cdc_axioms,
    verify_tangent_identities,
)
from .errors import TangentError
from .kahler import (
    base_change_check,
    classify_cotangent,
    cotangent_map,
    jacobian_split_verdict,
    kahler_module,
    relative_kahler,
)
from .oracle import identity_check, replay_evidence
from .polycore import (
    NN,
    Polynomial,
    QQ,
    VariableContext,
    ZZ,
    poly_parse,
    prime_field,
)
from .presentations import (
    AlgebraMorphism,
    AlgebraPresentation,
    dual_numbers,
    free_algebra,
    linear_section_exists,
    morphism,
    present,
    pushout,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraMorphism",
    "AlgebraPresentation",
    "CdcMap",
    "ClassificationReport",
    "NN",
    "Polynomial",
    "PredicateStatus",
    "PREDICATES",
    "QQ",
    "TangentError",
    "VariableContext",
    "ZZ",
    "base_change_check",
    "cdc_context",
    "cdc_map",
    "classify_affine",
    "classify_calg",
    "classify_cdc_map",
    "classify_cotangent",
    "classify_linear",
    "coherence_check",
    "compose",
    "cotangent_map",
    "differential",
    "dual_numbers",
    "free_algebra",
    "identity_check",
    "jacobian_split_verdict",
    "kahler_module",
    "linear_section_exists",
    "linearize_section",
    "morphism",
    "poly_parse",
    "present",
    "prime_field",
    "pushout",
    "relative_kahler",
    "replay_evidence",
    "tangent",
    "theta",
    "verify_cdc_axioms",
    "verify_tangent_identities",
]
