"""ddepoly: polynomial sequences from P_{n+1} = A_n P_n' + B_n P_n.

Exact generation and coefficient recovery, damping-factor classification,
and verified statements about where the zeros live and how consecutive
degrees interlace.
"""

__version__ = "0.1.0"

from .dde import (
    AdmissibilityEntry,
    AdmissibilityResult,
    CoefficientPair,
    CoefficientRule,
    CoefficientTable,
    NonSimpleZerosError,
    PolySequence,
    admits_dde,
    generate,
    sample_xy,
    step,
)
from .families import FamilySpec, ParamRule, coefficient_source, oracle_poly, stirling2
from .freud import FreudData, PrecisionError, freud_recurrence_coeffs, freud_sequence
from .kfactor import (
    BoundarySpec,
    CaseDecision,
    KClassification,
    boundary_zeros,
    classify,
    decide_case,
    normalize,
)
from .poly import NEG_INF, POS_INF, KindMismatchError, Poly, format_poly, squarefree_decomposition
from .roots import (
    InterlaceReport,
    InternalError,
    Interval,
    RealSimpleCheck,
    RootInterval,
    RootSet,
    interlaces,
    is_real_simple,
    isolate_roots,
    sturm_count,
)
from .verify import SequenceRecord, VerificationReport, check_k_identity, verify_sequence

__all__ = [
    "AdmissibilityEntry",
    "AdmissibilityResult",
    "BoundarySpec",
    "CaseDecision",
    "CoefficientPair",
    "CoefficientRule",
    "CoefficientTable",
    "FamilySpec",
    "FreudData",
    "InterlaceReport",
    "InternalError",
    "Interval",
    "KClassification",
    "KindMismatchError",
    "NEG_INF",
    "NonSimpleZerosError",
    "POS_INF",
    "ParamRule",
    "Poly",
    "PolySequence",
    "PrecisionError",
    "RealSimpleCheck",
    "RootInterval",
    "RootSet",
    "SequenceRecord",
    "VerificationReport",
    "admits_dde",
    "boundary_zeros",
    "check_k_identity",
    "classify",
    "coefficient_source",
    "decide_case",
    "format_poly",
    "freud_recurrence_coeffs",
    "freud_sequence",
    "generate",
    "interlaces",
    "is_real_simple",
    "isolate_roots",
    "normalize",
    "oracle_poly",
    "sample_xy",
    "squarefree_decomposition",
    "step",
    "stirling2",
    "sturm_count",
    "verify_sequence",
]
