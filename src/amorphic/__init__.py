"""Exact fusion analysis of symmetric association schemes.

Validate scheme axioms, compute intersection numbers, eigenmatrices,
idempotents and Krein parameters, decide fusion questions with two
independent oracles, classify fusing triples and their overlaps, build
fusing hypergraphs, detect 3-sunflowers, and certify amorphicity.
"""

from .errors import (
    SchemeError,
    AxiomViolation,
    DegenerateSpectrum,
    IdempotencyViolation,
    NegativeKrein,
    NotAFusion,
    NotFusing,
    OracleDisagreement,
    LimitExceeded,
    PreconditionFailed,
    Unclassified,
    WrongUniformity,
    WrongClassCount,
    NotSymmetric,
    FieldUnsupported,
    ParseError,
    Falsification,
)
from .core import (
    Tolerance,
    DEFAULT_TOL,
    LabelMatrix,
    AssociationScheme,
    IntersectionTensor,
    SpectralData,
    IdempotentBasis,
    KreinTensor,
    validate_scheme,
    intersection_numbers,
    spectral_decomposition,
    idempotents,
    krein_parameters,
    formal_duality_permutation,
)
from .fusion import (
    ClassPartition,
    DualPartition,
    FusionOutcome,
    TripleType,
    OverlapCase,
    fuse_direct,
    bm_check,
    enumerate_fusing_tuples,
    classify_triple,
    contraction_check,
    overlap_case,
    CASE_REPRESENTATIVES,
    SURVIVING_CASES,
)
from .hypergraph import (
    UniformHypergraph,
    SunflowerCore,
    GraphShape,
    build_fusing_hypergraph,
    sunflower_cores,
    graph_shape,
    to_dot,
    to_edge_list,
)
from .classify import (
    LatinInfo,
    SrgInfo,
    CanonicalFormCertificate,
    EphemeralPattern,
    AmorphicVerdict,
    ClaimRecord,
    ClaimReport,
    srg_info,
    canonical_form_check,
    amorphic_oracle,
    is_amorphic,
    ephemeral_form_check,
    row_lemma_check,
    verify_paper_claims,
)
from .generators import (
    SmallField,
    SlopeGrouping,
    CyclotomicSpec,
    gen_net_scheme,
    gen_cyclotomic,
    gen_hamming_binary,
    gen_complete,
    SUPPORTED_FIELD_ORDERS,
)
from .corpus import standard_corpus, write_standard_corpus
from .cli import load_scheme, save_scheme

__version__ = "0.1.0"

__all__ = [
    "SchemeError", "AxiomViolation", "DegenerateSpectrum",
    "IdempotencyViolation", "NegativeKrein", "NotAFusion", "NotFusing",
    "OracleDisagreement", "LimitExceeded", "PreconditionFailed",
    "Unclassified", "WrongUniformity", "WrongClassCount", "NotSymmetric",
    "FieldUnsupported", "ParseError", "Falsification",
    "Tolerance", "DEFAULT_TOL", "LabelMatrix", "AssociationScheme",
    "IntersectionTensor", "SpectralData", "IdempotentBasis", "KreinTensor",
    "validate_scheme", "intersection_numbers", "spectral_decomposition",
    "idempotents", "krein_parameters", "formal_duality_permutation",
    "ClassPartition", "DualPartition", "FusionOutcome", "TripleType",
    "OverlapCase", "fuse_direct", "bm_check",
    "enumerate_fusing_tuples", "classify_triple", "contraction_check",
    "overlap_case", "CASE_REPRESENTATIVES", "SURVIVING_CASES",
    "UniformHypergraph", "SunflowerCore", "GraphShape",
    "build_fusing_hypergraph", "sunflower_cores", "graph_shape",
    "to_dot", "to_edge_list",
    "LatinInfo", "SrgInfo", "CanonicalFormCertificate", "EphemeralPattern",
    "AmorphicVerdict", "ClaimRecord", "ClaimReport",
    "srg_info", "canonical_form_check", "amorphic_oracle", "is_amorphic",
    "ephemeral_form_check", "row_lemma_check", "verify_paper_claims",
    "SmallField", "SlopeGrouping", "CyclotomicSpec",
    "gen_net_scheme", "gen_cyclotomic", "gen_hamming_binary", "gen_complete",
    "SUPPORTED_FIELD_ORDERS",
    "standard_corpus", "write_standard_corpus",
    "load_scheme", "save_scheme",
]
