"""Exact graded-ring obstruction and witness certificates.

Models cohomology rings of closed manifolds as finite-dimensional graded
commutative algebras over the rationals and decides, by re-verifiable
certificate, whether a graded algebra homomorphism into an exterior algebra
can map a chosen form class nontrivially.
"""

from .errors import (
    DimensionMismatchError,
    IdealUndefinedError,
    InvalidSystemError,
    MissingPresentationError,
    NonHomogeneousError,
    ParseError,
    QrobError,
    RingMismatchError,
    RingValidationError,
    ShapeMismatchError,
    VerificationFailure,
)
from .exterior import ExtElement, dim_component, wedge
from .ring import (
    GradedRing,
    Presentation,
    RingElement,
    factorizations,
    in_kunneth_ideal,
    kunneth_ideal_basis,
    multiply,
    poincare_pairing,
)
from .manifolds import (
    ConnSum,
    CPm,
    ManifoldExpr,
    Product,
    S2xS2,
    Sphere,
    Surface,
    Torus,
    build,
    build_with_classes,
    connsum_power,
    pull_left,
    pull_right,
)
from .obstruct import (
    Certificate,
    Inequality,
    KroneckerSystem,
    prywes_bound,
    search_obstruction,
)
from .homsearch import (
    HomWitness,
    verify_hom,
    witness_template,
)
from .dsl import parse_manifold, parse_omega
from .pipeline import Query, QueryResult, run_query, verify_document

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConnSum",
    "CPm",
    "DimensionMismatchError",
    "ExtElement",
    "GradedRing",
    "HomWitness",
    "IdealUndefinedError",
    "Inequality",
    "InvalidSystemError",
    "KroneckerSystem",
    "ManifoldExpr",
    "MissingPresentationError",
    "NonHomogeneousError",
    "ParseError",
    "Presentation",
    "Product",
    "QrobError",
    "Query",
    "QueryResult",
    "RingElement",
    "RingMismatchError",
    "RingValidationError",
    "S2xS2",
    "ShapeMismatchError",
    "Sphere",
    "Surface",
    "Torus",
    "VerificationFailure",
    "build",
    "build_with_classes",
    "connsum_power",
    "dim_component",
    "factorizations",
    "in_kunneth_ideal",
    "kunneth_ideal_basis",
    "multiply",
    "parse_manifold",
    "parse_omega",
    "poincare_pairing",
    "prywes_bound",
    "pull_left",
    "pull_right",
    "run_query",
    "search_obstruction",
    "verify_document",
    "verify_hom",
    "wedge",
    "witness_template",
]
