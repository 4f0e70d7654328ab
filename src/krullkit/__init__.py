"""Exact arithmetic for multivariate polynomial rings over Q and prime fields.

The toolkit builds the constructive side of dimension arguments for
polynomial rings: the strict chain of variable ideals with randomized
primality checks, minimal-power decompositions, deterministic
non-vanishing point searches, monicizing substitutions, division by
monic-in-the-last-variable generators, Cayley-Hamilton integrality
witnesses, and contraction witnesses for principal ideals.
"""

from .chains import (
    ChainLevel,
    ChainReport,
    MinPowerDecomposition,
    MonomialPrimeIdeal,
    extract_min_power,
    verify_chain,
)
from .errors import (
    ArgumentError,
    DegenerateCharPolyError,
    ExhaustedFieldError,
    FieldMismatchError,
    FieldTooSmallError,
    KrullkitError,
    NotHomogeneousError,
    NotMonicError,
    PreconditionViolatedError,
    RingMismatchError,
    SelfCheckError,
    SizeLimitError,
    ZeroCosetError,
    ZeroPolynomialError,
)
from .field import FieldElement, FieldSpec, enumerate_nonzero
from .integral import (
    IntegralityWitness,
    MonicGenerator,
    QuotientElement,
    ReductionCoefficients,
    characteristic_polynomial,
    contraction_witness,
    coset,
    coset_action_matrix,
    coset_integrality_witness,
    divide_monic,
    integrality_witness_from_action,
    power_reduce,
    principal_member,
    reduce_mod,
    subring_intersection_trivial,
)
from .normalize import (
    LinearSubstitution,
    MonicizationResult,
    monicize,
    nonvanishing_point,
    nonvanishing_point_homogeneous,
)
from .parse import (
    FieldLiteralError,
    ParseError,
    UnknownVariableError,
    format_polynomial,
    parse_polynomial,
)
from .poly import Polynomial, RingSpec, embed, random_polynomial

__version__ = "0.1.0"


def __getattr__(name: str):
    # The command line pulls in argparse and json; load it only when asked.
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArgumentError",
    "ChainLevel",
    "ChainReport",
    "DegenerateCharPolyError",
    "ExhaustedFieldError",
    "FieldElement",
    "FieldLiteralError",
    "FieldMismatchError",
    "FieldSpec",
    "FieldTooSmallError",
    "IntegralityWitness",
    "KrullkitError",
    "LinearSubstitution",
    "MinPowerDecomposition",
    "MonicGenerator",
    "MonicizationResult",
    "MonomialPrimeIdeal",
    "NotHomogeneousError",
    "NotMonicError",
    "ParseError",
    "Polynomial",
    "PreconditionViolatedError",
    "QuotientElement",
    "ReductionCoefficients",
    "RingMismatchError",
    "RingSpec",
    "SelfCheckError",
    "SizeLimitError",
    "UnknownVariableError",
    "ZeroCosetError",
    "ZeroPolynomialError",
    "characteristic_polynomial",
    "contraction_witness",
    "coset",
    "coset_action_matrix",
    "coset_integrality_witness",
    "divide_monic",
    "embed",
    "enumerate_nonzero",
    "extract_min_power",
    "format_polynomial",
    "integrality_witness_from_action",
    "main",
    "monicize",
    "nonvanishing_point",
    "nonvanishing_point_homogeneous",
    "parse_polynomial",
    "power_reduce",
    "principal_member",
    "random_polynomial",
    "reduce_mod",
    "subring_intersection_trivial",
    "verify_chain",
]
