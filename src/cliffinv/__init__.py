"""Exact-arithmetic Clifford algebra library for Cl(p,q) with p+q <= 5.

Multivectors carry exact rational coefficients; inverses and discriminants
come from a chain of grade-sign involutions, with closed-form discriminant
polynomials for up to four generators and an independent regular-matrix
oracle for verification.
"""

from .blades import (
    MAX_GENERATORS,
    Blade,
    Signature,
    SignedBlade,
    blade_from_text,
    blade_mul,
    blade_order,
    blade_square_sign,
    blade_to_text,
    grade,
    transposition_sign,
)
from .errors import (
    CliffordError,
    DimensionMismatch,
    DimensionOutOfRange,
    GradeOutOfRange,
    LexError,
    NotInvertible,
    ParseError,
    SignatureMismatch,
    SubspaceViolation,
)
from .inversion import (
    InverseResult,
    InvolutionChain,
    alternate_chain,
    chain_scalar,
    compose_inverse,
    default_chain,
    discriminant,
    discriminant_closed_form,
    inverse,
)
from .involutions import (
    DeltaConstraint,
    GradeSet,
    LengthDeltaMap,
    apply_delta,
    conjugation,
    conjugation_delta,
    constraints_for,
    delta_solutions,
    grade_involution,
    grade_involution_delta,
    invariant_grades,
    is_special_involution,
    named_map_matches,
    product_grades,
    psi,
    psi_delta,
    reversion,
    reversion_delta,
)
from .multivector import Multivector
from .parsing import evaluate, parse, parse_expression, tokenize

__version__ = "0.1.0"

# The oracle's names load on first access (PEP 562), so that `cliffinv inv`
# and the other commands that never consult the oracle do not import it.
_ORACLE_NAMES = ("RegularMatrix", "oracle_inverse", "oracle_is_invertible", "regular_matrix")


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_ORACLE_NAMES])
