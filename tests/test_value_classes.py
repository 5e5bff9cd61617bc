"""Signature, InvolutionChain, InverseResult, LengthDeltaMap and RegularMatrix: immutable values.

The five are plain classes on one frozen base, `blades._Frozen`.  The
literals below were recorded from their earlier versions (frozen
dataclasses, and a slotted class for LengthDeltaMap), so these tests pin
that nothing a caller can see changed with them: repr and str, equality and
hash, the messages for writes and bad signatures, and copies and pickles.
Two things did change: a LengthDeltaMap, once writable, refuses writes, and
RegularMatrix raises AttributeError where it raised its dataclass subclass
FrozenInstanceError.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cliffinv import (
    InverseResult,
    InvolutionChain,
    LengthDeltaMap,
    RegularMatrix,
    Signature,
    compose_inverse,
    default_chain,
    parse_expression,
    regular_matrix,
    reversion_delta,
)

SIG = Signature(2, 3)
CHAIN = default_chain(5)
ELEMENT = parse_expression("3/2*e12 - 5/4*e345 + e5 - 7/3", SIG)
DELTA = LengthDeltaMap([1, -1])
MATRIX = regular_matrix(parse_expression("2 - 1/2*e1", Signature(1, 0)))

CHAIN_REPR = (
    "InvolutionChain(n=5, steps=(LengthDeltaMap([1, 1, -1, -1, 1, 1]), LengthDeltaMap([1, -1, -1, -1, -1, 1]), "
    "LengthDeltaMap([1, -1, -1, 1, 1, -1])), domains=(frozenset({0, 1, 2, 3, 4, 5}), frozenset({0, 1, 4, 5}), "
    "frozenset({0, 5})))"
)
MATRIX_REPR = (
    "RegularMatrix(dim=2, entries=((Fraction(2, 1), Fraction(1, 2)), (Fraction(-1, 2), Fraction(2, 1))), basis=(0, 1))"
)
RESULT_REPR = (
    "InverseResult(discriminant=Fraction(1542108761425, 429981696), inverse=Multivector(Cl(2,3), "
    "'-103637896656/308421752285 - 30105993456/308421752285*e5 - 46256603688/308421752285*e12 "
    "+ 2597083776/308421752285*e34 - 20096149248/308421752285*e125 + 21856865076/308421752285*e345 "
    "+ 35619663168/308421752285*e1234 + 54096735168/308421752285*e12345'))"
)


def result() -> InverseResult:
    return compose_inverse(ELEMENT, CHAIN)


class TestText:
    def test_signature(self):
        assert (repr(SIG), str(SIG)) == ("Signature(p=2, q=3)", "Cl(2,3)")

    def test_chain(self):
        assert repr(CHAIN) == str(CHAIN) == CHAIN_REPR
        assert repr(InvolutionChain(0, ())) == "InvolutionChain(n=0, steps=(), domains=())"

    def test_result(self):
        assert repr(result()) == str(result()) == RESULT_REPR

    def test_length_delta_map(self):
        assert repr(DELTA) == str(DELTA) == "LengthDeltaMap([1, -1])"

    def test_regular_matrix(self):
        assert repr(MATRIX) == str(MATRIX) == MATRIX_REPR


class TestEqualityAndHash:
    def test_signature(self):
        assert SIG == Signature(2, 3) and SIG != Signature(3, 2)
        assert SIG != (2, 3) and SIG.__eq__((2, 3)) is NotImplemented
        assert hash(SIG) == hash((2, 3))

    def test_chain(self):
        rebuilt = InvolutionChain(5, CHAIN.steps)
        assert rebuilt == CHAIN and rebuilt is not CHAIN
        assert CHAIN != default_chain(4) and CHAIN.__eq__(SIG) is NotImplemented
        assert CHAIN.domains == (frozenset(range(6)), frozenset({0, 1, 4, 5}), frozenset({0, 5}))
        assert hash(CHAIN) == hash((CHAIN.n, CHAIN.steps, CHAIN.domains))

    def test_result(self):
        one, two = result(), result()
        assert one == two and one.__eq__(SIG) is NotImplemented
        assert one.discriminant == Fraction(1542108761425, 429981696)
        assert hash(one) == hash(two) == hash((one.discriminant, one.factors, one.inverse))

    def test_length_delta_map(self):
        assert DELTA == LengthDeltaMap((1, -1)) and DELTA != LengthDeltaMap([1, 1])
        assert DELTA != (1, -1) and DELTA.__eq__((1, -1)) is NotImplemented
        assert hash(DELTA) == hash((1, -1))

    def test_regular_matrix(self):
        rebuilt = RegularMatrix(MATRIX.dim, MATRIX.entries, MATRIX.basis)
        assert rebuilt == MATRIX and rebuilt is not MATRIX
        assert MATRIX != regular_matrix(parse_expression("2", Signature(1, 0))) and MATRIX.__eq__(SIG) is NotImplemented
        assert hash(MATRIX) == hash((2, ((Fraction(2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(2))), (0, 1)))
        assert RegularMatrix.__match_args__ == ("dim", "entries", "basis")
        assert MATRIX.column(1) == (Fraction(1, 2), Fraction(2))


class TestConstruction:
    def test_signature_messages(self):
        with pytest.raises(ValueError, match=r"^signature counts must be nonnegative, got \(-1, 0\)$"):
            Signature(-1, 0)
        with pytest.raises(ValueError, match=r"^at most 5 generators are supported, got p\+q=6$"):
            Signature(3, 3)

    def test_chain_domains_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            InvolutionChain(5, CHAIN.steps, CHAIN.domains)
        assert InvolutionChain(n=5, steps=CHAIN.steps).domains == CHAIN.domains

    def test_result_takes_element_and_chain_by_keyword_only(self):
        r = result()
        with pytest.raises(TypeError):
            InverseResult(r.discriminant, r.inverse, ELEMENT, CHAIN)
        rebuilt = InverseResult(discriminant=r.discriminant, inverse=r.inverse, _a=ELEMENT, _chain=CHAIN)
        assert "factors" not in vars(rebuilt)
        assert rebuilt == r and "factors" in vars(rebuilt)


# reversion_delta(3) is shared through its lru_cache: a write to it would break default_chain(3) for good.
@pytest.mark.parametrize(
    "obj, field",
    [(SIG, "p"), (SIG, "q"), (CHAIN, "n"), (CHAIN, "domains"), (result(), "discriminant"), (result(), "_a"),
     (reversion_delta(3), "delta"), (MATRIX, "dim"), (MATRIX, "entries")],
    ids=["Signature.p", "Signature.q", "InvolutionChain.n", "InvolutionChain.domains",
         "InverseResult.discriminant", "InverseResult._a",
         "LengthDeltaMap.delta", "RegularMatrix.dim", "RegularMatrix.entries"],
)
def test_fields_cannot_be_assigned_or_deleted(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    assert getattr(obj, field) is before


# From protocol 2: 0 and 1 cannot pickle the slotted Multivector inside an InverseResult.
@pytest.mark.parametrize(
    "make",
    [lambda: SIG, lambda: CHAIN, result, lambda: DELTA, lambda: MATRIX],
    ids=["Signature", "InvolutionChain", "InverseResult", "LengthDeltaMap", "RegularMatrix"],
)
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_copies_and_pickles_compare_equal(make, protocol):
    # The hash is kept in __dict__ after its first use, so each copy carries it.
    obj = make()
    h = hash(obj)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj, protocol))):
        assert twin == obj and hash(twin) == h
