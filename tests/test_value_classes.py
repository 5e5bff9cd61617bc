"""Signature, InvolutionChain and InverseResult: immutable values with a fixed text form.

The three are plain classes; the literals below were recorded from their
earlier frozen-dataclass versions, so these tests pin that nothing a caller
can see changed with them: repr and str, equality and hash, the messages
for writes and bad signatures, and copies and pickles.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cliffinv import InverseResult, InvolutionChain, Signature, compose_inverse, default_chain, parse_expression

SIG = Signature(2, 3)
CHAIN = default_chain(5)
ELEMENT = parse_expression("3/2*e12 - 5/4*e345 + e5 - 7/3", SIG)

CHAIN_REPR = (
    "InvolutionChain(n=5, steps=(LengthDeltaMap([1, 1, -1, -1, 1, 1]), LengthDeltaMap([1, -1, -1, -1, -1, 1]), "
    "LengthDeltaMap([1, -1, -1, 1, 1, -1])), domains=(frozenset({0, 1, 2, 3, 4, 5}), frozenset({0, 1, 4, 5}), "
    "frozenset({0, 5})))"
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


@pytest.mark.parametrize(
    "obj, field",
    [(SIG, "p"), (SIG, "q"), (CHAIN, "n"), (CHAIN, "domains"), (result(), "discriminant"), (result(), "_a")],
    ids=["Signature.p", "Signature.q", "InvolutionChain.n", "InvolutionChain.domains",
         "InverseResult.discriminant", "InverseResult._a"],
)
def test_fields_cannot_be_assigned_or_deleted(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    assert getattr(obj, field) is before


# From protocol 2: 0 and 1 cannot pickle the slotted LengthDeltaMap and Multivector inside.
@pytest.mark.parametrize(
    "make", [lambda: SIG, lambda: CHAIN, result], ids=["Signature", "InvolutionChain", "InverseResult"]
)
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_copies_and_pickles_compare_equal(make, protocol):
    obj = make()
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj, protocol)) == obj
