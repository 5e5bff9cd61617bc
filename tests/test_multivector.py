import json
import random
from fractions import Fraction

import pytest

from cliffinv import GradeOutOfRange, Multivector, Signature, SignatureMismatch, inverse
from cliffinv.verify import all_signatures


S01 = Signature(0, 1)
S02 = Signature(0, 2)
S20 = Signature(2, 0)


def rnd(sig, seed, bound=10):
    return Multivector.random(sig, seed, bound)


class TestConstruction:
    def test_zero_coefficients_are_pruned(self):
        m = Multivector(S02, {0: 3, 1: 0, 3: Fraction(0)})
        assert len(m) == 1
        assert m.coeff(1) == 0

    def test_zero_element_is_empty_map(self):
        assert Multivector.zero(S02).is_zero()
        assert Multivector(S02, {}).is_zero()

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            Multivector(S01, {2: 1})

    def test_coefficients_become_fractions(self):
        m = Multivector(S01, {0: 2})
        assert isinstance(m.coeff(0), Fraction)


class TestAddition:
    def test_cancellation(self):
        one_plus_e1 = Multivector(S01, {0: 1, 1: 1})
        minus_e1 = Multivector(S01, {1: -1})
        assert one_plus_e1 + minus_e1 == Multivector.unit(S01)

    def test_zero_is_neutral(self):
        a = rnd(S02, 4)
        assert Multivector.zero(S02) + a == a

    def test_exact_rational_addition(self):
        half = Multivector(S02, {0b11: Fraction(1, 2)})
        assert half + half == Multivector(S02, {0b11: 1})

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            Multivector.unit(S01) + Multivector.unit(Signature(1, 0))


class TestProduct:
    def test_conjugate_pair_collapses_to_scalar(self):
        rng = random.Random(0)
        for _ in range(30):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            a = Multivector(S01, {0: x, 1: y})
            b = Multivector(S01, {0: x, 1: -y})
            assert a * b == Multivector.scalar(S01, x * x - y * y)

    def test_unit_is_identity(self):
        for sig in all_signatures(1):
            a = rnd(sig, 1)
            assert a * Multivector.unit(sig) == a
            assert Multivector.unit(sig) * a == a

    def test_sum_of_anticommuting_vectors_squares(self):
        a = Multivector(S20, {0b01: 1, 0b10: 1})
        assert a * a == Multivector.scalar(S20, -2)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            Multivector.unit(S01) * Multivector.unit(S02)

    def test_associative_and_bilinear(self):
        rng = random.Random(9)
        for sig in all_signatures(1):
            a, b, c = (rnd(sig, rng.randrange(10**6), 5) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_scalar_multiplication(self):
        a = rnd(S02, 3)
        assert 2 * a == a + a
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a

    def test_rational_coefficients_stay_exact(self):
        a = rnd(S02, 5).scale(Fraction(1, 3))
        b = rnd(S02, 6).scale(Fraction(5, 7))
        c = a * b
        assert (c * 21).scale(Fraction(1, 21)) == c

    def test_product_then_inverse_round_trips(self):
        # (a*b)*b^-1 == a, exactly, whenever b is invertible
        rng = random.Random(13)
        done = 0
        for sig in all_signatures(1):
            while True:
                a = rnd(sig, rng.randrange(10**6), 5)
                b = rnd(sig, rng.randrange(10**6), 5)
                try:
                    b_inv = inverse(b)
                except Exception:
                    continue
                assert (a * b) * b_inv == a
                done += 1
                break
        assert done == 20

    def test_power_matches_repeated_product(self):
        a = rnd(S02, 8, 4)
        assert a**0 == Multivector.unit(S02)
        assert a**1 == a
        assert a**3 == a * a * a


class TestGradeProjection:
    def test_selects_one_grade(self):
        m = Multivector(S02, {0: 3, 1: 2, 3: 1})
        assert m.grade_project(1) == Multivector(S02, {1: 2})

    def test_missing_grade_gives_zero(self):
        m = Multivector(S02, {0: 3})
        assert m.grade_project(2).is_zero()

    def test_projections_sum_to_whole(self):
        for sig in all_signatures(1):
            a = rnd(sig, 17)
            total = Multivector.zero(sig)
            for k in range(sig.n + 1):
                total = total + a.grade_project(k)
            assert total == a

    def test_out_of_range(self):
        with pytest.raises(GradeOutOfRange):
            rnd(S02, 0).grade_project(3)
        with pytest.raises(GradeOutOfRange):
            rnd(S02, 0).grade_project(-1)

    def test_commutes_with_addition_and_scaling(self):
        a, b = rnd(S02, 21), rnd(S02, 22)
        assert (a + b).grade_project(1) == a.grade_project(1) + b.grade_project(1)
        assert (3 * a).grade_project(2) == 3 * a.grade_project(2)


class TestScalarQueries:
    def test_scalar_part(self):
        assert Multivector(S01, {0: 5, 1: 1}).scalar_part() == 5
        assert Multivector(S02, {0b11: 1}).scalar_part() == 0
        assert Multivector.zero(S02).scalar_part() == 0

    def test_is_scalar(self):
        assert Multivector.zero(S02).is_scalar()
        assert Multivector.scalar(S02, 7).is_scalar()
        assert not Multivector(S02, {0: 7, 1: 1}).is_scalar()


class TestRandom:
    def test_deterministic(self):
        a = Multivector.random(S02, 42, 5)
        b = Multivector.random(S02, 42, 5)
        assert a == b
        assert Multivector.random(S02, 43, 5) != a

    def test_bound_zero_rejected(self):
        with pytest.raises(ValueError):
            Multivector.random(S02, 1, 0)

    def test_coefficients_within_bound(self):
        for seed in range(50):
            m = Multivector.random(Signature(2, 3), seed, 3)
            assert all(abs(c) <= 3 and c.denominator == 1 for _, c in m.items())

    def test_zero_frequency_consistent_with_uniform_draws(self):
        # Each of the four coefficients is uniform over 11 values, so the
        # zero element appears with probability 11**-4 per seed; seeing more
        # than two in a thousand seeds would be wildly out of line.
        zeros = sum(Multivector.random(S02, seed, 5).is_zero() for seed in range(1000))
        assert zeros <= 2


class TestTextForm:
    def test_zero(self):
        assert str(Multivector.zero(S02)) == "0"

    def test_bare_scalar(self):
        assert str(Multivector.scalar(S02, Fraction(-5, 3))) == "-5/3"

    def test_unit_coefficient_elides_star(self):
        assert str(Multivector(S02, {0b11: -1})) == "-e12"
        assert str(Multivector(S02, {0b11: 1})) == "e12"

    def test_mixed_terms_ordered_by_grade_then_mask(self):
        m = Multivector(
            Signature(1, 2), {0: Fraction(2, 3), 1: Fraction(-1, 3), 0b110: 2, 0b111: -1}
        )
        assert str(m) == "2/3 - 1/3*e1 + 2*e23 - e123"


class TestJsonForm:
    def test_round_trip(self):
        for sig in all_signatures(1):
            m = rnd(sig, 31).scale(Fraction(1, 6))
            data = json.loads(json.dumps(m.to_json_dict()))
            assert Multivector.from_json_dict(data) == m

    def test_shape(self):
        m = Multivector(S02, {0: 3, 0b11: Fraction(-1, 2)})
        assert m.to_json_dict() == {"p": 0, "q": 2, "coeffs": {"1": "3", "e12": "-1/2"}}

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            Multivector.from_json_dict({"p": 0})
        with pytest.raises(ValueError):
            Multivector.from_json_dict({"p": 0, "q": 1, "coeffs": {"e2": "1"}})
        with pytest.raises(ValueError):
            Multivector.from_json_dict({"p": 4, "q": 4, "coeffs": {}})
