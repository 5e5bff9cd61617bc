import json
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from conftest import reference_product

from cliffinv import (
    GradeOutOfRange,
    Multivector,
    Signature,
    SignatureMismatch,
    apply_delta,
    blade_square_sign,
    compose_inverse,
    default_chain,
    inverse,
    oracle_inverse,
    parse_expression,
)
from cliffinv import multivector
from cliffinv.involutions import NAMED_DELTAS
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

    def test_equal_signatures_built_separately_combine(self):
        for p, q in ((0, 0), (1, 2), (2, 3)):
            one, two = Signature(p, q), Signature(p, q)
            assert one is not two
            a, b = Multivector.random(one, 1, 5), Multivector.random(two, 2, 5)
            b_shared = Multivector(one, dict(b.items()))
            assert a + b == a + b_shared
            assert a - b == a - b_shared
            assert a * b == a * b_shared
            assert b * a == b_shared * a

    @pytest.mark.parametrize(
        "op", [lambda a: a + 1, lambda a: 1 - a, lambda a: a - 1], ids=["a + 1", "1 - a", "a - 1"]
    )
    def test_a_bare_number_does_not_combine(self, op):
        # A number joins a sum as `Multivector.scalar(sig, c)`, never implicitly.
        with pytest.raises(TypeError):
            op(rnd(S02, 1))


class TestProduct:
    @pytest.mark.parametrize(
        "op",
        [
            lambda a: a * 0.5,
            lambda a: 0.5 * a,
            lambda a: a.scale(0.5),
            lambda a: Multivector(a.sig, {0: 0.1}),
            lambda a: Multivector.scalar(a.sig, 0.5),
            lambda a: Multivector.blade(a.sig, 1, 0.5),
        ],
        ids=["a * 0.5", "0.5 * a", "a.scale(0.5)", "Multivector(sig, {0: 0.1})", "scalar(sig, 0.5)", "blade(sig, 1, 0.5)"],
    )
    def test_a_float_does_not_scale(self, op):
        # No float enters an exact coefficient; `a * Fraction(1, 2)` does.
        with pytest.raises(TypeError):
            op(rnd(S02, 1))

    @pytest.mark.parametrize(
        "value",
        ["٣/٤", "1e3", "1/2", "1e2000000", Decimal("0.1"), 0.5, 1j, None],
        ids=["other-script digits", "exponent string", "ratio string", "huge exponent", "Decimal", "float", "complex", "None"],
    )
    def test_only_an_int_or_a_fraction_is_a_coefficient(self, value):
        # A string or a Decimal would skip the digit and exponent rules of the
        # parser and `from_json_dict`, which hand the constructor ints and Fractions.
        message = f"{type(value).__name__} {value!r} is not an exact coefficient; pass an int or a Fraction"
        a = rnd(S01, 1)
        for op in (
            lambda: Multivector(S01, {0: value}),
            lambda: Multivector(S01, {1: 1, 0: value}),
            lambda: Multivector.scalar(S01, value),
            lambda: a.scale(value),
        ):
            with pytest.raises(TypeError) as err:
                op()
            assert str(err.value) == message

    def test_a_bool_and_a_fraction_stay_coefficients(self):
        assert str(Multivector(S01, {0: True, 1: Fraction(1, 2)})) == "1 + 1/2*e1"

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

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_matches_blade_by_blade_reference(self, sig):
        rng = random.Random(f"product|{sig}")
        dim = sig.dim

        def element(masks):
            return Multivector(sig, {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12)) for m in masks})

        sparse = [element(rng.sample(range(dim), min(k, dim))) for k in (1, 2, 3)]
        dense = [element(range(dim)) for _ in range(2)] + [rnd(sig, rng.randrange(10**6))]
        samples = sparse + dense + [Multivector.zero(sig)]
        assert len({s._d for s in samples}) > 2
        for a in samples:
            for b in samples:
                assert a * b == reference_product(a, b)

    def test_power_matches_repeated_product(self):
        a = rnd(S02, 8, 4)
        assert a**0 == Multivector.unit(S02)
        assert a**1 == a
        assert a**3 == a * a * a
        for exponent in (-1, 1.5):
            with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
                a**exponent


class TestOneTermProduct:
    """Products with a one-term operand, by `_term` (one term each side) or the fold, agree with the reference."""

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_matches_blade_by_blade_reference(self, sig):
        rng = random.Random(f"one-term|{sig}")
        dim = sig.dim

        def coeff():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))

        def element(masks):
            return Multivector(sig, {m: coeff() for m in masks})

        one_term = [element([m]) for m in {0, dim - 1, rng.randrange(dim)}]
        one_term += [Multivector.blade(sig, dim - 1, -1), Multivector.scalar(sig, Fraction(-3, 4))]
        others = one_term + [
            element(rng.sample(range(dim), min(2, dim))),
            element(range(dim)),
            rnd(sig, rng.randrange(10**6)),
            Multivector.zero(sig),
        ]
        for t in one_term:
            for o in others:
                for a, b in ((t, o), (o, t)):
                    got = a * b
                    assert got == reference_product(a, b) and hash(got) == hash(reference_product(a, b)), (a, b)
                    assert_canonical(got)

    @pytest.mark.parametrize("sig", all_signatures(1), ids=str)
    def test_reduces_against_the_product_of_denominators(self, sig):
        top = sig.dim - 1
        a = Multivector.blade(sig, 1, Fraction(2, 3))
        b = Multivector.blade(sig, top, Fraction(3, 4))
        for x, y in ((a, b), (b, a)):
            got = x * y
            assert got._d == 2 and list(got._n) == [1 ^ top] and abs(got._n[1 ^ top]) == 1
            assert got == reference_product(x, y)
        two = Multivector(sig, {0: Fraction(3, 4), 1: Fraction(3, 8)})
        for x, y in ((a, two), (two, a)):
            got = x * y
            assert got._d == 4 and got == reference_product(x, y)

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_term_matches_the_general_constructor(self, sig):
        for mask in {0, sig.dim - 1}:
            for num, den in ((4, 6), (4, -6), (-7, 3), (-7, -3), (0, 5), (0, -5), (1, 1)):
                got = Multivector._term(sig, mask, num, den)
                want = Multivector(sig, {mask: Fraction(num, den)})
                assert got == want and hash(got) == hash(want)
                assert_canonical(got)

    def test_one_term_products_skip_the_fold(self, monkeypatch):
        calls = []
        fold = multivector._fold

        def counting_fold(*args):
            calls.append(1)
            return fold(*args)

        monkeypatch.setattr(multivector, "_fold", counting_fold)
        sig = Signature(2, 3)
        parse_expression("3/2*e12 - 5/4*e345 + e5 - 7/3", sig)
        assert calls == []
        rnd(sig, 1) * rnd(sig, 2)
        assert calls == [1]
        # Only one term times one term skips the fold; a one-term operand of a dense one folds once.
        one, dense = Multivector.blade(sig, 0b10110, Fraction(-2, 3)), rnd(sig, 3)
        one * dense
        assert calls == [1, 1]
        dense * one
        assert calls == [1, 1, 1]


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
        assert repr(m) == "Multivector(Cl(1,2), '2/3 - 1/3*e1 + 2*e23 - e123')"


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

    def test_exponent_within_the_budget_is_read(self):
        # |e| * log2(10) is 49998.3 at e = 15051 and 50001.6 at e = 15052.
        cases = [("1e15051", 10**15051), ("-2.5E-15050", Fraction(-25, 10**15051)), ("3e0000000005", 300000)]
        for text, value in cases:
            m = Multivector.from_json_dict({"p": 0, "q": 0, "coeffs": {"1": text}})
            assert m.scalar_part() == value

    @pytest.mark.parametrize("text", ["1e15052", "1E-15052", "0.5e+99999", "1e" + "9" * 5000])
    def test_exponent_over_the_budget_is_refused(self, text):
        with pytest.raises(ValueError, match=r"^coefficient of e1 too large: its exponent is over the 50000-bit budget$"):
            Multivector.from_json_dict({"p": 0, "q": 1, "coeffs": {"e1": text}})


def assert_canonical(m):
    """The stored form: numerators by mask over one denominator d > 0,
    no zero numerator, and gcd(d, *numerators) == 1 (zero is {} over 1)."""
    nums, d = m._n, m._d
    assert type(d) is int and d > 0, (m, d)
    assert all(type(v) is int and v != 0 for v in nums.values()), (m, nums)
    assert gcd(d, *nums.values()) == 1, (m, nums, d)


def rational_coeffs(sig, seed, density=0.7):
    """A seeded map from masks to Fractions, about `density` of them nonzero."""
    rng = random.Random(f"canon|{sig.p},{sig.q}|{seed}")
    return {
        m: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for m in range(sig.dim)
        if rng.random() < density
    }


def rational(sig, seed, density=0.7):
    return Multivector(sig, rational_coeffs(sig, seed, density))


class TestCanonicalForm:
    """Every producer of a multivector returns the canonical stored form."""

    SEEDS = range(3)

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_constructors(self, sig):
        for s in self.SEEDS:
            fracs = rational_coeffs(sig, s)
            ints = {m: c.numerator for m, c in fracs.items()}
            mixed = {m: (c.numerator if m & 1 else c) for m, c in fracs.items()}
            for coeffs in (fracs, ints, mixed, {m: 0 for m in fracs}):
                assert_canonical(Multivector(sig, coeffs))
        for m in (Multivector.zero(sig), Multivector.unit(sig), Multivector.scalar(sig, Fraction(-6, 4))):
            assert_canonical(m)
        assert (Multivector.zero(sig)._n, Multivector.zero(sig)._d) == ({}, 1)

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_arithmetic(self, sig):
        for s in self.SEEDS:
            x, y = rational(sig, s), rational(sig, s + 100, density=0.4)
            for m in (x + y, x - y, x - x, -x, x.scale(0), x.scale(Fraction(-3, 4)), 6 * x, x * y, x**3, x**0):
                assert_canonical(m)
            for k in range(sig.n + 1):
                assert_canonical(x.grade_project(k))

    def test_grade_projection_reduces_again(self):
        m = Multivector(S01, {0: Fraction(1, 2), 1: Fraction(1, 3)})
        half = m.grade_project(0)
        assert (half._n, half._d) == ({0: 1}, 2)
        assert half == Multivector.scalar(S01, Fraction(1, 2))

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_maps_and_text_forms(self, sig):
        for s in self.SEEDS:
            x = rational(sig, s)
            for ctor in NAMED_DELTAS.values():
                assert_canonical(apply_delta(ctor(sig.n), x))
            assert_canonical(Multivector.from_json_dict(json.loads(json.dumps(x.to_json_dict()))))
            assert_canonical(parse_expression(x.to_text(), sig))

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_inverse_factors_and_oracle(self, sig):
        samples = [rational(sig, s) for s in self.SEEDS] + [rnd(sig, 7), Multivector.zero(sig)]
        samples += [Multivector(sig, {0: 1, b: 1}) for b in range(1, sig.dim) if blade_square_sign(b, sig) == 1][:2]
        for a in samples:
            result = compose_inverse(a, default_chain(sig.n))
            for m in result.factors + ((result.inverse,) if result.inverse is not None else ()):
                assert_canonical(m)
            via_oracle = oracle_inverse(a)
            if via_oracle is not None:
                assert_canonical(via_oracle)


class TestEqualityAcrossSpellings:
    def test_one_half_spelled_five_ways(self):
        y = Multivector(S02, {1: Fraction(5, 7), 3: 2})
        spellings = [
            Multivector(S02, {0: Fraction(2, 4)}),
            Multivector.scalar(S02, Fraction(1, 2)),
            Multivector.scalar(S02, Fraction(1, 2)) + y - y,
            Multivector(S02, {0: 3, 1: 0}).scale(Fraction(1, 6)),
            parse_expression("2/4", S02),
        ]
        for m in spellings:
            assert m == spellings[0] and hash(m) == hash(spellings[0])
            assert dict(m.items()) == {0: Fraction(1, 2)}

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_equal_values_compare_and_hash_equal(self, sig):
        for s in range(3):
            reference = rational_coeffs(sig, s)
            x = Multivector(sig, reference)
            y = rational(sig, s + 100)
            spellings = [
                Multivector(sig, {m: Fraction(c.numerator * 3, c.denominator * 3) for m, c in reference.items()}),
                x + y - y,
                x.scale(2).scale(Fraction(1, 2)),
                Multivector.from_json_dict(x.to_json_dict()),
                parse_expression(x.to_text(), sig),
            ]
            expected = {m: c for m, c in reference.items() if c}
            for m in spellings:
                assert m == x and hash(m) == hash(x)
                assert dict(m.items()) == expected
                assert all(type(c) is Fraction for _, c in m.items())

    def test_coeff_of_absent_blade_is_fraction_zero(self):
        m = Multivector(S02, {1: 4})
        for mask in (0, 2, 3):
            c = m.coeff(mask)
            assert type(c) is Fraction and c == 0
        assert type(m.coeff(1)) is Fraction and m.coeff(1) == 4
        assert type(Multivector.zero(S02).scalar_part()) is Fraction
