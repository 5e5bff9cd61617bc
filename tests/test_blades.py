import itertools
import random

import pytest

from cliffinv import (
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
from cliffinv.blades import product_signs
from cliffinv.verify import all_signatures

from conftest import fold_blade_mul, naive_rewrite


class TestSignature:
    def test_counts_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Signature(-1, 2)
        with pytest.raises(ValueError):
            Signature(0, -3)

    def test_at_most_five_generators(self):
        Signature(2, 3)
        with pytest.raises(ValueError):
            Signature(3, 3)

    def test_generator_squares(self):
        sig = Signature(2, 3)
        assert [sig.square(i) for i in range(1, 6)] == [-1, -1, 1, 1, 1]
        with pytest.raises(ValueError):
            sig.square(0)
        with pytest.raises(ValueError):
            sig.square(6)

    def test_neg_mask_and_dim(self):
        assert Signature(2, 3).neg_mask == 0b00011
        assert Signature(0, 4).neg_mask == 0
        assert Signature(1, 2).dim == 8


class TestGrade:
    def test_unit_has_grade_zero(self):
        assert grade(0) == 0

    def test_trivector(self):
        assert grade(0b111) == 3

    def test_pseudoscalar_n5(self):
        assert grade(0b11111) == 5


class TestTranspositionSign:
    def test_ascending_pair_needs_no_swap(self):
        assert transposition_sign(0b01, 0b10) == 1  # e1, e2

    def test_descending_pair_needs_one_swap(self):
        assert transposition_sign(0b10, 0b01) == -1  # e2, e1

    def test_two_swaps(self):
        assert transposition_sign(0b111, 0b001) == 1  # e1e2e3 then e1

    def test_matches_naive_count(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randrange(32)
            b = rng.randrange(32)
            t = sum(
                1
                for j in range(5)
                if b >> j & 1
                for i in range(j + 1, 5)
                if a >> i & 1
            )
            assert transposition_sign(a, b) == (-1) ** t


class TestBladeMul:
    def test_generator_squares_to_metric(self):
        assert blade_mul(1, 1, Signature(1, 0)) == SignedBlade(-1, 0)
        assert blade_mul(1, 1, Signature(0, 1)) == SignedBlade(1, 0)

    def test_anticommutation(self):
        sig = Signature(0, 2)
        assert blade_mul(0b01, 0b10, sig) == SignedBlade(1, 0b11)
        assert blade_mul(0b10, 0b01, sig) == SignedBlade(-1, 0b11)

    def test_unit_is_identity(self):
        for sig in all_signatures(1):
            for b in range(sig.dim):
                assert blade_mul(0, b, sig) == SignedBlade(1, b)
                assert blade_mul(b, 0, sig) == SignedBlade(1, b)

    def test_contraction_example(self):
        # e1e2 * e2 in Cl(0,2), against the naive rewriter
        sig = Signature(0, 2)
        assert blade_mul(0b11, 0b10, sig) == SignedBlade(1, 0b01)
        assert naive_rewrite([1, 2, 2], sig) == (1, 0b01)

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            blade_mul(0b100, 0b001, Signature(0, 2))

    def test_blade_square_law(self):
        # b*b = (-1)**(k(k-1)/2) times the product of the member squares
        for sig in all_signatures(1):
            for b in range(sig.dim):
                k = grade(b)
                expected = (-1) ** (k * (k - 1) // 2)
                for i in range(1, sig.n + 1):
                    if b >> (i - 1) & 1:
                        expected *= sig.square(i)
                result = blade_mul(b, b, sig)
                assert result.blade == 0
                assert result.sign == expected
                assert blade_square_sign(b, sig) == expected

    def test_associativity_exhaustive_small(self):
        for sig in all_signatures(1, 2):
            for a, b, c in itertools.product(range(sig.dim), repeat=3):
                s1, ab = blade_mul(a, b, sig)
                s2, ab_c = blade_mul(ab, c, sig)
                t1, bc = blade_mul(b, c, sig)
                t2, a_bc = blade_mul(a, bc, sig)
                assert ab_c == a_bc
                assert s1 * s2 == t1 * t2

    def test_associativity_random_large(self):
        rng = random.Random(11)
        for sig in all_signatures(3):
            for _ in range(150):
                a, b, c = (rng.randrange(sig.dim) for _ in range(3))
                s1, ab = blade_mul(a, b, sig)
                s2, ab_c = blade_mul(ab, c, sig)
                t1, bc = blade_mul(b, c, sig)
                t2, a_bc = blade_mul(a, bc, sig)
                assert (s1 * s2, ab_c) == (t1 * t2, a_bc)


class TestWellDefinedness:
    """Folding blade_mul over any generator word agrees with the rewriter."""

    def test_exhaustive_words_up_to_six_letters(self):
        for sig in all_signatures(1, 3):
            gens = range(1, sig.n + 1)
            for length in range(7):
                for word in itertools.product(gens, repeat=length):
                    assert fold_blade_mul(list(word), sig) == naive_rewrite(list(word), sig)

    def test_random_words_up_to_nine_letters(self):
        rng = random.Random(23)
        sigs = all_signatures(4)
        for _ in range(400):
            sig = rng.choice(sigs)
            word = [rng.randint(1, sig.n) for _ in range(rng.randint(0, 9))]
            assert fold_blade_mul(word, sig) == naive_rewrite(word, sig)


class TestProductSignTable:
    def test_matches_blade_mul_everywhere_small(self):
        # Every cell of all 21 tables: 7.7k cells.
        for sig in all_signatures():
            table = product_signs(sig)
            dim = sig.dim
            for a in range(dim):
                for b in range(dim):
                    assert table[a * dim + b] == blade_mul(a, b, sig).sign

    def test_matches_blade_mul_sampled_n5(self):
        rng = random.Random(5)
        for sig in (Signature(2, 3), Signature(5, 0)):
            table = product_signs(sig)
            for _ in range(500):
                a, b = rng.randrange(32), rng.randrange(32)
                assert table[a * 32 + b] == blade_mul(a, b, sig).sign


class TestBladeText:
    def test_unit(self):
        assert blade_to_text(0) == "1"
        assert blade_from_text("1", 5) == 0

    def test_round_trip_all_blades(self):
        for n in range(6):
            for b in range(1 << n):
                assert blade_from_text(blade_to_text(b), n) == b

    def test_rejects_bad_symbols(self):
        for bad in ("e21", "e11", "e0", "e6", "x1", "e", ""):
            with pytest.raises(ValueError):
                blade_from_text(bad, 5)

    def test_only_ascii_digits(self):
        # str.isdigit() is true for these; int() reads '١' as 1 and refuses '²'.
        for bad in ("e١", "e²", "e1٢"):
            with pytest.raises(ValueError, match="invalid blade symbol"):
                blade_from_text(bad, 5)

    def test_order_is_by_grade_then_mask(self):
        assert blade_order(2) == (0b00, 0b01, 0b10, 0b11)
        order = blade_order(5)
        keys = [(grade(m), m) for m in order]
        assert keys == sorted(keys)
