import random
from fractions import Fraction

from cliffinv import (
    Multivector,
    Signature,
    compose_inverse,
    default_chain,
    discriminant,
    oracle_inverse,
    oracle_is_invertible,
    regular_matrix,
)
from cliffinv.oracle import _eliminate, _int_rows

from conftest import all_signatures


def rnd(sig, seed, bound=8):
    return Multivector.random(sig, seed, bound)


def mat_mul(a, b):
    dim = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]


class TestRegularMatrix:
    def test_unit_gives_identity(self):
        for sig in all_signatures(0, 3):
            m = regular_matrix(Multivector.unit(sig))
            for i in range(m.dim):
                for j in range(m.dim):
                    assert m.entries[i][j] == (1 if i == j else 0)

    def test_zero_gives_zero(self):
        m = regular_matrix(Multivector.zero(Signature(1, 1)))
        assert all(v == 0 for row in m.entries for v in row)

    def test_single_generator_swap(self):
        # e1 in Cl(0,1) exchanges the basis {1, e1}
        m = regular_matrix(Multivector.blade(Signature(0, 1), 1))
        assert m.entries == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))

    def test_columns_are_products(self):
        sig = Signature(1, 2)
        a = rnd(sig, 3)
        m = regular_matrix(a)
        index = {mask: i for i, mask in enumerate(m.basis)}
        for j, mb in enumerate(m.basis):
            product = a * Multivector.blade(sig, mb)
            col = m.column(j)
            for mask, i in index.items():
                assert col[i] == product.coeff(mask)

    def test_homomorphism(self):
        rng = random.Random(2)
        for sig in all_signatures(1, 3) + [Signature(2, 3)]:
            a = rnd(sig, rng.randrange(10**6), 4)
            b = rnd(sig, rng.randrange(10**6), 4)
            left = regular_matrix(a * b).entries
            right = mat_mul(regular_matrix(a).entries, regular_matrix(b).entries)
            assert [list(r) for r in left] == right


class TestOracleInverse:
    def test_unit(self):
        for sig in all_signatures(0, 4):
            assert oracle_inverse(Multivector.unit(sig)) == Multivector.unit(sig)

    def test_singular_element(self):
        assert oracle_inverse(Multivector(Signature(0, 1), {0: 1, 1: 1})) is None

    def test_small_solve(self):
        sig = Signature(0, 1)
        inv = oracle_inverse(Multivector(sig, {0: 2, 1: 1}))
        assert inv == Multivector(sig, {0: Fraction(2, 3), 1: Fraction(-1, 3)})

    def test_left_inverse_is_right_inverse(self):
        rng = random.Random(4)
        for sig in all_signatures(1, 4):
            one = Multivector.unit(sig)
            for _ in range(5):
                a = rnd(sig, rng.randrange(10**6))
                inv = oracle_inverse(a)
                if inv is not None:
                    assert a * inv == one
                    assert inv * a == one

    def test_rational_coefficients(self):
        sig = Signature(1, 1)
        a = Multivector(sig, {0: Fraction(1, 2), 1: Fraction(-2, 3), 2: 1})
        inv = oracle_inverse(a)
        assert inv is not None
        assert a * inv == Multivector.unit(sig)

    def test_zero_is_singular(self):
        assert oracle_inverse(Multivector.zero(Signature(2, 1))) is None


class TestOracleIsInvertible:
    def test_examples(self):
        sig = Signature(0, 1)
        assert oracle_is_invertible(Multivector.unit(sig))
        assert not oracle_is_invertible(Multivector.zero(sig))
        assert not oracle_is_invertible(Multivector(sig, {0: 1, 1: 1}))

    def test_agrees_with_oracle_inverse(self):
        rng = random.Random(6)
        for sig in all_signatures(1, 4):
            for _ in range(6):
                a = rnd(sig, rng.randrange(10**6), 3)
                assert oracle_is_invertible(a) == (oracle_inverse(a) is not None)

    def test_agrees_with_chain_discriminant(self):
        rng = random.Random(8)
        for sig in all_signatures(1):
            for _ in range(6):
                a = rnd(sig, rng.randrange(10**6), 3)
                assert oracle_is_invertible(a) == (discriminant(a) != 0)


def _elimination_profile(a):
    """(row swaps, last pivot) of the oracle's elimination on a's augmented matrix."""

    class Rows(list):
        writes = 0

        def __setitem__(self, i, row):
            self.writes += 1
            super().__setitem__(i, row)

    int_rows, _ = _int_rows(a)
    rows = Rows(row + [1 if i == 0 else 0] for i, row in enumerate(int_rows))
    if not _eliminate(rows, len(rows) + 1):
        return rows.writes // 2, 0
    return rows.writes // 2, rows[-1][-2]


def _integer_path_samples(sig, rng):
    """Dense rational, sparse rational and pure non-scalar elements."""
    out = [
        Multivector(sig, {m: Fraction(rng.randint(-9, 9), rng.randint(2, 9)) for m in range(sig.dim)})
        for _ in range(3)
    ]
    for terms in (1, 2, 3):
        masks = rng.sample(range(sig.dim), min(terms, sig.dim))
        out.append(Multivector(sig, {m: Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5)) for m in masks}))
    # No scalar part: the first pivot column starts with a zero, forcing a swap.
    out.append(Multivector(sig, {sig.dim - 1: Fraction(-3, 2)}))
    return out


class TestOracleIntegerBackSubstitution:
    """The Cramer-scaled integer back substitution gives the exact inverse."""

    def test_matches_chain_inverse_on_every_signature(self):
        rng = random.Random(12)
        swapped = negative_pivot = rational = 0
        for sig in all_signatures():
            one = Multivector.unit(sig)
            for a in _integer_path_samples(sig, rng):
                x = oracle_inverse(a)
                chain = compose_inverse(a, default_chain(sig.n)).inverse
                assert x == chain
                if x is not None:
                    assert a * x == x * a == one
                swaps, last_pivot = _elimination_profile(a)
                swapped += swaps > 0
                negative_pivot += last_pivot < 0
                rational += any(c.denominator != 1 for _, c in a.items())
        # The samples reach the paths the integer solve has to get right.
        assert swapped and negative_pivot and rational

    def test_negative_last_pivot(self):
        # e1 in Cl(1,0) squares to -1: M = [[0, -1], [1, 0]]; one swap gives
        # U = [[1, 0], [0, -1]], so det = -1 and the inverse is -e1.
        a = Multivector.blade(Signature(1, 0), 1)
        assert _elimination_profile(a) == (1, -1)
        assert oracle_inverse(a) == Multivector.blade(Signature(1, 0), 1, -1)
