import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

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
from cliffinv import oracle as oracle_module
from cliffinv.blades import blade_mul, blade_order, blade_square_sign
from cliffinv.oracle import _blocks, _eliminate, _split
from cliffinv.verify import all_signatures


def rnd(sig, seed, bound=8):
    return Multivector.random(sig, seed, bound)


def _int_matrix(a):
    """Integer M(a) on blade_order and the denominator cleared from a, from blade_mul alone."""
    den = lcm(*(c.denominator for _, c in a.items()))
    basis = blade_order(a.sig.n)
    index = {mask: i for i, mask in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for j, mb in enumerate(basis):
        for ma, c in a.items():
            sign, mask = blade_mul(ma, mb, a.sig)
            rows[index[mask]][j] = sign * int(c * den)
    return rows, den


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
        rng = random.Random(3)
        for sig in all_signatures():
            a = rnd(sig, rng.randrange(10**6))
            m = regular_matrix(a)
            assert m.basis == blade_order(sig.n)
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


class _Rows(list):
    """Rows of an elimination that count item writes: a row swap is two."""

    writes = 0

    def __setitem__(self, i, row):
        self.writes += 1
        super().__setitem__(i, row)


def _elimination_profile(a):
    """(row swaps, last pivot) of the oracle's elimination on a's augmented matrix."""
    int_rows, _ = _int_matrix(a)
    rows = _Rows(row + [1 if i == 0 else 0] for i, row in enumerate(int_rows))
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


def _full_matrix_oracle(a):
    """The unsplit oracle as reference: (full rank, inverse) from one 2^n x 2^n elimination."""
    rows, _ = _int_matrix(a)
    full_rank = _eliminate(rows, len(rows))
    rows, den = _int_matrix(a)
    dim = len(rows)
    for i, row in enumerate(rows):
        row.append(1 if i == 0 else 0)
    if not _eliminate(rows, dim + 1):
        return full_rank, None
    det = rows[-1][dim - 1]
    y = [0] * dim
    for i in range(dim - 1, -1, -1):
        y[i] = (det * rows[i][dim] - sum(rows[i][j] * y[j] for j in range(i + 1, dim))) // rows[i][i]
    basis = blade_order(a.sig.n)
    return full_rank, Multivector(a.sig, {basis[i]: Fraction(v * den, det) for i, v in enumerate(y)})


def _unit_plus_square_one_blades(sig):
    """Every zero divisor 1 + b with b*b = +1."""
    return [Multivector(sig, {0: 1, b: 1}) for b in range(1, sig.dim) if blade_square_sign(b, sig) > 0]


def _split_samples(sig, rng):
    """Dense integer and rational, sparse rational, zero, and every 1 + b zero divisor."""
    out = [rnd(sig, rng.randrange(10**6), 10) for _ in range(6)]
    out += _integer_path_samples(sig, rng)
    out.append(Multivector.zero(sig))
    zero_divisors = _unit_plus_square_one_blades(sig)
    out += zero_divisors
    # Products with a zero divisor are singular too.
    out += [zd * rnd(sig, rng.randrange(10**6), 3) for zd in zero_divisors[:2]]
    return out


def _block_profiles(a):
    """(side, row swaps, last pivot or 0 if singular) of each augmented block's elimination."""
    blocks, _ = _blocks(a, _split(a.sig))
    out = []
    for block in blocks:
        rows = _Rows(row + [1 if i == 0 else 0] for i, row in enumerate(block))
        full = _eliminate(rows, len(rows) + 1)
        out.append((len(rows), rows.writes // 2, rows[-1][-2] if full else 0))
    return out


def _idempotents(sig, split):
    """f_eps = prod_i (1 + (-1)^eps_i b_i)/2 for every k-bit eps, from Multivector products."""
    out = []
    for eps in range(1 << len(split.blades)):
        f = Multivector.unit(sig)
        for i, b in enumerate(split.blades):
            f = f * Multivector(sig, {0: Fraction(1, 2), b: Fraction(-1 if eps >> i & 1 else 1, 2)})
        out.append(f)
    return out


class TestIdempotentSplit:
    """M(a) is block diagonal on the ideals of the idempotents f_eps; one block per orbit is solved."""

    def test_split_blades_and_block_shapes(self):
        sides = {}
        for sig in all_signatures():
            split = _split(sig)
            k = len(split.blades)
            for i, b in enumerate(split.blades):
                assert blade_square_sign(b, sig) == 1
                for c in split.blades[:i]:
                    assert blade_mul(b, c, sig) == blade_mul(c, b, sig)
            span = {0}
            for b in split.blades:
                assert b not in span
                span |= {m ^ b for m in span}
            assert len(span) == 1 << k
            # 2^k stacks of side x side cells, one per S, side = 2^(n-k); column c = 0 of
            # row (S, r) holds the coset member y itself, as M[y][0] = a_y.
            side = sig.dim >> k
            assert len(split.cells) == 1 << k
            assert all(len(cells) == side * side for cells in split.cells)
            members = [[cells[r * side] for r in range(side)] for cells in split.cells]
            # The cosets cover every basis blade once.
            assert sorted(y for row in members for y, _ in row) == list(range(sig.dim))
            assert all(sign in (1, -1) for row in members for _, sign in row)
            # The unit represents the span: S = 0 lists the representatives,
            # the unit first, and the unit's coset is the span.
            reps = [y for y, _ in members[0]]
            assert reps[0] == 0 and all(sign == 1 for _, sign in members[0])
            assert {row[0][0] for row in members} == span
            # Column c of row (S, r) reads a at y ^ rep_c.
            assert all(
                cells[r * side + c][0] == members[S][r][0] ^ rep
                for S, cells in enumerate(split.cells) for r in range(side) for c, rep in enumerate(reps)
            )
            # gather agrees with the cells.
            assert [mask for mask, _, _, _ in split.gather] == list(blade_order(sig.n))
            assert all(members[S][r] == (mask, sign) for mask, S, r, sign in split.gather)
            sides[(sig.p, sig.q)] = side
        assert sides[(0, 0)] == 1 and sides[(1, 0)] == 2 and sides[(2, 0)] == 4
        assert {pq: s for pq, s in sides.items() if sum(pq) == 5} == {
            (0, 5): 8, (1, 4): 8, (2, 3): 4, (3, 2): 8, (4, 1): 8, (5, 0): 8,
        }

    def test_blocks_are_left_multiplication_on_the_ideals(self):
        # a * e_m f_eps = sum_r B_eps[r][m] e_r f_eps for each representative m,
        # one block per orbit, that of its representative eps.
        rng = random.Random(14)
        for sig in all_signatures():
            split = _split(sig)
            one = Multivector.unit(sig)
            idempotents = _idempotents(sig, split)
            total = Multivector.zero(sig)
            for f in idempotents:
                assert f * f == f
                total = total + f
            assert total == one
            a = rnd(sig, rng.randrange(10**6), 5)
            blocks, den = _blocks(a, split)
            assert den == 1
            assert len(blocks) == len(split.orbits)
            reps = [Multivector.blade(sig, mask) for mask, S, _, _ in split.gather if S == 0]
            for f, block in zip([idempotents[eps] for eps in split.orbits], blocks):
                for m, e_m in enumerate(reps):
                    image = Multivector.zero(sig)
                    for r, e_r in enumerate(reps):
                        image = image + e_r * f * block[r][m]
                    assert a * e_m * f == image

    def test_matches_full_matrix_oracle(self):
        rng = random.Random(16)
        count = singular = partly_singular = 0
        for sig in all_signatures():
            for a in _split_samples(sig, rng):
                full_rank, inverse = _full_matrix_oracle(a)
                assert oracle_is_invertible(a) == full_rank
                assert oracle_inverse(a) == inverse
                assert (inverse is None) == (not full_rank)
                count += 1
                if not full_rank:
                    singular += 1
                    dead = sum(pivot == 0 for _, _, pivot in _block_profiles(a))
                    assert dead >= 1
                    partly_singular += dead < len(_split(sig).orbits)
        assert count >= 450 and singular >= 150
        # Some singular samples keep full rank in some of their blocks.
        assert partly_singular

    def test_samples_reach_block_swaps_and_negative_pivots(self):
        rng = random.Random(18)
        swapped = negative_pivot = 0
        for sig in all_signatures(1):
            if not _split(sig).blades:
                continue
            for a in _split_samples(sig, rng):
                for side, swaps, last_pivot in _block_profiles(a):
                    assert side < sig.dim
                    swapped += swaps > 0
                    negative_pivot += last_pivot < 0
        assert swapped and negative_pivot

    def test_shares_no_code_with_the_chain(self):
        tree = ast.parse(Path(oracle_module.__file__).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        modules = {name.rsplit(".", 1)[-1] for name in imported if name}
        assert modules.isdisjoint({"inversion", "involutions", "verify", "bench", "parsing"})
        assert {"blades", "multivector"} <= modules


def _pattern(sig, split, e):
    """sigma(e): bit i set iff the blade e anticommutes with b_i, from Multivector products."""
    blade = Multivector.blade(sig, e)
    out = 0
    for i, b in enumerate(split.blades):
        other = Multivector.blade(sig, b)
        if blade * other == -(other * blade):
            out |= 1 << i
        else:
            assert blade * other == other * blade
    return out


def _product_block(a, f, reps):
    """B[r][m] with a * e_m f = sum_r B[r][m] e_r f, read off Multivector products.

    e_r f = 2^-k (e_r + terms on the other blades of e_r's coset), so the
    coordinate on e_r f is 2^k times the coefficient of e_r.
    """
    sig = a.sig
    scale = len(blade_order(sig.n)) // len(reps)
    images = [a * Multivector.blade(sig, m) * f for m in reps]
    block = [[image.coeff(r) * scale for image in images] for r in reps]
    assert all(v.denominator == 1 for row in block for v in row)
    return [[int(v) for v in row] for row in block]


def _bareiss_det(block):
    """det(block) from the oracle's elimination: the last pivot, signed by the row swaps."""
    rows = _Rows(list(row) for row in block)
    if not _eliminate(rows, len(rows)):
        return 0
    return (-1) ** (rows.writes // 2) * rows[-1][-1]


class TestOrbits:
    """Ideals Cl f_eps and Cl f_(eps ^ sigma(e)) are isomorphic under right multiplication by e^-1."""

    def test_conjugating_an_idempotent_by_a_member(self):
        for sig in all_signatures():
            split = _split(sig)
            k = len(split.blades)
            idempotents = _idempotents(sig, split)
            patterns = [_pattern(sig, split, e) for e in split.members]
            # One member per pattern, the unit first; the patterns of all blades form the group H.
            assert split.members[0] == 0 and len(set(patterns)) == len(patterns)
            assert set(patterns) == {_pattern(sig, split, e) for e in range(sig.dim)}
            assert all(h ^ g in patterns for h in patterns for g in patterns)
            # The orbit representatives are the smallest eps of the cosets of H, which they cover once.
            assert sorted(eps ^ h for eps in split.orbits for h in patterns) == list(range(1 << k))
            assert all(eps <= eps ^ h for eps in split.orbits for h in patterns)
            for eps in split.orbits:
                for e, h in zip(split.members, patterns):
                    blade = Multivector.blade(sig, e)
                    e_inv = oracle_inverse(blade)
                    assert blade * e_inv == Multivector.unit(sig)
                    assert blade * idempotents[eps] * e_inv == idempotents[eps ^ h]

    def test_two_orbits_exactly_when_the_pseudoscalar_is_central_and_squares_to_one(self):
        counts = {}
        for sig in all_signatures():
            pseudoscalar = Multivector.blade(sig, sig.dim - 1)
            squares_to_one = pseudoscalar * pseudoscalar == Multivector.unit(sig)
            counts[(sig.p, sig.q)] = len(_split(sig).orbits)
            assert counts[(sig.p, sig.q)] == (2 if sig.n % 2 and squares_to_one else 1)
        assert sorted(pq for pq, count in counts.items() if count == 2) == [
            (0, 1), (0, 5), (1, 2), (2, 3), (3, 0), (4, 1),
        ]

    def test_blocks_of_an_orbit_share_their_determinant(self):
        rng = random.Random(20)
        for sig in all_signatures():
            split = _split(sig)
            idempotents = _idempotents(sig, split)
            patterns = [_pattern(sig, split, e) for e in split.members]
            reps = [mask for mask, S, _, _ in split.gather if S == 0]
            samples = [rnd(sig, rng.randrange(10**6), 4) for _ in range(3)]
            samples += _unit_plus_square_one_blades(sig)[:2]
            dets = set()
            for a in samples:
                blocks, _ = _blocks(a, split)
                for eps, block in zip(split.orbits, blocks):
                    built = [_product_block(a, idempotents[eps ^ h], reps) for h in patterns]
                    # The oracle's block is the representative's.
                    assert built[0] == block
                    orbit_dets = {_bareiss_det(b) for b in built}
                    assert len(orbit_dets) == 1
                    dets |= orbit_dets
            # The samples reach regular and singular blocks.
            assert 0 in dets or not _unit_plus_square_one_blades(sig)
            assert dets - {0}
