import random
from fractions import Fraction
from functools import lru_cache

import pytest
from conftest import reference_product

from cliffinv import (
    DimensionMismatch,
    DimensionOutOfRange,
    InvolutionChain,
    LengthDeltaMap,
    Multivector,
    NotInvertible,
    Signature,
    SubspaceViolation,
    alternate_chain,
    blade_square_sign,
    chain_scalar,
    compose_inverse,
    conjugation,
    conjugation_delta,
    default_chain,
    delta_solutions,
    discriminant,
    discriminant_closed_form,
    grade_involution,
    grade_involution_delta,
    inverse,
    oracle_inverse,
    psi,
    psi_delta,
    reversion,
    reversion_delta,
)
from cliffinv.verify import all_signatures


def rnd(sig, seed, bound=9):
    return Multivector.random(sig, seed, bound)


class TestChainConstruction:
    def test_default_chain_steps(self):
        assert default_chain(0).steps == ()
        assert default_chain(1).steps == (conjugation_delta(1),)
        assert default_chain(2).steps == (conjugation_delta(2),)
        assert default_chain(3).steps == (reversion_delta(3), conjugation_delta(3))
        assert default_chain(4).steps == (reversion_delta(4), psi_delta(4))
        assert default_chain(5).steps == (
            reversion_delta(5),
            psi_delta(5),
            conjugation_delta(5),
        )

    def test_default_chain_domains(self):
        assert default_chain(3).domains == (frozenset({0, 1, 2, 3}), frozenset({0, 1}))
        assert default_chain(4).domains == (frozenset(range(5)), frozenset({0, 1, 4}))
        assert default_chain(5).domains == (
            frozenset(range(6)),
            frozenset({0, 1, 4, 5}),
            frozenset({0, 5}),
        )

    def test_default_chain_out_of_range(self):
        with pytest.raises(DimensionOutOfRange):
            default_chain(6)

    def test_alternate_chain(self):
        assert alternate_chain(3).steps == (conjugation_delta(3), reversion_delta(3))
        assert alternate_chain(3).domains == (frozenset({0, 1, 2, 3}), frozenset({0, 3}))
        assert alternate_chain(4).steps == (conjugation_delta(4), psi_delta(4))
        assert alternate_chain(4).domains == (frozenset(range(5)), frozenset({0, 3, 4}))
        for n in (0, 1, 2, 5, 6):
            with pytest.raises(DimensionOutOfRange):
                alternate_chain(n)

    def test_chain_must_terminate_on_scalars(self):
        # reversion alone leaves grades {0,1} fixed at three generators
        with pytest.raises(ValueError):
            InvolutionChain(3, (reversion_delta(3),))

    def test_chain_steps_must_reverse_products_on_domain(self):
        # psi is not an anti-automorphism of the full three-generator algebra
        with pytest.raises(ValueError):
            InvolutionChain(3, (psi_delta(3), conjugation_delta(3)))

    def test_chain_steps_must_cover_its_generators(self):
        with pytest.raises(DimensionMismatch, match=r"^map covers grades 0\.\.4, expected 0\.\.3$"):
            InvolutionChain(3, (reversion_delta(4),))


class TestComposeInverse:
    def test_unit_has_discriminant_one(self):
        for n in range(6):
            sig = Signature(0, n)
            result = compose_inverse(Multivector.unit(sig), default_chain(n))
            assert result.discriminant == 1
            assert result.inverse == Multivector.unit(sig)

    def test_two_plus_e1(self):
        sig = Signature(0, 1)
        result = compose_inverse(Multivector(sig, {0: 2, 1: 1}), default_chain(1))
        assert result.discriminant == 3
        assert result.inverse == Multivector(sig, {0: Fraction(2, 3), 1: Fraction(-1, 3)})
        assert result.factors == (Multivector(sig, {0: 2, 1: -1}),)

    def test_zero_divisor_has_no_inverse(self):
        sig = Signature(0, 1)
        result = compose_inverse(Multivector(sig, {0: 1, 1: 1}), default_chain(1))
        assert result.discriminant == 0
        assert result.inverse is None

    def test_element_times_factors_equals_discriminant(self):
        rng = random.Random(3)
        for sig in all_signatures(0):
            chain = default_chain(sig.n)
            for _ in range(10):
                a = rnd(sig, rng.randrange(10**6))
                result = compose_inverse(a, chain)
                prod = a
                for f in result.factors:
                    prod = prod * f
                assert prod == Multivector.scalar(sig, result.discriminant)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose_inverse(Multivector.unit(Signature(0, 2)), default_chain(3))

    @staticmethod
    def _unchecked_chain(n, steps, domains):
        chain = InvolutionChain.__new__(InvolutionChain)
        object.__setattr__(chain, "n", n)
        object.__setattr__(chain, "steps", steps)
        object.__setattr__(chain, "domains", domains)
        return chain

    def test_broken_chain_nonscalar_end_raises_subspace_violation(self):
        # Bypass validation: claim conjugation alone finishes a
        # three-generator element.  1 + e1 + e23 symmetrises to 1 - 2*e123.
        chain = self._unchecked_chain(
            3, (conjugation_delta(3),), (frozenset({0, 1, 2, 3}),)
        )
        a = Multivector(Signature(0, 3), {0: 1, 0b001: 1, 0b110: 1})
        with pytest.raises(SubspaceViolation, match=r"^chain step 1 sends 1, e123 to grade 3, outside the next domain \[0\]$"):
            compose_inverse(a, chain)

    def test_broken_chain_escaping_support_raises_subspace_violation(self):
        # A lying domain makes the grade-1 part of a*rev(a) an escape:
        # (1+e1)*rev(1+e1) = 2 + 2*e1, outside the claimed fixed set {0}.
        chain = self._unchecked_chain(3, (reversion_delta(3),), (frozenset({0, 2}),))
        a = Multivector(Signature(0, 3), {0: 1, 0b001: 1})
        with pytest.raises(SubspaceViolation):
            compose_inverse(a, chain)

    def test_map_not_reversing_products_raises_subspace_violation(self):
        # The grade involution is an automorphism, not an anti-automorphism:
        # e1 * main(e12) + e12 * main(e1) = 2*e1*e12 lands on grade 1, which
        # main negates.  The plan proof rejects the chain for every input.
        chain = self._unchecked_chain(
            3, (grade_involution_delta(3),), (frozenset({0, 1, 2, 3}),)
        )
        sig = Signature(0, 3)
        for a in (Multivector(sig, {0b001: 1, 0b011: 1}), Multivector.unit(sig)):
            with pytest.raises(SubspaceViolation, match=r"^chain step 1 sends 1, e12 to grade 2, outside the next domain \[0\]$"):
                compose_inverse(a, chain)


@lru_cache(maxsize=None)
def _reached_by_products(delta, domain, n):
    """Grades of x*f(y) + y*f(x) over blade pairs of the domain, by brute force.

    These are the grades a*f(a) reaches for a supported on the domain; which
    terms cancel does not depend on the metric, so Cl(0, n) stands for all.
    """
    sig, f = Signature(0, n), LengthDeltaMap(delta)
    blades = [Multivector.blade(sig, m) for m in range(sig.dim) if m.bit_count() in domain]
    return frozenset().union(*((x * f(y) + y * f(x)).support_grades() for x in blades for y in blades))


def _solver_chains(n, depth=5):
    """Every chain of up to `depth` domain-changing `delta_solutions` steps,
    from the whole algebra, with the domains its steps act on."""

    def walk(steps, domains, domain):
        yield steps, domains
        if len(steps) < depth and domain != {0}:
            for f in delta_solutions(domain, n):
                reached = _reached_by_products(f.delta, domain, n)
                if reached != domain:
                    yield from walk(steps + (f,), domains + (domain,), reached)

    yield from walk((), (), frozenset(range(n + 1)))


class TestClosureRule:
    """One rule: a step's next domain is every grade a*f(a) can reach."""

    @pytest.mark.parametrize("n", range(6))
    def test_every_solver_chain_is_refused_or_compiles(self, n):
        # An accepted chain of m steps gives D^(2^(m - m_min)), the default chain's D squared once per extra step.
        m_min = len(default_chain(n).steps)
        accepted = 0
        for steps, domains in _solver_chains(n):
            try:
                chain = InvolutionChain(n, steps)
            except ValueError:
                continue
            accepted += 1
            assert chain.domains == domains
            m = len(steps)
            assert m >= m_min
            for p in range(n + 1):
                sig = Signature(p, n - p)
                a = rnd(sig, 7 * accepted + p, 3)
                result = compose_inverse(a, chain)
                prod = a
                for f in result.factors:
                    prod = prod * f
                assert prod == Multivector.scalar(sig, result.discriminant)
                d = discriminant(a)
                assert result.discriminant == d ** (1 << (m - m_min))
                if d:
                    assert result.inverse == inverse(a)
        assert accepted >= 1

    def test_chain_stepping_off_the_reached_grades_is_refused(self):
        # After conj then rev the products reach {0, 1, 4}, where this map
        # does not reverse products (grade 1 times grade 1 lands on grade 2).
        with pytest.raises(ValueError, match="does not reverse products"):
            InvolutionChain(4, (conjugation_delta(4), reversion_delta(4), LengthDeltaMap([1, 1, 1, 1, -1])))

    @pytest.mark.parametrize(
        "n, extra, domains",
        [
            (4, (), ({0, 1, 2, 3, 4}, {0, 3, 4}, {0, 1, 4})),
            (5, (LengthDeltaMap([1, 1, 1, 1, 1, -1]),), ({0, 1, 2, 3, 4, 5}, {0, 3, 4}, {0, 1, 4}, {0, 5})),
        ],
        ids=["n4", "n5"],
    )
    def test_conj_rev_psi_chains_square_the_discriminant(self, n, extra, domains):
        chain = InvolutionChain(n, (conjugation_delta(n), reversion_delta(n), psi_delta(n)) + extra)
        assert chain.domains == tuple(frozenset(d) for d in domains)
        for p in range(n + 1):
            sig = Signature(p, n - p)
            b = next(b for b in range(1, sig.dim) if blade_square_sign(b, sig) == 1)
            zero_divisor = Multivector(sig, {0: 1, b: 1})
            for seed in range(10):
                a = rnd(sig, seed, 3)
                for x in (a, a * zero_divisor):
                    result = compose_inverse(x, chain)
                    assert result.discriminant == chain_scalar(x, chain) == discriminant(x) ** 2
                    assert result.inverse == compose_inverse(x, default_chain(n)).inverse


def _reference_chain(a, chain):
    """compose_inverse step by step through the public map and a blade_mul product."""
    cur = a
    factors = []
    for step in chain.steps:
        f = step(cur)
        factors.append(f)
        cur = reference_product(cur, f)
    assert cur.is_scalar()
    d = cur.scalar_part()
    inv = None
    if d:
        inv = Multivector.scalar(a.sig, 1 / d)
        for f in factors:
            inv = reference_product(inv, f)
    return d, tuple(factors), inv


def _kernel_samples(sig, seed):
    """Dense integer, dense rational, sparse rational and zero-divisor elements."""
    rng = random.Random(f"kernel|{sig}|{seed}")
    out = [rnd(sig, rng.randrange(10**6)) for _ in range(2)]
    for _ in range(2):
        out.append(
            Multivector(sig, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in range(sig.dim)})
        )
    for terms in range(1, 5):
        masks = rng.sample(range(sig.dim), min(terms, sig.dim))
        out.append(Multivector(sig, {m: Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5)) for m in masks}))
    out.append(Multivector.zero(sig))
    out.extend(Multivector(sig, {0: 1, b: 1}) for b in range(1, sig.dim) if blade_square_sign(b, sig) == 1)
    return out


class TestKernelEquivalence:
    """The compiled integer plan equals the step-by-step Fraction chain."""

    @pytest.mark.parametrize("sig", all_signatures(), ids=str)
    def test_matches_reference_chain(self, sig):
        chains = [default_chain(sig.n)]
        if sig.n in (3, 4):
            chains.append(alternate_chain(sig.n))
        samples = _kernel_samples(sig, 0)
        for chain in chains:
            for a in samples:
                d, factors, inv = _reference_chain(a, chain)
                result = compose_inverse(a, chain)
                assert (result.discriminant, result.factors, result.inverse) == (d, factors, inv)
        for a in samples:
            assert discriminant(a) == _reference_chain(a, chains[0])[0]

    def test_chains_are_built_once(self):
        for n in range(6):
            assert default_chain(n) is default_chain(n)
        for n in (3, 4):
            assert alternate_chain(n) is alternate_chain(n)


class TestInverseResult:
    """The result's value contract, with factors built on first read."""

    def test_factors_do_not_depend_on_read_order(self):
        for p in range(6):
            a = rnd(Signature(p, 5 - p), p)
            chain = default_chain(5)
            first = compose_inverse(a, chain)
            factors = first.factors
            inv = first.inverse
            second = compose_inverse(a, chain)
            assert second.inverse == inv
            assert second.factors == factors
            assert first.factors is factors

    def test_equal_runs_compare_and_hash_equal(self):
        for sig in all_signatures():
            a = rnd(sig, 11)
            chain = default_chain(sig.n)
            one, two = compose_inverse(a, chain), compose_inverse(a, chain)
            assert one == two
            assert hash(one) == hash(two)
            two.factors
            assert hash(one) == hash(two) and one == two

    def test_chains_with_equal_inverse_but_other_factors_compare_unequal(self):
        a = rnd(Signature(1, 2), 5)
        default = compose_inverse(a, default_chain(3))
        alternate = compose_inverse(a, alternate_chain(3))
        assert default.discriminant == alternate.discriminant
        assert default.inverse == alternate.inverse
        assert default.factors != alternate.factors
        assert default != alternate

    def test_factors_of_zero_divisors_multiply_to_discriminant(self):
        for sig in all_signatures(1):
            chain = default_chain(sig.n)
            zero = compose_inverse(Multivector.zero(sig), chain)
            assert zero.discriminant == 0 and zero.inverse is None
            assert len(zero.factors) == len(chain.steps)
            for b in range(1, sig.dim):
                if blade_square_sign(b, sig) != 1:
                    continue
                for a in (Multivector(sig, {0: 1, b: 1}), rnd(sig, b) * Multivector(sig, {0: 1, b: 1})):
                    result = compose_inverse(a, chain)
                    assert result.discriminant == 0 and result.inverse is None
                    assert len(result.factors) == len(chain.steps)
                    prod = a
                    for f in result.factors:
                        prod = prod * f
                    assert prod == Multivector.zero(sig)
                    assert result != zero

    def test_zero_generators_have_no_factors(self):
        sig = Signature(0, 0)
        for value in (Fraction(3), Fraction(-2, 7)):
            result = compose_inverse(Multivector.scalar(sig, value), default_chain(0))
            assert result.factors == ()
            assert result.discriminant == value
            assert result.inverse == Multivector.scalar(sig, 1 / value)


class TestLaziness:
    """Inverting builds no factor; reading `factors` applies each map once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"map": 0, "mul": 0}
        apply, mul = LengthDeltaMap.__call__, Multivector.__mul__

        def counted_apply(self, a):
            counts["map"] += 1
            return apply(self, a)

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(LengthDeltaMap, "__call__", counted_apply)
        monkeypatch.setattr(Multivector, "__mul__", counted_mul)
        return counts

    @pytest.mark.parametrize("n", range(6))
    def test_inverting_calls_no_map_and_no_product(self, calls, n):
        sig = Signature(n // 2, n - n // 2)
        samples = [rnd(sig, 3), Multivector.zero(sig)]
        chain = default_chain(n)
        results = [compose_inverse(a, chain) for a in samples]
        for a in samples:
            discriminant(a)
            if a:
                inverse(a)
        again = [compose_inverse(a, chain) for a in samples]
        assert [(r.discriminant, r.inverse) for r in results] == [(r.discriminant, r.inverse) for r in again]
        assert calls == {"map": 0, "mul": 0}
        for result in results:
            result.factors
            result.factors
        assert calls == {"map": len(samples) * len(chain.steps), "mul": 0}


class TestInverse:
    def test_self_inverse_generator(self):
        sig = Signature(0, 2)
        e1 = Multivector.blade(sig, 0b01)
        assert inverse(e1) == e1

    def test_negative_square_generator(self):
        sig = Signature(2, 0)
        e1 = Multivector.blade(sig, 0b01)
        assert inverse(e1) == -e1

    def test_matches_matrix_oracle(self):
        sig = Signature(1, 2)
        a = Multivector(sig, {0: 1, 0b001: 2, 0b110: 1})
        assert inverse(a) == oracle_inverse(a)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for sig in all_signatures(0):
            one = Multivector.unit(sig)
            for _ in range(15):
                a = rnd(sig, rng.randrange(10**6))
                try:
                    a_inv = inverse(a)
                except NotInvertible:
                    continue
                assert a * a_inv == one
                assert a_inv * a == one

    def test_not_invertible_raises(self):
        with pytest.raises(NotInvertible):
            inverse(Multivector(Signature(0, 1), {0: 1, 1: 1}))
        with pytest.raises(NotInvertible):
            inverse(Multivector.zero(Signature(2, 2)))

    def test_scalar_field_inverse(self):
        sig = Signature(0, 0)
        assert inverse(Multivector.scalar(sig, 5)) == Multivector.scalar(sig, Fraction(1, 5))
        assert discriminant(Multivector.scalar(sig, 5)) == 5


class TestDiscriminant:
    def test_zero_element(self):
        for sig in all_signatures(0):
            assert discriminant(Multivector.zero(sig)) == 0

    def test_scalar_degree_doubles_per_step(self):
        # each chain step squares a scalar, so c maps to c**(2**steps)
        for n, exponent in ((0, 1), (1, 2), (2, 2), (3, 4), (4, 4), (5, 8)):
            sig = Signature(0, n)
            c = Fraction(3)
            assert discriminant(Multivector.scalar(sig, c)) == c**exponent

    def test_zero_divisor_has_zero_discriminant(self):
        assert discriminant(Multivector(Signature(0, 1), {0: 1, 1: 1})) == 0


class TestClosedForm:
    def test_one_generator_formula(self):
        rng = random.Random(7)
        for sig in (Signature(0, 1), Signature(1, 0)):
            s1 = sig.square(1)
            for _ in range(50):
                x, y = rng.randint(-20, 20), rng.randint(-20, 20)
                a = Multivector(sig, {0: x, 1: y})
                assert discriminant_closed_form(a) == x * x - y * y * s1
                assert discriminant(a) == discriminant_closed_form(a)

    def test_two_generator_formula(self):
        rng = random.Random(8)
        for p in range(3):
            sig = Signature(p, 2 - p)
            s1, s2 = sig.square(1), sig.square(2)
            for _ in range(50):
                x, y, z, w = (rng.randint(-20, 20) for _ in range(4))
                a = Multivector(sig, {0b00: x, 0b01: y, 0b10: z, 0b11: w})
                expected = x * x - y * y * s1 - z * z * s2 + w * w * s1 * s2
                assert discriminant_closed_form(a) == expected
                assert discriminant(a) == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_chain_scalar(self, n):
        rng = random.Random(9 + n)
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for _ in range(60):
                a = rnd(sig, rng.randrange(10**6))
                assert discriminant_closed_form(a) == discriminant(a)

    def test_rational_coefficients(self):
        sig = Signature(2, 2)
        a = rnd(sig, 123).scale(Fraction(1, 6)) + Multivector.scalar(sig, Fraction(2, 7))
        assert discriminant_closed_form(a) == discriminant(a)

    @pytest.mark.parametrize("sig", all_signatures(1, 4), ids=str)
    def test_rational_dense_matches_chain_scalar(self, sig):
        # The polynomial runs on integer numerators; the cleared denominator
        # must come back as den**2 (n <= 2) or den**4 (n = 3, 4).
        rng = random.Random(f"closed-form|{sig}")
        zero_divisor = next(
            (Multivector(sig, {0: 1, b: 1}) for b in range(1, sig.dim) if blade_square_sign(b, sig) == 1),
            Multivector.zero(sig),
        )
        for _ in range(12):
            a = Multivector(sig, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in range(sig.dim)})
            assert discriminant_closed_form(a) == discriminant(a)
            assert discriminant_closed_form(zero_divisor * a) == discriminant(zero_divisor * a) == 0
            one_rational = rnd(sig, rng.randrange(10**6)) + Multivector.blade(sig, sig.dim - 1, Fraction(1, 7))
            assert discriminant_closed_form(one_rational) == discriminant(one_rational)

    def test_out_of_range(self):
        with pytest.raises(DimensionOutOfRange):
            discriminant_closed_form(Multivector.scalar(Signature(0, 0), 3))
        with pytest.raises(DimensionOutOfRange):
            discriminant_closed_form(Multivector.unit(Signature(2, 3)))


class TestChainAgreement:
    @pytest.mark.parametrize("n", [3, 4])
    def test_both_chains_same_scalar(self, n):
        rng = random.Random(11 + n)
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for _ in range(40):
                a = rnd(sig, rng.randrange(10**6))
                assert discriminant(a) == chain_scalar(a, alternate_chain(n))

    def test_zero_element(self):
        zero = Multivector.zero(Signature(1, 2))
        assert discriminant(zero) == chain_scalar(zero, alternate_chain(3)) == 0

    def test_out_of_range(self):
        with pytest.raises(DimensionOutOfRange):
            alternate_chain(2)


class TestTwoSidedForms:
    def test_three_generator_product_symmetry(self):
        rng = random.Random(13)
        for p in range(4):
            sig = Signature(p, 3 - p)
            for _ in range(25):
                a = rnd(sig, rng.randrange(10**6))
                left = reversion(a) * grade_involution(a) * conjugation(a)
                right = conjugation(a) * grade_involution(a) * reversion(a)
                assert left == right

    def test_four_generator_product_symmetry(self):
        rng = random.Random(17)
        for p in range(5):
            sig = Signature(p, 4 - p)
            for _ in range(25):
                a = rnd(sig, rng.randrange(10**6))
                left = reversion(a) * psi(a * reversion(a))
                right = conjugation(a) * psi(a * conjugation(a))
                assert left == right

    def test_five_generator_factor_expansion(self):
        rng = random.Random(19)
        for p in range(6):
            sig = Signature(p, 5 - p)
            for _ in range(10):
                a = rnd(sig, rng.randrange(10**6))
                result = compose_inverse(a, default_chain(5))
                f1, f2, f3 = result.factors
                assert f1 == reversion(a)
                assert f2 == psi(a * reversion(a))
                tail = psi(grade_involution(a) * conjugation(a)) * (
                    grade_involution(a) * conjugation(a)
                )
                assert f3 == tail
                expanded = f1 * f2 * tail
                assert f1 * f2 * f3 == expanded
