import itertools
import random

import pytest

from cliffinv import (
    DimensionMismatch,
    LengthDeltaMap,
    Multivector,
    Signature,
    apply_delta,
    blade_mul,
    conjugation,
    conjugation_delta,
    constraints_for,
    delta_solutions,
    grade,
    grade_involution,
    grade_involution_delta,
    invariant_grades,
    is_special_involution,
    named_map_matches,
    oracle_inverse,
    oracle_is_invertible,
    psi,
    psi_delta,
    reversion,
    reversion_delta,
)
from cliffinv.verify import all_signatures


def rnd(sig, seed, bound=9):
    return Multivector.random(sig, seed, bound)


def delta_antihom_on_blades(delta: tuple[int, ...], grades: set[int], sig: Signature) -> bool:
    """Brute-force check that the sign table reverses blade products.

    Tests f(a*b) == f(b)*f(a) on every ordered pair of basis blades whose
    grades lie in the set, via blade_mul only.
    """
    masks = [m for m in range(sig.dim) if grade(m) in grades]
    for a in masks:
        for b in masks:
            s_ab, m = blade_mul(a, b, sig)
            s_ba, m2 = blade_mul(b, a, sig)
            assert m == m2
            if delta[grade(m)] * s_ab != delta[grade(a)] * delta[grade(b)] * s_ba:
                return False
    return True


class TestLengthDeltaMap:
    def test_scalar_sign_must_be_positive(self):
        with pytest.raises(ValueError):
            LengthDeltaMap([-1, 1])

    def test_entries_must_be_signs(self):
        with pytest.raises(ValueError):
            LengthDeltaMap([1, 0])

    def test_equality_and_json(self):
        f = LengthDeltaMap([1, -1, -1])
        assert f == conjugation_delta(2)
        assert f.to_json_list() == [1, -1, -1]
        # A map equals only a map, not the tuple of its signs.
        assert (LengthDeltaMap([1, -1]) == (1, -1)) is False

    def test_apply_scales_each_grade(self):
        sig = Signature(0, 3)
        f = LengthDeltaMap([1, -1, 1, -1])
        m = Multivector(sig, {0: 1, 0b001: 2, 0b011: 3, 0b111: 4})
        assert apply_delta(f, m) == Multivector(sig, {0: 1, 0b001: -2, 0b011: 3, 0b111: -4})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_delta(LengthDeltaMap([1, -1]), Multivector.unit(Signature(0, 2)))

    def test_every_length_map_is_an_involution(self):
        rng = random.Random(3)
        for sig in all_signatures(1):
            for bits in range(1 << sig.n):
                delta = [1] + [-1 if bits >> k & 1 else 1 for k in range(sig.n)]
                f = LengthDeltaMap(delta)
                a = rnd(sig, rng.randrange(10**6))
                assert f(f(a)) == a


class TestNamedMaps:
    def test_reversion_sign_table(self):
        assert reversion_delta(5).delta == (1, 1, -1, -1, 1, 1)

    def test_conjugation_sign_table(self):
        assert conjugation_delta(5).delta == (1, -1, -1, 1, 1, -1)

    def test_grade_involution_alternates(self):
        assert grade_involution_delta(5).delta == (1, -1, 1, -1, 1, -1)

    def test_psi_negates_grades_one_through_four(self):
        assert psi_delta(5).delta == (1, -1, -1, -1, -1, 1)
        assert psi_delta(2).delta == (1, -1, -1)

    def test_reversion_examples(self):
        sig = Signature(0, 4)
        assert reversion(Multivector.blade(sig, 0b0011)) == Multivector.blade(sig, 0b0011, -1)
        assert reversion(Multivector.scalar(sig, 7)) == Multivector.scalar(sig, 7)
        assert reversion(Multivector.blade(sig, 0b1111)) == Multivector.blade(sig, 0b1111)

    def test_conjugation_examples(self):
        sig = Signature(1, 2)
        assert conjugation(Multivector.blade(sig, 0b001)) == Multivector.blade(sig, 0b001, -1)
        assert conjugation(Multivector.blade(sig, 0b111)) == Multivector.blade(sig, 0b111)
        assert conjugation(Multivector.unit(sig)) == Multivector.unit(sig)

    def test_psi_examples(self):
        sig = Signature(0, 5)
        assert psi(Multivector.blade(sig, 0b00001)) == Multivector.blade(sig, 0b00001, -1)
        assert psi(Multivector.blade(sig, 0b11111)) == Multivector.blade(sig, 0b11111)

    def test_grade_involution_is_both_compositions(self):
        for sig in all_signatures(1):
            a = rnd(sig, 5)
            assert grade_involution(a) == reversion(conjugation(a))
            assert grade_involution(a) == conjugation(reversion(a))

    def test_named_map_matches(self):
        assert named_map_matches(reversion_delta(3)) == ["rev"]
        assert named_map_matches(psi_delta(5)) == ["psi"]
        # at one generator, conjugation, main and psi all negate grade 1
        assert set(named_map_matches(conjugation_delta(1))) == {"conj", "main", "psi"}


class TestAntiHomomorphism:
    def test_reversion_and_conjugation_reverse_products(self):
        rng = random.Random(31)
        for sig in all_signatures(1):
            for f in (reversion, conjugation):
                a = rnd(sig, rng.randrange(10**6))
                b = rnd(sig, rng.randrange(10**6))
                assert f(a * b) == f(b) * f(a)

    def test_grade_involution_preserves_products(self):
        for sig in all_signatures(1):
            a, b = rnd(sig, 1), rnd(sig, 2)
            assert grade_involution(a * b) == grade_involution(a) * grade_involution(b)

    def test_psi_reverses_products_only_on_its_domains(self):
        # counterexample on the full five-generator algebra
        sig = Signature(0, 5)
        a = Multivector.blade(sig, 0b00011)   # grade 2
        b = Multivector.blade(sig, 0b00111)   # grade 3, overlap 2
        assert psi(a * b) != psi(b) * psi(a)
        # but on elements supported on grades {0,1,4,5} it reverses products
        rng = random.Random(77)
        keep = {0, 1, 4, 5}
        for _ in range(25):
            x = rnd(sig, rng.randrange(10**6))
            y = rnd(sig, rng.randrange(10**6))
            xs = sum((x.grade_project(k) for k in keep), Multivector.zero(sig))
            ys = sum((y.grade_project(k) for k in keep), Multivector.zero(sig))
            assert psi(xs * ys) == psi(ys) * psi(xs)


class TestConstraints:
    def test_overlap_range_respects_dimension(self):
        # at (k,l) = (3,3) with three generators only full overlap is possible
        cons = [(c.k, c.l, c.s) for c in constraints_for({0, 3}, 3)]
        assert (3, 3, 3) in cons
        assert (3, 3, 2) not in cons
        # with four generators the overlap can drop to 2
        cons4 = [(c.k, c.l, c.s) for c in constraints_for({0, 3}, 4)]
        assert (3, 3, 2) in cons4

    def test_constraint_list_is_sorted_and_complete(self):
        cons = constraints_for({0, 1, 4}, 4)
        triples = [(c.k, c.l, c.s) for c in cons]
        assert triples == sorted(triples)
        expected = [
            (k, l, s)
            for k in (0, 1, 4)
            for l in (0, 1, 4)
            for s in range(max(0, k + l - 4), min(k, l) + 1)
        ]
        assert triples == expected

    def test_rejects_grades_outside_range(self):
        with pytest.raises(ValueError):
            constraints_for({0, 7}, 5)


class TestDeltaSolutions:
    def test_vector_line_forces_negative_bivector_sign(self):
        sols = delta_solutions({0, 1}, 3)
        assert len(sols) == 4
        assert all(f.delta[2] == -1 for f in sols)
        deltas = {f.delta for f in sols}
        assert deltas == {(1, a, -1, b) for a in (1, -1) for b in (1, -1)}

    def test_scalar_plus_trivector_is_unconstrained(self):
        sols = delta_solutions({0, 3}, 3)
        assert len(sols) == 8  # every table qualifies

    def test_one_generator_both_tables(self):
        assert len(delta_solutions({0, 1}, 1)) == 2

    def test_grades_014_of_four(self):
        sols = delta_solutions({0, 1, 4}, 4)
        assert len(sols) == 4
        for f in sols:
            assert f.delta[2] == -1
            assert f.delta[3] == -f.delta[1] * f.delta[4]
        assert psi_delta(4) in sols

    def test_grades_034_of_four(self):
        sols = delta_solutions({0, 3, 4}, 4)
        for f in sols:
            assert f.delta[2] == -1
            assert f.delta[1] == -f.delta[3] * f.delta[4]
        assert psi_delta(4) in sols

    def test_grades_0145_of_five(self):
        sols = delta_solutions({0, 1, 4, 5}, 5)
        for f in sols:
            d = f.delta
            assert d[2] == -1
            assert d[3] == -d[1] * d[4]
            assert d[5] == d[1] * d[4]
            assert d[4] == d[1] * d[5]
            assert d[1] == d[4] * d[5]
        assert psi_delta(5) in sols
        # two free signs (grades 1 and 4); the rest are determined
        assert len(sols) == 4
        assert reversion_delta(5) in sols and conjugation_delta(5) in sols

    def test_scalar_plus_pseudoscalar_of_five_unconstrained(self):
        sols = delta_solutions({0, 5}, 5)
        assert len(sols) == 32
        assert conjugation_delta(5) in sols


class TestIsSpecialInvolution:
    def test_reversion_and_conjugation_on_full_algebra(self):
        for n in range(6):
            full = set(range(n + 1))
            assert is_special_involution(reversion_delta(n), full, n)
            assert is_special_involution(conjugation_delta(n), full, n)

    def test_identity_fails_on_vector_line(self):
        ident = LengthDeltaMap([1, 1, 1])
        assert not is_special_involution(ident, {0, 1}, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_special_involution(reversion_delta(3), {0, 1}, 4)

    def test_agrees_with_blade_brute_force(self):
        # solver verdict == blade-pair verdict, all grade sets, two signatures
        for sig in (Signature(0, 3), Signature(2, 1)):
            n = sig.n
            for r in range(n + 2):
                for rest in itertools.combinations(range(1, n + 1), r if r <= n else n):
                    grades = {0, *rest}
                    for bits in range(1 << n):
                        delta = (1,) + tuple(
                            -1 if bits >> k & 1 else 1 for k in range(n)
                        )
                        f = LengthDeltaMap(delta)
                        assert is_special_involution(f, grades, n) == delta_antihom_on_blades(
                            delta, grades, sig
                        )


class TestInvariantGrades:
    def test_reversion_full(self):
        for n in range(6):
            expected = frozenset(k for k in range(n + 1) if k % 4 in (0, 1))
            assert invariant_grades(reversion_delta(n), range(n + 1)) == expected

    def test_conjugation_full(self):
        for n in range(6):
            expected = frozenset(k for k in range(n + 1) if k % 4 in (0, 3))
            assert invariant_grades(conjugation_delta(n), range(n + 1)) == expected

    def test_psi_on_chain_domain(self):
        assert invariant_grades(psi_delta(5), {0, 1, 4, 5}) == frozenset({0, 5})
        assert invariant_grades(psi_delta(4), {0, 1, 4}) == frozenset({0})

    def test_grade_table_predicts_elementwise_fixed_points(self):
        for sig in all_signatures(1):
            n = sig.n
            for f in (reversion_delta(n), conjugation_delta(n), psi_delta(n)):
                fixed = invariant_grades(f, range(n + 1))
                for mask in range(sig.dim):
                    b = Multivector.blade(sig, mask)
                    assert (f(b) == b) == (grade(mask) in fixed)


class TestClosureAndInvertibility:
    def test_symmetrised_elements_land_in_fixed_grades(self):
        rng = random.Random(41)
        for sig in all_signatures(1):
            n = sig.n
            for f in (reversion_delta(n), conjugation_delta(n)):
                fixed = invariant_grades(f, range(n + 1))
                a = rnd(sig, rng.randrange(10**6))
                assert (a + f(a)).support_grades() <= fixed
                assert (a * f(a)).support_grades() <= fixed

    def test_reversion_conjugation_preserve_invertibility(self):
        rng = random.Random(43)
        for sig in all_signatures(1, 4):
            for _ in range(5):
                a = rnd(sig, rng.randrange(10**6), 4)
                inv_a = oracle_is_invertible(a)
                assert oracle_is_invertible(reversion(a)) == inv_a
                assert oracle_is_invertible(conjugation(a)) == inv_a

    def test_fixed_invertible_elements_have_fixed_inverses(self):
        rng = random.Random(47)
        for sig in all_signatures(1, 4):
            n = sig.n
            for f in (reversion, conjugation):
                a = rnd(sig, rng.randrange(10**6), 4)
                b = a * (reversion(a) if f is reversion else conjugation(a))
                assert f(b) == b
                b_inv = oracle_inverse(b)
                if b_inv is not None:
                    assert f(b_inv) == b_inv
