"""Full acceptance battery.

Eleven criteria, every one exact (no tolerances): inversion round trips,
the discriminant-vanishes-iff-singular law against the matrix oracle,
closed-form discriminant agreement, two-chain agreement, fixed-subspace
structure, the sign-table constraint solver against blade-level brute
force, closure and invertibility preservation, the two-sided product
identities, parser round trips, and a benchmark smoke run.

Each test prints one PASS line (visible with `pytest -s` or `-rA`); a
failure carries a concrete counterexample in the assertion message.
Expect a few minutes of runtime: criteria 1-5 read one run of the checks
behind `cliffinv verify`, over 1000 seeded samples in each of the 21
signatures, all cross-checked against exact Gaussian elimination on the
2^n x 2^n regular matrices.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cliffinv import (
    LengthDeltaMap,
    LexError,
    Multivector,
    ParseError,
    Signature,
    blade_mul,
    blade_square_sign,
    compose_inverse,
    conjugation,
    conjugation_delta,
    default_chain,
    alternate_chain,
    delta_solutions,
    discriminant,
    discriminant_closed_form,
    grade,
    grade_involution,
    invariant_grades,
    inverse,
    oracle_inverse,
    oracle_is_invertible,
    parse_expression,
    psi,
    psi_delta,
    reversion,
    reversion_delta,
    tokenize,
)
from cliffinv.bench import run_bench
from cliffinv.parsing import parse
from cliffinv.verify import CheckResult, all_signatures, run_verification

SIGNATURES = all_signatures()
SAMPLES = 1000
BOUND = 10


def sample(sig: Signature, seed: int, bound: int = BOUND) -> Multivector:
    return Multivector.random(sig, seed, bound)


def test_signature_inventory():
    assert len(SIGNATURES) == 21


# ----------------------------------------------------------------------
# Criteria 1-5 read one run of the verify command's checks: chain inverse,
# matrix oracle, closed form and alternate chain on the same 1000 seeded
# samples per signature, each sample drawn and inverted once.
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def checks() -> dict[str, list[CheckResult]]:
    out: dict[str, list[CheckResult]] = {}
    for r in run_verification(SIGNATURES, SAMPLES, 0, BOUND):
        out.setdefault(r.name, []).append(r)
    for r in out["round-trip"]:
        print(f"surveyed {r.sig}: {r.invertible}/{r.samples} invertible")
    return out


def failing(results: list[CheckResult]) -> list[tuple[Signature, int]]:
    return [(r.sig, seed) for r in results for seed in r.failing_seeds]


def test_criterion_01_round_trip_inversion(checks):
    results = checks["round-trip"]
    failures = failing(results)
    total = sum(r.samples for r in results)
    assert total == 21 * SAMPLES
    assert not failures, f"round trip broke at (signature, seed): {failures[:5]}"
    print("PASS criterion 1: exact inversion round trip on 21x1000 samples")


def test_criterion_02_invertible_iff_nonzero_discriminant(checks):
    results = checks["oracle-equivalence"]
    assert [r.sig for r in results] == SIGNATURES
    mismatches = failing(results)
    assert not mismatches, f"discriminant/rank disagreement at: {mismatches[:5]}"
    # also covers the 1 + b zero divisors the check appends after its samples
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    # constructed zero divisors: 1 + b is singular whenever b*b = +1
    checked = 0
    for sig in SIGNATURES:
        for b in range(1, sig.dim):
            if blade_square_sign(b, sig) == 1:
                zd = Multivector(sig, {0: 1, b: 1})
                assert discriminant(zd) == 0, f"{zd} in {sig} should have D = 0"
                assert not oracle_is_invertible(zd), f"{zd} in {sig} should be singular"
                checked += 1
    assert checked > 50
    print(f"PASS criterion 2: D = 0 iff singular, incl. {checked} constructed zero divisors")


def test_criterion_03_inverse_matches_matrix_oracle(checks):
    mismatches = failing(checks["oracle-equivalence"])
    invertible = sum(r.invertible for r in checks["round-trip"])
    assert not mismatches, f"formula and oracle inverses differ at: {mismatches[:5]}"
    assert invertible > 20000  # random elements are almost never singular
    print(f"PASS criterion 3: formula inverse equals oracle inverse on {invertible} elements")


# ----------------------------------------------------------------------
# Criterion 4: closed-form discriminants
# ----------------------------------------------------------------------


def shrink_mismatch(a: Multivector) -> Multivector:
    """Greedily drop coefficients while the closed form still disagrees."""
    current = a
    changed = True
    while changed:
        changed = False
        for mask, _ in sorted(current.items()):
            trimmed = Multivector(
                current.sig, {m: c for m, c in current.items() if m != mask}
            )
            if discriminant_closed_form(trimmed) != discriminant(trimmed):
                current = trimmed
                changed = True
                break
    return current


def test_criterion_04_closed_form_discriminants(checks):
    rng = random.Random(401)
    # one and two generators: the quadratic forms, checked pointwise
    for sig in all_signatures(1, 1):
        s1 = sig.square(1)
        for _ in range(150):
            x, y = rng.randint(-50, 50), rng.randint(-50, 50)
            a = Multivector(sig, {0: x, 1: y})
            expected = x * x - y * y * s1
            assert discriminant_closed_form(a) == expected
            assert discriminant(a) == expected
    for sig in all_signatures(2, 2):
        s1, s2 = sig.square(1), sig.square(2)
        for _ in range(150):
            x, y, z, w = (rng.randint(-50, 50) for _ in range(4))
            a = Multivector(sig, {0: x, 1: y, 2: z, 3: w})
            expected = x * x - y * y * s1 - z * z * s2 + w * w * s1 * s2
            assert discriminant_closed_form(a) == expected
            assert discriminant(a) == expected
    # three and four generators: polynomial equals the chain scalar
    results = [r for r in checks["closed-form"] if r.sig.n in (3, 4)]
    assert [r.sig for r in results] == all_signatures(3, 4)
    assert all(r.samples == SAMPLES for r in results)
    for r in results:
        for seed in r.failing_seeds:
            small = shrink_mismatch(sample(r.sig, seed))
            pytest.fail(
                f"closed form disagrees with chain in {r.sig} at seed {seed}; "
                f"minimal counterexample: {small} "
                f"(closed={discriminant_closed_form(small)}, chain={discriminant(small)})"
            )
    print("PASS criterion 4: closed-form discriminants agree everywhere sampled")


def test_criterion_05_both_chains_give_one_scalar(checks):
    results = checks["chain-agreement"]
    assert [r.sig for r in results] == all_signatures(3, 4)
    assert all(r.samples == SAMPLES for r in results)
    for r in results:
        for seed in r.failing_seeds:
            a = sample(r.sig, seed)
            d = compose_inverse(a, default_chain(r.sig.n)).discriminant
            dprime = compose_inverse(a, alternate_chain(r.sig.n)).discriminant
            pytest.fail(f"chains split on {a} in {r.sig} (seed {seed}): {d} vs {dprime}")
    print("PASS criterion 5: default and alternate chains agree on 9x1000 samples")


# ----------------------------------------------------------------------
# Criterion 6: fixed subspaces of reversion and conjugation
# ----------------------------------------------------------------------


def test_criterion_06_fixed_grade_structure():
    for n in range(6):
        full = range(n + 1)
        assert invariant_grades(reversion_delta(n), full) == frozenset(
            k for k in full if k % 4 in (0, 1)
        )
        assert invariant_grades(conjugation_delta(n), full) == frozenset(
            k for k in full if k % 4 in (0, 3)
        )
    # element-level scan: every basis blade is fixed exactly when its grade
    # is in the predicted set
    for sig in SIGNATURES:
        n = sig.n
        for f, fixed in (
            (reversion_delta(n), invariant_grades(reversion_delta(n), range(n + 1))),
            (conjugation_delta(n), invariant_grades(conjugation_delta(n), range(n + 1))),
        ):
            for mask in range(sig.dim):
                b = Multivector.blade(sig, mask)
                assert (f(b) == b) == (grade(mask) in fixed)
    print("PASS criterion 6: fixed subspaces are the predicted grade sums")


# ----------------------------------------------------------------------
# Criterion 7: constraint solver vs blade-level brute force
# ----------------------------------------------------------------------


def antihom_on_blades(delta: tuple[int, ...], grades: frozenset[int], sig: Signature) -> bool:
    masks = [m for m in range(sig.dim) if grade(m) in grades]
    for a in masks:
        for b in masks:
            s_ab, m = blade_mul(a, b, sig)
            s_ba, _ = blade_mul(b, a, sig)
            if delta[grade(m)] * s_ab != delta[grade(a)] * delta[grade(b)] * s_ba:
                return False
    return True


def test_criterion_07_solver_matches_blade_brute_force():
    for n in range(6):
        check_sigs = all_signatures(n, n) if n <= 3 else [Signature(0, n)]
        candidates = [
            LengthDeltaMap((1,) + tuple(-1 if bits >> k & 1 else 1 for k in range(n)))
            for bits in range(1 << n)
        ]
        for rest in itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
        ):
            grade_set = frozenset({0, *rest})
            solved = set(f.delta for f in delta_solutions(grade_set, n))
            for sig in check_sigs:
                brute = set(
                    f.delta for f in candidates if antihom_on_blades(f.delta, grade_set, sig)
                )
                assert solved == brute, (
                    f"solver and brute force disagree for grades {sorted(grade_set)}, "
                    f"n={n}, {sig}"
                )
    # the worked conclusions, as named cases
    sols_01 = delta_solutions({0, 1}, 3)
    assert all(f.delta[2] == -1 for f in sols_01) and len(sols_01) == 4
    assert len(delta_solutions({0, 3}, 3)) == 8  # unconstrained
    sols_014 = delta_solutions({0, 1, 4}, 4)
    assert all(f.delta[2] == -1 and f.delta[3] == -f.delta[1] * f.delta[4] for f in sols_014)
    for f in delta_solutions({0, 1, 4, 5}, 5):
        d = f.delta
        assert d[2] == -1
        assert d[3] == -d[1] * d[4]
        assert d[5] == d[1] * d[4]
        assert d[4] == d[1] * d[5]
        assert d[1] == d[4] * d[5]
    print("PASS criterion 7: constraint solver equals blade brute force on all grade sets")


# ----------------------------------------------------------------------
# Criterion 8: closure, invertibility preservation, fixed inverses
# ----------------------------------------------------------------------

PROPERTY_SAMPLES = 500


def psi_domains(n: int) -> list[frozenset[int]]:
    """Grade sets on which psi reverses products, as used by the chains."""
    if n <= 2:
        return [frozenset(range(n + 1))]
    if n == 3:
        return [frozenset({0, 1}), frozenset({0, 3})]
    if n == 4:
        return [frozenset({0, 1, 4}), frozenset({0, 3, 4})]
    return [frozenset({0, 1, 4, 5})]


def restrict(a: Multivector, grades: frozenset[int]) -> Multivector:
    total = Multivector.zero(a.sig)
    for k in grades:
        total = total + a.grade_project(k)
    return total


def test_criterion_08_closure_and_invertibility_preservation():
    for sig in SIGNATURES:
        n = sig.n
        # closure for reversion and conjugation on the whole algebra
        for name, f in (("rev", reversion), ("conj", conjugation)):
            table = reversion_delta(n) if name == "rev" else conjugation_delta(n)
            fixed = invariant_grades(table, range(n + 1))
            for seed in range(PROPERTY_SAMPLES):
                a = sample(sig, seed)
                assert (a + f(a)).support_grades() <= fixed
                assert (a * f(a)).support_grades() <= fixed
        # closure for psi on each domain where it reverses products
        for domain in psi_domains(n):
            fixed = invariant_grades(psi_delta(n), domain)
            for seed in range(PROPERTY_SAMPLES):
                a = restrict(sample(sig, seed), domain)
                assert (a + psi(a)).support_grades() <= fixed
                assert (a * psi(a)).support_grades() <= fixed
    print("PASS criterion 8a: symmetrised elements land in the fixed grade set")

    for sig in SIGNATURES:
        # reversion and conjugation preserve invertibility (matrix rank)
        for seed in range(PROPERTY_SAMPLES):
            a = sample(sig, seed)
            inv_a = oracle_is_invertible(a)
            assert oracle_is_invertible(reversion(a)) == inv_a, f"rev broke rank on {a}"
            assert oracle_is_invertible(conjugation(a)) == inv_a, f"conj broke rank on {a}"
    print("PASS criterion 8b: reversion/conjugation preserve invertibility")

    for sig in SIGNATURES:
        # a fixed invertible element has a fixed inverse
        for f in (reversion, conjugation):
            for seed in range(PROPERTY_SAMPLES):
                a = sample(sig, seed)
                b = a * f(a)
                assert f(b) == b
                b_inv = oracle_inverse(b)
                if b_inv is not None:
                    assert f(b_inv) == b_inv, f"inverse of fixed {b} is not fixed"
    print("PASS criterion 8c: fixed invertible elements have fixed inverses")


# ----------------------------------------------------------------------
# Criterion 9: two-sided factorisations
# ----------------------------------------------------------------------


def test_criterion_09_two_sided_products():
    for sig in all_signatures(3, 3):
        for seed in range(PROPERTY_SAMPLES):
            a = sample(sig, seed)
            left = reversion(a) * grade_involution(a) * conjugation(a)
            right = conjugation(a) * grade_involution(a) * reversion(a)
            assert left == right, f"three-generator two-sided form broke on {a}"
    for sig in all_signatures(4, 4):
        for seed in range(PROPERTY_SAMPLES):
            a = sample(sig, seed)
            left = reversion(a) * psi(a * reversion(a))
            right = conjugation(a) * psi(a * conjugation(a))
            assert left == right, f"four-generator two-sided form broke on {a}"
    for sig in all_signatures(5, 5):
        for seed in range(PROPERTY_SAMPLES):
            a = sample(sig, seed)
            f1, f2, f3 = compose_inverse(a, default_chain(5)).factors
            assert f1 == reversion(a)
            assert f2 == psi(a * reversion(a))
            ga_ca = grade_involution(a) * conjugation(a)
            assert f3 == psi(ga_ca) * ga_ca, f"five-generator tail factor broke on {a}"
    print("PASS criterion 9: two-sided forms and the five-generator expansion hold")


# ----------------------------------------------------------------------
# Criterion 10: parser round trip and error offsets
# ----------------------------------------------------------------------


def test_criterion_10_parser_round_trip():
    rng = random.Random(1001)
    count = 0
    while count < 1000:
        sig = SIGNATURES[count % len(SIGNATURES)]
        m = Multivector.random(sig, rng.randrange(10**9), 9)
        if rng.random() < 0.3:
            m = m.scale(Fraction(1, rng.randint(2, 9)))
        assert parse_expression(str(m), sig) == m, f"round trip broke for {m} in {sig}"
        count += 1

    lex_cases = [("e21", 2), ("e11", 2), ("e6", 1), ("2 $ 3", 2), ("2 + e", 4)]
    for text, offset in lex_cases:
        with pytest.raises(LexError) as err:
            tokenize(text, 5)
        assert err.value.offset == offset, f"wrong offset for {text!r}"

    parse_cases = [("2+", 2), ("(1+e1", 5), ("2 e1", 2), ("3/0", 2), ("e1^-2", 3), ("*2", 0)]
    for text, offset in parse_cases:
        with pytest.raises(ParseError) as err:
            parse(tokenize(text, 5))
        assert err.value.offset == offset, f"wrong offset for {text!r}"
    print("PASS criterion 10: 1000 parser round trips and all error offsets")


# ----------------------------------------------------------------------
# Criterion 11: benchmark smoke (informational)
# ----------------------------------------------------------------------


def test_criterion_11_benchmark_smoke():
    report = run_bench(Signature(2, 3), samples=1000, seed=0, bound=10)
    names = {lane.name for lane in report.lanes}
    assert {"formula", "matrix"} <= names
    assert report.lane("formula").total_s > 0
    assert report.lane("matrix").total_s > 0
    print(
        "PASS criterion 11: bench on Cl(2,3) x1000 "
        f"(formula {report.lane('formula').mean_s * 1e3:.2f} ms/op, "
        f"matrix {report.lane('matrix').mean_s * 1e3:.2f} ms/op, "
        f"speedup {report.speedup:.1f}x)"
    )
