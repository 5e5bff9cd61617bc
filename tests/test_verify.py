"""The verify pass: one draw and one inversion per sample, every failing seed reported."""

from collections import Counter

import pytest

import cliffinv.verify as verify_mod
from cliffinv import InverseResult, Multivector, Signature, blade_square_sign, discriminant
from cliffinv.verify import all_signatures, run_verification


def zero_divisor_count(sig: Signature) -> int:
    return sum(blade_square_sign(b, sig) == 1 for b in range(1, sig.dim))


class TestAllSignatures:
    def test_ranges(self):
        assert len(all_signatures()) == 21
        assert all_signatures(0, 0) == [Signature(0, 0)]
        assert all_signatures(1) == all_signatures(1, 5)
        assert all_signatures(3, 3) == [Signature(p, 3 - p) for p in range(4)]


class TestSinglePass:
    def test_each_sample_is_drawn_and_inverted_once(self, monkeypatch):
        drawn, inverted = Counter(), Counter()
        real_random, real_compose = Multivector.random, verify_mod.compose_inverse

        def counting_random(sig, seed, bound):
            drawn[sig] += 1
            return real_random(sig, seed, bound)

        def counting_compose(a, chain):
            inverted[a.sig] += 1
            return real_compose(a, chain)

        monkeypatch.setattr(Multivector, "random", staticmethod(counting_random))
        monkeypatch.setattr(verify_mod, "compose_inverse", counting_compose)
        results = run_verification(all_signatures(), 3, 0, 10)
        assert all(r.passed for r in results)
        assert drawn == {sig: 3 for sig in all_signatures()}
        assert inverted == {sig: 3 + zero_divisor_count(sig) for sig in all_signatures()}

    def test_invertible_counts_nonzero_discriminants(self):
        sigs = [Signature(0, 1), Signature(1, 1), Signature(1, 2)]
        results = run_verification(sigs, 30, 0, 1)
        round_trips = [r for r in results if r.name == "round-trip"]
        assert [r.sig for r in round_trips] == sigs
        for r in round_trips:
            expected = sum(discriminant(Multivector.random(r.sig, s, 1)) != 0 for s in range(30))
            assert 0 < r.invertible == expected < 30


def _break_on(monkeypatch, bad, targets):
    """Patch each named verify_mod function to give its WRONG result on bad."""
    for target in targets:
        real, wrong = getattr(verify_mod, target), WRONG[target]
        monkeypatch.setattr(
            verify_mod,
            target,
            lambda a, *rest, real=real, wrong=wrong: (
                wrong(real, a, *rest) if a == bad else real(a, *rest)
            ),
        )


# Each function a check reads, and a wrong result for it.
WRONG = {
    "oracle_inverse": lambda real, a: Multivector.unit(a.sig),
    "chain_scalar": lambda real, a, chain: real(a, chain) + 1,
    "discriminant_closed_form": lambda real, a: real(a) + 1,
    "compose_inverse": lambda real, a, chain: InverseResult(
        real(a, chain).discriminant, Multivector.unit(a.sig), _a=a, _chain=chain
    ),
}

# (check, its failure wording, the functions to break so that only it fails)
DISAGREEMENTS = [
    ("oracle-equivalence", "oracle disagreed on", ["oracle_inverse"]),
    ("chain-agreement", "chain scalars split on", ["chain_scalar"]),
    ("closed-form", "closed form disagreed on", ["discriminant_closed_form"]),
]
# The chain and the oracle agree on a wrong inverse: only the round trip sees it.
ROUND_TRIP = ("round-trip", "round trip broke on", ["compose_inverse", "oracle_inverse"])


def assert_only_failure(results, name, failing_seeds, detail):
    assert [r.name for r in results] == [
        "round-trip", "oracle-equivalence", "closed-form", "chain-agreement"
    ]
    for r in results:
        expected = (1, failing_seeds, detail) if r.name == name else (0, [], "")
        assert (r.failures, r.failing_seeds, r.detail) == expected


class TestFaultInjection:
    @pytest.mark.parametrize(
        "name, wording, targets",
        DISAGREEMENTS + [ROUND_TRIP],
        ids=[case[0] for case in DISAGREEMENTS + [ROUND_TRIP]],
    )
    def test_exactly_the_broken_seed_is_reported(self, monkeypatch, name, wording, targets):
        sig, seed, bad_seed = Signature(1, 2), 100, 104
        bad = Multivector.random(sig, bad_seed, 10)
        _break_on(monkeypatch, bad, targets)
        results = run_verification([sig], 10, seed, 10)
        assert_only_failure(results, name, [bad_seed], f"{wording} {bad}")

    @pytest.mark.parametrize(
        "name, wording, targets", DISAGREEMENTS, ids=[case[0] for case in DISAGREEMENTS]
    )
    def test_zero_divisor_failure_has_no_seed(self, monkeypatch, name, wording, targets):
        # Cl(1,2) runs all four checks; e2 squares to +1, so 1 + e2 is a zero divisor.
        sig = Signature(1, 2)
        zd = Multivector(sig, {0: 1, 0b10: 1})
        assert discriminant(zd) == 0
        _break_on(monkeypatch, zd, targets)
        results = run_verification([sig], 5, 0, 10)
        assert_only_failure(results, name, [], f"{wording} {zd}")
