"""The verify pass: one draw and one inversion per sample, every failing seed reported."""

from collections import Counter

import pytest

import cliffinv.verify as verify_mod
from cliffinv import Multivector, Signature, blade_square_sign, discriminant
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


class TestFaultInjection:
    @pytest.mark.parametrize(
        "target, name, wording, wrong",
        [
            ("oracle_inverse", "oracle-equivalence", "oracle disagreed on",
             lambda real, a: Multivector.unit(a.sig)),
            ("chain_scalar", "chain-agreement", "chain scalars split on",
             lambda real, a, chain: real(a, chain) + 1),
            ("discriminant_closed_form", "closed-form", "closed form disagreed on",
             lambda real, a: real(a) + 1),
        ],
        ids=["oracle-equivalence", "chain-agreement", "closed-form"],
    )
    def test_exactly_the_broken_seed_is_reported(self, monkeypatch, target, name, wording, wrong):
        sig, seed, bad_seed = Signature(1, 2), 100, 104
        bad = Multivector.random(sig, bad_seed, 10)
        real = getattr(verify_mod, target)
        monkeypatch.setattr(
            verify_mod, target, lambda a, *rest: wrong(real, a, *rest) if a == bad else real(a, *rest)
        )
        results = run_verification([sig], 10, seed, 10)
        assert [r.name for r in results] == [
            "round-trip", "oracle-equivalence", "closed-form", "chain-agreement"
        ]
        for r in results:
            if r.name == name:
                assert (r.failures, r.failing_seeds) == (1, [bad_seed])
                assert r.detail == f"{wording} {bad}"
            else:
                assert (r.failures, r.failing_seeds, r.detail) == (0, [], "")

    def test_zero_divisor_failure_has_no_seed(self, monkeypatch):
        sig = Signature(0, 1)
        zd = Multivector(sig, {0: 1, 1: 1})
        real = verify_mod.oracle_inverse
        monkeypatch.setattr(
            verify_mod, "oracle_inverse", lambda a: Multivector.unit(sig) if a == zd else real(a)
        )
        oracle = run_verification([sig], 5, 0, 10)[1]
        assert oracle.name == "oracle-equivalence"
        assert (oracle.failures, oracle.failing_seeds) == (1, [])
        assert oracle.detail == f"oracle disagreed on {zd}"
