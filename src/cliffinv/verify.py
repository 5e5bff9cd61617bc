"""On-demand revalidation of the library's core identities.

Backs the CLI `verify` command: every check draws seeded pseudorandom
elements, exercises one identity exactly (no tolerances anywhere), and
reports a failure count.  The checks mirror the heavy test suite at a
user-chosen sample size so the claims can be re-established on any machine
in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .blades import Signature, blade_square_sign, grade
from .inversion import (
    compose_inverse,
    default_chain,
    discriminant,
    discriminant_closed_form,
    verify_d_equals_dprime,
)
from .multivector import Multivector
from .oracle import oracle_inverse


@dataclass
class CheckResult:
    name: str
    sig: Signature
    samples: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def all_signatures(max_n: int = 5) -> list[Signature]:
    """Every signature with 0 <= p+q <= max_n, ordered by (n, p)."""
    return [Signature(p, n - p) for n in range(max_n + 1) for p in range(n + 1)]


def _samples(sig: Signature, count: int, seed: int, bound: int) -> Iterable[Multivector]:
    return (Multivector.random(sig, seed + i, bound) for i in range(count))


def check_round_trip(sig: Signature, samples: int, seed: int, bound: int) -> CheckResult:
    """a * inverse(a) == inverse(a) * a == 1 whenever the discriminant is nonzero."""
    one = Multivector.unit(sig)
    chain = default_chain(sig.n)
    failures = 0
    detail = ""
    for a in _samples(sig, samples, seed, bound):
        result = compose_inverse(a, chain)
        if result.inverse is None:
            continue
        if a * result.inverse != one or result.inverse * a != one:
            failures += 1
            if not detail:
                detail = f"round trip broke on {a}"
    return CheckResult("round-trip", sig, samples, failures, detail)


def check_oracle_equivalence(sig: Signature, samples: int, seed: int, bound: int) -> CheckResult:
    """Chain inverse and discriminant agree with the regular-matrix oracle.

    Also covers the zero-divisor direction with constructed 1 + b for each
    blade b squaring to +1.
    """
    chain = default_chain(sig.n)
    failures = 0
    detail = ""

    def examine(a: Multivector) -> None:
        nonlocal failures, detail
        result = compose_inverse(a, chain)
        via_oracle = oracle_inverse(a)
        ok = (
            (result.inverse is None) == (via_oracle is None)
            and (result.inverse is None or result.inverse == via_oracle)
        )
        if not ok:
            failures += 1
            if not detail:
                detail = f"oracle disagreed on {a}"

    for a in _samples(sig, samples, seed, bound):
        examine(a)
    for b in range(1, sig.dim):
        if blade_square_sign(b, sig) == 1:
            examine(Multivector(sig, {0: 1, b: 1}))
    return CheckResult("oracle-equivalence", sig, samples, failures, detail)


def check_closed_form(sig: Signature, samples: int, seed: int, bound: int) -> CheckResult:
    """Closed-form discriminant equals the chain scalar (1 <= n <= 4 only)."""
    failures = 0
    detail = ""
    for a in _samples(sig, samples, seed, bound):
        if discriminant_closed_form(a) != discriminant(a):
            failures += 1
            if not detail:
                detail = f"closed form disagreed on {a}"
    return CheckResult("closed-form", sig, samples, failures, detail)


def check_d_equals_dprime(sig: Signature, samples: int, seed: int, bound: int) -> CheckResult:
    """Default and alternate chains produce the same scalar (n = 3 or 4)."""
    failures = 0
    detail = ""
    for a in _samples(sig, samples, seed, bound):
        if not verify_d_equals_dprime(a):
            failures += 1
            if not detail:
                detail = f"chain scalars split on {a}"
    return CheckResult("chain-agreement", sig, samples, failures, detail)


def checks_for(sig: Signature) -> list[Callable[[Signature, int, int, int], CheckResult]]:
    out: list[Callable[[Signature, int, int, int], CheckResult]] = [
        check_round_trip,
        check_oracle_equivalence,
    ]
    if 1 <= sig.n <= 4:
        out.append(check_closed_form)
    if sig.n in (3, 4):
        out.append(check_d_equals_dprime)
    return out


def run_verification(
    signatures: Iterable[Signature], samples: int, seed: int, bound: int
) -> list[CheckResult]:
    """Run every applicable check on every signature; deterministic in seed."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    results = []
    for sig in signatures:
        for check in checks_for(sig):
            results.append(check(sig, samples, seed, bound))
    return results
