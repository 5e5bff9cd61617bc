"""On-demand revalidation of the library's core identities.

Backs the CLI `verify` command and the acceptance battery: each seeded
pseudorandom element is drawn once and inverted once through the default
chain, and every identity that applies in its signature is checked exactly
on that result (no tolerances anywhere).  Each check reports a failure
count and the seeds of the failing samples, so any failure can be
reproduced from its (signature, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .blades import MAX_GENERATORS, Signature, blade_square_sign
from .inversion import (
    alternate_chain,
    chain_scalar,
    compose_inverse,
    default_chain,
    discriminant_closed_form,
)
from .multivector import Multivector
from .oracle import oracle_inverse


@dataclass
class CheckResult:
    name: str
    sig: Signature
    samples: int
    failures: int = 0
    detail: str = ""
    failing_seeds: list[int] = field(default_factory=list)
    invertible: int = 0  # round-trip: samples with a nonzero discriminant

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def fail(self, seed: int | None, detail: str) -> None:
        self.failures += 1
        if seed is not None:
            self.failing_seeds.append(seed)
        if not self.detail:
            self.detail = detail


def all_signatures(min_n: int = 0, max_n: int = MAX_GENERATORS) -> list[Signature]:
    """Every signature with min_n <= p+q <= max_n, ordered by (n, p)."""
    return [Signature(p, n - p) for n in range(min_n, max_n + 1) for p in range(n + 1)]


def _verify_signature(sig: Signature, samples: int, seed: int, bound: int) -> list[CheckResult]:
    """The checks that apply in sig, all run in one pass over its elements:
    the seeded samples, then the zero divisors 1 + b (seed None) for each
    blade b squaring to +1.

    round-trip: a * inverse(a) == inverse(a) * a == 1 when D != 0.
    oracle-equivalence: the chain inverse equals the oracle's, or both are
    none.
    closed-form (1 <= n <= 4): the closed-form polynomial equals D.
    chain-agreement (n = 3 or 4): the alternate chain's scalar equals D.
    """
    n = sig.n
    round_trip = CheckResult("round-trip", sig, samples)
    oracle = CheckResult("oracle-equivalence", sig, samples)
    closed = CheckResult("closed-form", sig, samples) if 1 <= n <= 4 else None
    chains = CheckResult("chain-agreement", sig, samples) if n in (3, 4) else None
    one = Multivector.unit(sig)
    chain = default_chain(n)
    alternate = alternate_chain(n) if chains is not None else None
    elements = [(s, Multivector.random(sig, s, bound)) for s in range(seed, seed + samples)]
    zero_divisors = (b for b in range(1, sig.dim) if blade_square_sign(b, sig) == 1)
    elements += [(None, Multivector(sig, {0: 1, b: 1})) for b in zero_divisors]
    for s, a in elements:
        result = compose_inverse(a, chain)
        inv = result.inverse
        if inv is not None:
            round_trip.invertible += 1
            if a * inv != one or inv * a != one:
                round_trip.fail(s, f"round trip broke on {a}")
        if inv != oracle_inverse(a):  # None only equals None
            oracle.fail(s, f"oracle disagreed on {a}")
        if closed is not None and discriminant_closed_form(a) != result.discriminant:
            closed.fail(s, f"closed form disagreed on {a}")
        if chains is not None and chain_scalar(a, alternate) != result.discriminant:
            chains.fail(s, f"chain scalars split on {a}")
    return [r for r in (round_trip, oracle, closed, chains) if r is not None]


def run_verification(
    signatures: Iterable[Signature], samples: int, seed: int, bound: int
) -> list[CheckResult]:
    """Run every applicable check on every signature; deterministic in seed.

    Sample i of a signature is Multivector.random(sig, seed + i, bound), and
    its seed is what `failing_seeds` reports.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return [r for sig in signatures for r in _verify_signature(sig, samples, seed, bound)]
