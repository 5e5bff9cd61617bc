"""Seeded input generators for the benchmark workloads.

Everything here is plain data built from `random.Random`: signatures as
(p, q) pairs, coefficient maps from blade masks to `Fraction`s, and
expression strings.  No library code runs, so the library under test
receives only the generated elements or strings.  The same (workload, seed)
always gives the same inputs; a different seed gives the same shape (the
same signature cycle, term-count distribution and zero-divisor share).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

ALL_SIGNATURES = [(p, n - p) for n in range(6) for p in range(n + 1)]
N5_SIGNATURES = [(p, 5 - p) for p in range(6)]
NONSCALAR_SIGNATURES = [sig for sig in ALL_SIGNATURES if sum(sig) >= 1]

COEFF_BOUND = 10
MAX_TERMS = 4
ZERO_DIVISOR_EVERY = 8  # every 8th verify-all input is a constructed 1 + b


@dataclass(frozen=True)
class Item:
    """One workload input: the element's signature and exact coefficients.

    `text` is the expression handed to the parser (sparse-text, cli-inv);
    `json` selects `--json` output for cli-inv; `zero_divisor` marks a
    constructed 1 + b with b*b = +1.
    """

    p: int
    q: int
    coeffs: dict
    text: Optional[str] = None
    json: bool = False
    zero_divisor: bool = False

    @property
    def n(self) -> int:
        return self.p + self.q


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench|{workload}|{seed}")


def blade_text(mask: int) -> str:
    """'e' followed by the ascending generator indices of a nonzero mask."""
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def blade_square(mask: int, p: int) -> int:
    """Scalar square of a blade in Cl(p, q): generators 1..p square to -1."""
    k = mask.bit_count()
    sign = -1 if (k * (k - 1) // 2) & 1 else 1
    if (mask & ((1 << p) - 1)).bit_count() & 1:
        sign = -sign
    return sign


def _dense(rng: random.Random, p: int, q: int) -> Item:
    dim = 1 << (p + q)
    coeffs = {m: Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND)) for m in range(dim)}
    return Item(p, q, {m: c for m, c in coeffs.items() if c})


def _term(coeff: Fraction, mask: int, first: bool) -> str:
    mag = abs(coeff)
    if mask == 0:
        body = str(mag)
    elif mag == 1:
        body = blade_text(mask)
    else:
        body = f"{mag}*{blade_text(mask)}"
    if first:
        return f"-{body}" if coeff < 0 else body
    return f" - {body}" if coeff < 0 else f" + {body}"


def _sparse(rng: random.Random, p: int, q: int, terms: int) -> Item:
    """Up to `terms` distinct blades in random order with small rational coefficients."""
    dim = 1 << (p + q)
    count = min(terms, dim)
    masks = rng.sample(range(dim), count)
    coeffs = {}
    parts = []
    for i, m in enumerate(masks):
        c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4))) * rng.choice((1, -1))
        coeffs[m] = c
        parts.append(_term(c, m, i == 0))
    return Item(p, q, coeffs, text="".join(parts))


def dense_n5(seed: int, size: int = 240) -> list[Item]:
    """Dense n=5 elements, all 32 coefficients in [-10, 10], cycling the six signatures."""
    rng = _rng("dense-n5", seed)
    return [_dense(rng, *N5_SIGNATURES[i % len(N5_SIGNATURES)]) for i in range(size)]


def _sparse_items(rng: random.Random, size: int) -> list[Item]:
    """Cycle the n >= 1 signatures; the term count (1-4, capped at 2^n) also
    cycles, offset by one per round, so each signature sees every count."""
    sigs = NONSCALAR_SIGNATURES
    return [
        _sparse(rng, *sigs[i % len(sigs)], 1 + (i + i // len(sigs)) % MAX_TERMS)
        for i in range(size)
    ]


def sparse_text(seed: int, size: int = 400) -> list[Item]:
    """Short rational expressions over every signature with n >= 1."""
    return _sparse_items(_rng("sparse-text", seed), size)


def zero_divisor_signatures() -> list[tuple[int, int]]:
    """Signatures holding a nonscalar blade that squares to +1."""
    return [
        (p, q) for p, q in ALL_SIGNATURES
        if any(blade_square(b, p) == 1 for b in range(1, 1 << (p + q)))
    ]


VERIFY_BATCH = len(ALL_SIGNATURES) * ZERO_DIVISOR_EVERY // (ZERO_DIVISOR_EVERY - 1)  # 24


def verify_all(seed: int, size: int = 12 * VERIFY_BATCH) -> list[Item]:
    """Dense random elements over all 21 signatures plus constructed zero divisors.

    Position i with i % 8 == 7 holds 1 + b for a random blade b with b*b = +1;
    every other position holds the next signature's dense random element, so
    each run of 24 positions holds every signature once and three zero divisors.
    """
    rng = _rng("verify-all", seed)
    zd_sigs = zero_divisor_signatures()
    items = []
    dense_count = zd_count = 0
    for i in range(size):
        if i % ZERO_DIVISOR_EVERY == ZERO_DIVISOR_EVERY - 1:
            p, q = zd_sigs[zd_count % len(zd_sigs)]
            zd_count += 1
            blades = [b for b in range(1, 1 << (p + q)) if blade_square(b, p) == 1]
            b = rng.choice(blades)
            items.append(Item(p, q, {0: Fraction(1), b: Fraction(1)}, zero_divisor=True))
        else:
            items.append(_dense(rng, *ALL_SIGNATURES[dense_count % len(ALL_SIGNATURES)]))
            dense_count += 1
    return items


def cli_inv(seed: int, size: int = 20) -> list[Item]:
    """Sparse-text expressions, one per signature with n >= 1; odd ones use --json."""
    items = _sparse_items(_rng("cli-inv", seed), size)
    return [Item(it.p, it.q, it.coeffs, text=it.text, json=i % 2 == 1) for i, it in enumerate(items)]


def closed_form_reference(seed: int, size: int = 40) -> list[Item]:
    """Dense elements over the 1..4-generator signatures, for workloads with none."""
    rng = _rng("closed-form-reference", seed)
    sigs = [sig for sig in ALL_SIGNATURES if 1 <= sum(sig) <= 4]
    return [_dense(rng, *sigs[i % len(sigs)]) for i in range(size)]


GENERATORS = {
    "dense-n5": dense_n5,
    "sparse-text": sparse_text,
    "verify-all": verify_all,
    "cli-inv": cli_inv,
}
