"""Shared helpers: the naive product rewriter and a reference product.

The rewriter is the independent oracle for the blade product: it works on
explicit generator-index lists with single-step adjacent swaps and
annihilations, sharing no code with the bitmask implementation.  The
reference product multiplies multivectors term by term through
`blade_mul`, sharing no code with the integer plan loop behind `*`.
"""

from __future__ import annotations

from fractions import Fraction

from cliffinv import Multivector, Signature, blade_mul


def naive_rewrite(word: list[int], sig: Signature) -> tuple[int, int]:
    """Reduce a generator word to (sign, canonical mask) one swap at a time.

    Repeatedly cancels the first adjacent equal pair (collecting the metric
    square) or swaps the first adjacent descending pair (collecting -1)
    until the word is strictly ascending.
    """
    sign = 1
    w = list(word)
    while True:
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                sign *= sig.square(w[i])
                del w[i : i + 2]
                break
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                sign = -sign
                break
        else:
            mask = 0
            for g in w:
                mask |= 1 << (g - 1)
            return sign, mask


def fold_blade_mul(word: list[int], sig: Signature) -> tuple[int, int]:
    """Multiply the generators of a word left to right through blade_mul."""
    sign, mask = 1, 0
    for g in word:
        s, mask = blade_mul(mask, 1 << (g - 1), sig)
        sign *= s
    return sign, mask


def reference_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product of a and b, one blade_mul per pair of terms, on Fractions."""
    out: dict[int, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            sign, mask = blade_mul(ma, mb, a.sig)
            out[mask] = out.get(mask, 0) + sign * ca * cb
    return Multivector(a.sig, out)
