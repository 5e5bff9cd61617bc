"""Basis blades as bitmasks and their signed geometric product.

A blade is an integer bitmask over the generators e1..en: bit (i-1) is set
exactly when e_i appears in the blade.  The mask is read as the ascending
product e_{i1} e_{i2} ... e_{ik} with i1 < i2 < ... < ik, which is the single
canonical representative of that product; mask 0 is the unit 1.  Products of
blades are again (signed) blades: the result mask is the XOR of the operands
and the sign collects one factor -1 per transposition needed to interleave
the right operand past the left one, times the metric square of every
generator the operands share.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter
from typing import NamedTuple

MAX_GENERATORS = 5

# The digits of blade symbols, integer literals and JSON coefficient strings:
# ASCII only, since str.isdigit() also accepts superscripts and other scripts' digits.
DIGITS = "0123456789"

Blade = int


class _Frozen:
    """Base of the immutable value classes: __init__ fills __dict__, nothing writes it later.

    repr shows the `_fields`; == and hash compare their values (a tuple, or a lone field's value),
    which with its hash is cached in __dict__ on first use, as lru_cache hits compare them again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def _values(self) -> object:
        return attrgetter(*self._fields)(self)

    @cached_property
    def _hash(self) -> int:
        return hash(self._values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Signature(_Frozen):
    """Metric signature (p, q): generators 1..p square to -1, p+1..p+q to +1."""

    __match_args__ = _fields = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if p < 0 or q < 0:
            raise ValueError(f"signature counts must be nonnegative, got ({p}, {q})")
        if p + q > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators are supported, got p+q={p + q}")
        self.__dict__.update(p=p, q=q)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << (self.p + self.q)

    @property
    def neg_mask(self) -> int:
        """Bitmask of the generators that square to -1."""
        return (1 << self.p) - 1

    def square(self, i: int) -> int:
        """Square of generator e_i, 1-based: -1 for i <= p, +1 for p < i <= p+q."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} outside 1..{self.n}")
        return -1 if i <= self.p else 1

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


class SignedBlade(NamedTuple):
    sign: int  # +1 or -1
    blade: Blade


def grade(blade: Blade) -> int:
    """Number of generators in the blade (0 for the unit)."""
    return blade.bit_count()


def transposition_sign(a: Blade, b: Blade) -> int:
    """(-1)**t where t counts the generator swaps interleaving b past a.

    t is the sum, over each generator j present in b, of the number of
    generators in a strictly greater than j.
    """
    t = 0
    while b:
        low = b & -b
        t += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if t & 1 else 1


def blade_mul(a: Blade, b: Blade, sig: Signature) -> SignedBlade:
    """Signed geometric product of two blades under the given signature."""
    dim = sig.dim
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"blade mask outside the {sig} basis")
    s = transposition_sign(a, b)
    if ((a & b) & sig.neg_mask).bit_count() & 1:
        s = -s
    return SignedBlade(s, a ^ b)


def blade_square_sign(b: Blade, sig: Signature) -> int:
    """Scalar value of b*b: (-1)**(k(k-1)/2) times the shared metric squares."""
    return blade_mul(b, b, sig).sign


@lru_cache(maxsize=None)
def blade_order(n: int) -> tuple[Blade, ...]:
    """Blade masks for n generators sorted by (grade, mask)."""
    return tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))


def blade_to_text(blade: Blade) -> str:
    """Canonical text form: '1' for the unit, else 'e' + ascending indices."""
    if blade == 0:
        return "1"
    digits = [str(i + 1) for i in range(blade.bit_length()) if blade >> i & 1]
    return "e" + "".join(digits)


# Canonical text of every blade of up to MAX_GENERATORS generators, by mask.
BLADE_TEXT = tuple(blade_to_text(m) for m in range(1 << MAX_GENERATORS))


def blade_from_text(text: str, n: int) -> Blade:
    """Parse the canonical blade text form; inverse of blade_to_text."""
    if text == "1":
        return 0
    if not text.startswith("e") or len(text) < 2:
        raise ValueError(f"invalid blade symbol {text!r}")
    mask = 0
    prev = 0
    for ch in text[1:]:
        if ch not in DIGITS:
            raise ValueError(f"invalid blade symbol {text!r}")
        i = int(ch)
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n} in {text!r}")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly ascending in {text!r}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


@lru_cache(maxsize=None)
def product_signs(sig: Signature) -> list[int]:
    """Flat dim*dim table of blade product signs for a signature.

    Entry [a*dim + b] equals blade_mul(a, b, sig).sign; the result mask is
    always a ^ b.  Built once per signature and shared.

    The sign is one factor per generator e_k of b: moving e_k into a passes
    the generators of a above k, and squares it when a holds it.  Neither
    depends on b's other generators, so row a starts as [1] and doubles once
    per k, the upper half negated when that factor is -1.
    """
    n, neg = sig.n, sig.neg_mask
    table = []
    for a in range(sig.dim):
        row = [1]
        for k in range(n):
            flip = ((a >> (k + 1)).bit_count() + ((a & neg) >> k)) & 1
            row += [-s for s in row] if flip else row
        table += row
    return table
