"""Exact-rational multivectors over a fixed signature.

Coefficients are `fractions.Fraction` values; no operation ever rounds.
The coefficient map is sparse: blades with zero coefficient are never
stored, so structural equality of the maps is equality of the elements.
Instances are immutable values; every operation returns a new multivector.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

from .blades import Blade, Signature, blade_from_text, blade_order, blade_to_text, product_signs
from .errors import GradeOutOfRange, SignatureMismatch

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def int_product(a: Mapping[Blade, int], b: Mapping[Blade, int], sig: Signature) -> list[int]:
    """Geometric product of two integer coefficient maps under a signature.

    This is the kernel of `Multivector.__mul__`.  The inversion chain and
    the assembly of its inverse run on compiled integer plans instead
    (`inversion._fold`).  Returns the coefficient of every blade, indexed by
    mask, zeros included.
    """
    signs = product_signs(sig)
    dim = sig.dim
    acc = [0] * dim
    for ma, ca in a.items():
        row = ma * dim
        for mb, cb in b.items():
            if signs[row + mb] < 0:
                acc[ma ^ mb] -= ca * cb
            else:
                acc[ma ^ mb] += ca * cb
    return acc


class Multivector:
    """An element of Cl(p,q) with exact rational coefficients."""

    __slots__ = ("sig", "_c")

    def __init__(self, sig: Signature, coeffs: Mapping[Blade, Scalar] = ()):
        self.sig = sig
        clean: dict[Blade, Fraction] = {}
        dim = sig.dim
        for mask, value in dict(coeffs).items():
            if not 0 <= mask < dim:
                raise ValueError(f"blade mask {mask} outside the {sig} basis")
            f = value if isinstance(value, Fraction) else Fraction(value)
            if f:
                clean[mask] = f
        self._c = clean

    @classmethod
    def _make(cls, sig: Signature, clean: dict[Blade, Fraction]) -> "Multivector":
        """Trusted constructor: coefficients already validated, nonzero Fractions."""
        mv = cls.__new__(cls)
        mv.sig = sig
        mv._c = clean
        return mv

    @classmethod
    def _from_ints(cls, sig: Signature, nums: Iterable[tuple[Blade, int]], den: int) -> "Multivector":
        """Trusted constructor from (mask, integer numerator) pairs over one denominator."""
        if den == 1:
            return cls._make(sig, {m: Fraction(v) for m, v in nums if v})
        return cls._make(sig, {m: Fraction(v, den) for m, v in nums if v})

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls._make(sig, {})

    @classmethod
    def scalar(cls, sig: Signature, value: Scalar) -> "Multivector":
        f = Fraction(value)
        return cls._make(sig, {0: f} if f else {})

    @classmethod
    def unit(cls, sig: Signature) -> "Multivector":
        return cls.scalar(sig, 1)

    @classmethod
    def blade(cls, sig: Signature, mask: Blade, coeff: Scalar = 1) -> "Multivector":
        return cls(sig, {mask: coeff})

    @classmethod
    def random(cls, sig: Signature, seed: int, coeff_bound: int) -> "Multivector":
        """Deterministic pseudorandom element with integer coefficients.

        Each of the 2^n blade coefficients is drawn uniformly from
        [-coeff_bound, coeff_bound]; the same (sig, seed, coeff_bound)
        always yields the same element.
        """
        if coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        rng = random.Random(f"cl({sig.p},{sig.q})|{seed}|{coeff_bound}")
        coeffs = {m: rng.randint(-coeff_bound, coeff_bound) for m in range(sig.dim)}
        return cls(sig, coeffs)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def coeff(self, mask: Blade) -> Fraction:
        return self._c.get(mask, _ZERO)

    def items(self) -> Iterator[tuple[Blade, Fraction]]:
        return iter(self._c.items())

    def __len__(self) -> int:
        return len(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_scalar(self) -> bool:
        """True iff every nonzero coefficient sits on the unit blade."""
        return not self._c or (len(self._c) == 1 and 0 in self._c)

    def scalar_part(self) -> Fraction:
        return self._c.get(0, _ZERO)

    def support_grades(self) -> frozenset[int]:
        """Set of grades carrying a nonzero coefficient."""
        return frozenset(m.bit_count() for m in self._c)

    def grade_project(self, k: int) -> "Multivector":
        """Keep exactly the grade-k part."""
        if not 0 <= k <= self.sig.n:
            raise GradeOutOfRange(f"grade {k} outside 0..{self.sig.n}")
        return Multivector._make(
            self.sig, {m: c for m, c in self._c.items() if m.bit_count() == k}
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _require_same_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise SignatureMismatch(f"cannot combine {self.sig} and {other.sig} elements")

    def _combine(self, other: "Multivector", sign: int) -> "Multivector":
        """self + sign * other, sign being +1 or -1."""
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_sig(other)
        out = dict(self._c)
        for m, c in other._c.items():
            s = out.get(m, _ZERO) + c if sign > 0 else out.get(m, _ZERO) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Multivector._make(self.sig, out)

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, 1)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, -1)

    def __neg__(self) -> "Multivector":
        return Multivector._make(self.sig, {m: -c for m, c in self._c.items()})

    def __mul__(self, other: Union["Multivector", Scalar]) -> "Multivector":
        if isinstance(other, Multivector):
            self._require_same_sig(other)
            return self._geometric_product(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Scalar) -> "Multivector":
        f = Fraction(factor)
        if not f:
            return Multivector._make(self.sig, {})
        return Multivector._make(self.sig, {m: c * f for m, c in self._c.items()})

    def _int_coeffs(self) -> tuple[dict[Blade, int], int]:
        """Integer numerators plus the common denominator clearing them."""
        den = 1
        for c in self._c.values():
            d = c.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            return {m: c.numerator for m, c in self._c.items()}, 1
        return {m: c.numerator * (den // c.denominator) for m, c in self._c.items()}, den

    def _int_dense(self) -> tuple[list[int], int]:
        """Integer numerators indexed by mask, zeros included, plus their denominator."""
        nums, den = self._int_coeffs()
        dense = [0] * self.sig.dim
        for m, v in nums.items():
            dense[m] = v
        return dense, den

    def _geometric_product(self, other: "Multivector") -> "Multivector":
        # Clear denominators once, multiply in integers, normalise at the end.
        a, da = self._int_coeffs()
        b, db = other._int_coeffs()
        return Multivector._from_ints(self.sig, enumerate(int_product(a, b, self.sig)), da * db)

    def __pow__(self, exponent: int) -> "Multivector":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Multivector.unit(self.sig)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self._c.items())))

    # ------------------------------------------------------------------
    # Text and JSON forms
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Multivector({self.sig}, {self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form: terms sorted by (grade, mask).

        The unit blade prints as a bare rational; coefficients of magnitude
        one elide the '1*'.  Examples: '0', '2/3 - 1/3*e1', '-e12'.
        """
        if not self._c:
            return "0"
        parts: list[str] = []
        for m in blade_order(self.sig.n):
            c = self._c.get(m)
            if c is None:
                continue
            mag = -c if c < 0 else c
            if m == 0:
                body = str(mag)
            elif mag == 1:
                body = blade_to_text(m)
            else:
                body = f"{mag}*{blade_to_text(m)}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """JSON form: {"p", "q", "coeffs": {blade text: rational string}}."""
        coeffs = {
            blade_to_text(m): str(self._c[m]) for m in blade_order(self.sig.n) if m in self._c
        }
        return {"p": self.sig.p, "q": self.sig.q, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Multivector":
        try:
            p, q = data["p"], data["q"]
            raw = data.get("coeffs", {})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed multivector JSON: {exc}") from exc
        for name, count in (("p", p), ("q", q)):
            # type() rather than isinstance(): JSON true and false load as bools.
            if type(count) is not int or count < 0:
                raise ValueError(f"malformed multivector JSON: {name} must be a nonnegative integer, got {count!r}")
        if not isinstance(raw, Mapping):
            raise ValueError("malformed multivector JSON: coeffs must map blade symbols to rationals")
        sig = Signature(p, q)
        coeffs = {}
        for key, value in raw.items():
            mask = blade_from_text(key, sig.n)
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError(
                    f"malformed multivector JSON: coefficient of {key} must be a number or a rational string"
                )
            try:
                coeffs[mask] = Fraction(str(value))
            except ZeroDivisionError:
                raise ValueError(f"malformed multivector JSON: zero denominator in coefficient of {key}") from None
        return cls(sig, coeffs)
