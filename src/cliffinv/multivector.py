"""Exact-rational multivectors over a fixed signature.

Stored as nonzero integer numerators by blade mask over one denominator
d > 0 sharing no factor with all of them (zero is {} over 1): a unique
form, so equality and hashing compare integers and no operation rounds.
A reduced `Fraction` per term is built only where coefficients are read
(`coeff`, `items`, `scalar_part`).  Instances are immutable values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, log2
from typing import Callable, Iterable, Iterator, Mapping, Union

from .blades import BLADE_TEXT, MAX_GENERATORS, Blade, Signature, blade_from_text, blade_order, product_signs
from .errors import GradeOutOfRange, SignatureMismatch

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)

# Budget, in bits, for a number the input asks to be computed rather than
# written out.  A power `^k` in an expression (`parsing.evaluate`) on a base
# whose numerators and denominators have at most b bits is refused, before
# it is computed, when k * (b + n) exceeds it: for integer coefficients that
# bounds every coefficient of the result (each of the k - 1 products sums
# 2^n products of entries, adding at most n bits to their sizes); with
# rational ones it is an estimate on the same scale.  10^5000 needs at most
# 5000 * (4 + 5) = 45000.  A JSON coefficient written with an exponent,
# "1e<e>", is refused when |e| * log2(10) exceeds it (`from_json_dict`).
MAX_POWER_BITS = 50_000

# The exponent of a decimal coefficient string, as `Fraction` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

# Rank of every blade of up to MAX_GENERATORS generators in (grade, mask)
# order, by mask: the order in which terms are printed.
_RANK = tuple(map(blade_order(MAX_GENERATORS).index, range(1 << MAX_GENERATORS)))


def _ratio_text(v: int, d: int) -> str:
    """v/d in lowest terms (d > 0), printed as `str(Fraction(v, d))` prints it."""
    g = gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


# A plan folds this many times through its rows before `_fold` compiles it.
_HOT = 128


class _Plan:
    """A bilinear map on coefficient lists indexed by mask, as integer rows.

    A row (i, ((j, m, w), ...)) adds w * x_i * y_j onto mask m for each
    listed j.  `_fold` counts the plan's uses and, on the `_HOT`-th, stores
    a compiled `kernel` that every later fold calls instead of the rows.
    """

    __slots__ = ("rows", "dim", "uses", "kernel")

    def __init__(self, rows: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...], dim: int) -> None:
        self.rows, self.dim, self.uses, self.kernel = rows, dim, 0, None


def _fold(plan: _Plan, x: list[int], y: list[int]) -> list[int]:
    """Run one plan on integer coefficient lists of length plan.dim.

    The one product kernel: `*` runs it on the full product plan
    (`_product_plan`), the inversion chain on each step's plan and on its
    assembly plan.  The first `_HOT` folds of a plan interpret its rows,
    skipping rows whose x_i is zero; from then on the plan's compiled
    kernel (`_compile`) computes the same list.
    """
    kernel = plan.kernel
    if kernel is not None:
        return kernel(x, y)
    acc = [0] * plan.dim
    for i, row in plan.rows:
        xi = x[i]
        if xi:
            for j, m, w in row:
                acc[m] += w * xi * y[j]
    plan.uses += 1
    if plan.uses == _HOT:
        plan.kernel = _compile(plan)
    return acc


# Plan entries per compiled function.  Compiling holds about 1 KB per entry
# until it returns, and that high-water mark stays in the process; a larger
# plan is compiled in parts, and its kernel joins their lists.
_PART = 256


def _compile(plan: _Plan) -> Callable[[list[int], list[int]], list[int]]:
    """A straight-line function of (x, y) that returns what folding the plan's rows returns.

    Each part unpacks both lists into locals and returns one sum of
    products per output mask of its run of masks, every plan entry
    included: a weight's sign becomes the term's sign and a magnitude above
    one its factor (`2*`).  The source is built from the plan's integers
    only, one term a line, which keeps the code's position table small.
    """
    sums: list[list[str]] = [[] for _ in range(plan.dim)]
    for i, row in plan.rows:
        for j, m, w in row:
            mag = abs(w)
            sums[m].append(f"{'-' if w < 0 else '+'} {'' if mag == 1 else f'{mag}*'}x{i}*y{j}")
    parts: list[list[str]] = [[]]
    size = 0
    for terms in sums:
        if parts[-1] and size + len(terms) > _PART:
            parts.append([])
            size = 0
        parts[-1].append("\n".join(terms).lstrip("+ ") or "0")
        size += len(terms)
    unpack = "".join(f"    {''.join(f'{v}{k}, ' for k in range(plan.dim))}= {v}\n" for v in "xy")
    namespace: dict = {}
    for k, part in enumerate(parts):
        exec(compile(f"def part{k}(x, y):\n{unpack}    return [{', '.join(part)}]\n", "<plan kernel>", "exec"), namespace)
    if len(parts) == 1:
        return namespace["part0"]
    joined = " + ".join(f"part{k}(x, y)" for k in range(len(parts)))
    exec(compile(f"def kernel(x, y):\n    return {joined}\n", "<plan kernel>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=None)
def _product_plan(sig: Signature) -> _Plan:
    """The plan of the geometric product: row i lists (j, i^j, s(i,j)) for every j."""
    signs = product_signs(sig)
    dim = sig.dim
    cols = range(dim)
    return _Plan(
        tuple((i, tuple(zip(cols, [i ^ j for j in cols], signs[i * dim : (i + 1) * dim]))) for i in cols), dim
    )


class Multivector:
    """An element of Cl(p,q) with exact rational coefficients."""

    __slots__ = ("sig", "_n", "_d")

    def __init__(self, sig: Signature, coeffs: Mapping[Blade, Scalar] = ()):
        self.sig = sig
        dim = sig.dim
        nums, dens = {}, {}
        for mask, value in dict(coeffs).items():
            if not 0 <= mask < dim:
                raise ValueError(f"blade mask {mask} outside the {sig} basis")
            if type(value) is not int:
                f = value if isinstance(value, Fraction) else Fraction(value)
                value = f.numerator
                if f.denominator != 1:
                    dens[mask] = f.denominator
            if value:
                nums[mask] = value
        # Over the lcm of reduced denominators the numerators share no factor with it.
        self._d = den = lcm(*dens.values()) if dens else 1
        self._n = {m: v * (den // dens.get(m, 1)) for m, v in nums.items()} if dens else nums

    @classmethod
    def _from_ints(cls, sig: Signature, nums: Iterable[tuple[Blade, int]], den: int) -> "Multivector":
        """Trusted constructor from (mask, integer numerator) pairs over one nonzero denominator.

        Drops zero numerators and divides all by one gcd, carrying den's
        sign, to reach the canonical form; no `Fraction` is built.
        """
        kept = {m: v for m, v in nums if v}
        g = gcd(den, *kept.values())
        if den < 0:
            g = -g
        if g != 1:
            kept = {m: v // g for m, v in kept.items()}
            den //= g
        mv = cls.__new__(cls)
        mv.sig, mv._n, mv._d = sig, kept, den
        return mv

    @classmethod
    def _term(cls, sig: Signature, mask: Blade, num: int, den: int) -> "Multivector":
        """Trusted constructor of num/den (den nonzero) on one blade: one gcd, no scan."""
        mv = cls.__new__(cls)
        if not num:
            mv.sig, mv._n, mv._d = sig, {}, 1
            return mv
        g = gcd(num, den)
        if den < 0:
            g = -g
        mv.sig, mv._n, mv._d = sig, {mask: num // g}, den // g
        return mv

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value: Scalar) -> "Multivector":
        return cls(sig, {0: value})

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
        import random  # here, so that the commands which draw no samples do not load it

        rng = random.Random(f"cl({sig.p},{sig.q})|{seed}|{coeff_bound}")
        coeffs = {m: rng.randint(-coeff_bound, coeff_bound) for m in range(sig.dim)}
        return cls(sig, coeffs)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def coeff(self, mask: Blade) -> Fraction:
        v = self._n.get(mask)
        return _ZERO if v is None else Fraction(v, self._d)

    def items(self) -> Iterator[tuple[Blade, Fraction]]:
        return ((m, Fraction(v, self._d)) for m, v in self._n.items())

    def __len__(self) -> int:
        return len(self._n)

    def __bool__(self) -> bool:
        return bool(self._n)

    def is_zero(self) -> bool:
        return not self._n

    def is_scalar(self) -> bool:
        """True iff every nonzero coefficient sits on the unit blade."""
        return not self._n or (len(self._n) == 1 and 0 in self._n)

    def scalar_part(self) -> Fraction:
        return self.coeff(0)

    def support_grades(self) -> frozenset[int]:
        """Set of grades carrying a nonzero coefficient."""
        return frozenset(m.bit_count() for m in self._n)

    def grade_project(self, k: int) -> "Multivector":
        """Keep exactly the grade-k part."""
        if not 0 <= k <= self.sig.n:
            raise GradeOutOfRange(f"grade {k} outside 0..{self.sig.n}")
        return Multivector._from_ints(self.sig, ((m, v) for m, v in self._n.items() if m.bit_count() == k), self._d)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _require_same_sig(self, other: "Multivector") -> None:
        if self.sig is not other.sig and self.sig != other.sig:
            raise SignatureMismatch(f"cannot combine {self.sig} and {other.sig} elements")

    def _combine(self, other: "Multivector", sign: int) -> "Multivector":
        """self + sign * other, sign being +1 or -1."""
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_sig(other)
        den = lcm(self._d, other._d)
        ka, kb = den // self._d, sign * (den // other._d)
        out = {m: v * ka for m, v in self._n.items()}
        for m, v in other._n.items():
            out[m] = out.get(m, 0) + v * kb
        return Multivector._from_ints(self.sig, out.items(), den)

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, 1)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, -1)

    def __neg__(self) -> "Multivector":
        return Multivector._from_ints(self.sig, ((m, -v) for m, v in self._n.items()), self._d)

    def __mul__(self, other: Union["Multivector", Scalar]) -> "Multivector":
        """Geometric product, or scaling by an int or Fraction.

        One term times one term, c*e_j times v*e_i, is the single term
        s(j,i)*c*v on mask j^i (`_term`).  Every other product, zero and
        one-term-by-many operands included, folds the dense numerator lists
        through the signature's product plan.  The denominators multiply.
        """
        if isinstance(other, Multivector):
            self._require_same_sig(other)
            sig = self.sig
            a, b = self._n, other._n
            den = self._d * other._d
            if len(a) == 1 and len(b) == 1:
                ((j, c),) = a.items()
                ((i, v),) = b.items()
                return Multivector._term(sig, j ^ i, product_signs(sig)[j * sig.dim + i] * c * v, den)
            x, _ = self._int_dense()
            y, _ = other._int_dense()
            return Multivector._from_ints(sig, enumerate(_fold(_product_plan(sig), x, y)), den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Scalar) -> "Multivector":
        f = Fraction(factor)
        num = f.numerator
        return Multivector._from_ints(self.sig, ((m, v * num) for m, v in self._n.items()), self._d * f.denominator)

    def _int_dense(self) -> tuple[list[int], int]:
        """Integer numerators indexed by mask, zeros included, plus their denominator."""
        dense = [0] * self.sig.dim
        for m, v in self._n.items():
            dense[m] = v
        return dense, self._d

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
        return self.sig == other.sig and self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self.sig, self._d, frozenset(self._n.items())))

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
        nums, d = self._n, self._d
        if not nums:
            return "0"
        parts: list[str] = []
        for m in sorted(nums, key=_RANK.__getitem__):
            v = nums[m]
            mag = _ratio_text(abs(v), d)
            if m == 0:
                body = mag
            elif mag == "1":
                body = BLADE_TEXT[m]
            else:
                body = f"{mag}*{BLADE_TEXT[m]}"
            if not parts:
                parts.append(f"-{body}" if v < 0 else body)
            else:
                parts.append(f" - {body}" if v < 0 else f" + {body}")
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """JSON form: {"p", "q", "coeffs": {blade text: rational string}}."""
        nums, d = self._n, self._d
        coeffs = {BLADE_TEXT[m]: _ratio_text(nums[m], d) for m in sorted(nums, key=_RANK.__getitem__)}
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
            text = str(value)
            if m := _EXPONENT.search(text):
                # Fraction would expand 10^|e| in full; refuse before it does.
                digits = m.group(1).lstrip("+-").replace("_", "").lstrip("0")
                if len(digits) > 6 or int(digits or "0") * log2(10) > MAX_POWER_BITS:
                    raise ValueError(f"coefficient of {key} too large: its exponent is over the {MAX_POWER_BITS}-bit budget")
            try:
                coeffs[mask] = Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"malformed multivector JSON: zero denominator in coefficient of {key}") from None
            except ValueError:
                # Not a rational literal, or a non-finite float: JSON's NaN, Infinity, or 1e999 read as inf.
                raise ValueError(f"malformed multivector JSON: coefficient of {key} is not a finite rational: {text!r}") from None
        return cls(sig, coeffs)
