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
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .blades import BLADE_TEXT, DIGITS, MAX_GENERATORS, Blade, Signature, blade_from_text, blade_order, product_signs
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


def _fraction(value: Scalar) -> Fraction:
    """An exact coefficient as a Fraction: an int (a bool too) or a Fraction, and nothing else."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{type(value).__name__} {value!r} is not an exact coefficient; pass an int or a Fraction")
    return Fraction(value)


def _ratio_text(v: int, d: int) -> str:
    """v/d in lowest terms (d > 0), printed as `str(Fraction(v, d))` prints it."""
    g = gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


# A plan runs this many times on its tables before `_fold` compiles it.
_HOT = 128

# A table is a tuple of rows (i, ((j, w), ...)): folding coefficient lists
# x and y through it adds w * x_i * y_j onto mask i ^ j for each listed j.
_Table = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
# What a plan runs on besides x, and what a run returns: a product plan
# takes and returns lists, a chain plan takes a seed and returns (d, list or None).
_Seed = Union[list[int], int]
_Run = Union[list[int], tuple[int, Optional[list[int]]]]


class _Plan:
    """Integer tables run as one program: a product plan or a chain plan.

    A product plan (no `steps`) is one table, and running it on (x, y)
    returns x * y.  A chain plan runs on (x, seed): x folds with itself
    through each step table in turn, and the last list's unit entry is the
    numerator d of D.  When d and the seed are both nonzero, a running
    product starts as the seed on the unit and folds, factor table by
    factor table, with the list that entered the matching step; the run
    returns (d, product), else (d, None).  `_fold` counts the plan's runs
    and, on the `_HOT`-th, stores a compiled `kernel` that every later run
    calls instead of the tables.  `centre` is the signature when that
    kernel runs through the centre (`_split`): a signature's product plan
    and its default chain's plan where `_central` holds, else None.
    """

    __slots__ = ("factors", "steps", "dim", "centre", "uses", "kernel")

    def __init__(
        self,
        factors: tuple[_Table, ...],
        dim: int,
        steps: Optional[tuple[_Table, ...]] = None,
        centre: Optional[Signature] = None,
    ) -> None:
        self.factors, self.steps, self.dim, self.centre, self.uses, self.kernel = factors, steps, dim, centre, 0, None


def _rows(table: _Table, x: list[int], y: list[int]) -> list[int]:
    """Fold x and y through one table, skipping the rows whose x_i is zero."""
    acc = [0] * len(x)
    for i, row in table:
        xi = x[i]
        if xi:
            for j, w in row:
                acc[i ^ j] += w * xi * y[j]
    return acc


def _loop(plan: _Plan, x: list[int], y: _Seed) -> _Run:
    """A plan's cold tier: its tables folded row by row."""
    dim = plan.dim
    if plan.steps is None:
        (table,) = plan.factors
        return _rows(table, x, y)
    entering = []
    for table in plan.steps:
        entering.append(x)
        x = _rows(table, x, x)
    d = x[0]
    if not d or not y:
        return d, None
    product = [0] * dim
    product[0] = y
    for table, a in zip(plan.factors, entering):
        product = _rows(table, a, product)
    return d, product


def _fold(plan: _Plan, x: list[int], y: _Seed) -> _Run:
    """Run one plan: the library's one integer kernel, in two tiers.

    `*` runs the signature's product plan (`_product_plan`) on two
    coefficient lists; `compose_inverse` runs a chain plan
    (`inversion._plans`) on an element's numerators seeded with their
    denominator, and `chain_scalar` seeds it with 0, which asks for D
    alone.  The first `_HOT` runs of a plan interpret its tables (`_loop`);
    the `_HOT`-th also compiles it (`_compile`), and from then on the
    kernel computes the same values.
    """
    kernel = plan.kernel
    if kernel is not None:
        return kernel(x, y)
    plan.uses += 1
    if plan.uses == _HOT:
        plan.kernel = _compile(plan)
    return _loop(plan, x, y)


def _compile(plan: _Plan) -> Callable[[list[int], _Seed], _Run]:
    """The plan's kernel: a straight-line function generated from its tables.

    The generator (`codegen.compile_plan`) is imported on the first
    compile, so a process that compiles nothing, such as one `cliffinv inv`,
    does not pay for compiling its source.
    """
    from .codegen import compile_plan

    return compile_plan(plan)


@lru_cache(maxsize=None)
def _product_plan(sig: Signature) -> _Plan:
    """The plan of the geometric product: row i lists (j, s(i,j)) for every j, row i of the sign table."""
    signs = product_signs(sig)
    dim = sig.dim
    rows = tuple((i, tuple(enumerate(signs[i * dim : (i + 1) * dim]))) for i in range(dim))
    return _Plan((rows,), dim, centre=sig if _central(sig) else None)


def _central(sig: Signature) -> bool:
    """Whether sig has five generators and its pseudoscalar I = e12345, always central there, squares to +1."""
    return sig.n == 5 and product_signs(sig)[-1] == 1


@lru_cache(maxsize=None)
def _split(sig: Signature) -> tuple[Signature, tuple[tuple[int, int, int], ...]]:
    """Cl(p,q) as two copies of its even half, a four-generator algebra, where `_central` holds.

    With I central and I*I = +1, a = u + I*v (u, v even) maps to the pair
    (A, B) = (u + v, u - v), and that map is an isomorphism onto Cl+ x Cl+:
    products and inverses go componentwise, and D(a) = D(A) * D(B).  Cl+ is
    generated by E_i = e_i e5 (i = 1..4), which anticommute; taken squares
    -1 first they are the generators of the returned signature.  Row t is
    (S, s, tau): E_t = s * e_S for the even mask S, and tau = s * sign(I e_O)
    for the odd mask O = S ^ 31.  So A_t = s*x_S + tau*x_O and
    B_t = s*x_S - tau*x_O, and back, x_S = s*(A_t + B_t)/2 and
    x_O = tau*(A_t - B_t)/2.
    """
    signs = product_signs(sig)
    dim = sig.dim
    top = dim - 1
    gens = sorted((1 << i | 1 << (sig.n - 1) for i in range(sig.n - 1)), key=lambda g: signs[g * dim + g])
    negative = sum(signs[g * dim + g] < 0 for g in gens)
    rows = []
    for t in range(1 << len(gens)):
        mask, sign = 0, 1
        for k, g in enumerate(gens):
            if t >> k & 1:
                sign *= signs[mask * dim + g]
                mask ^= g
        rows.append((mask, sign, sign * signs[top * dim + (mask ^ top)]))
    return Signature(negative, len(gens) - negative), tuple(rows)


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
                f = value if isinstance(value, Fraction) else _fraction(value)
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
        f = _fraction(factor)
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
            if any(ch.isdecimal() and ch not in DIGITS for ch in text):
                # Fraction reads other scripts' digits too: '٣/٤' would be 3/4.
                raise ValueError(f"malformed multivector JSON: coefficient of {key} is not a finite rational: {text!r}")
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
