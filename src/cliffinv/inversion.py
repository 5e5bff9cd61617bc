"""Multivector inversion by chained involutions, plus closed-form discriminants.

The construction: pick a grade-sign map f that reverses products on the
current subspace, replace the running element a by a*f(a) (which f fixes,
on whatever grades the product reaches), and repeat until only the scalars
are reached.  The final scalar D is the discriminant: it vanishes exactly
when the original element has no inverse, and otherwise

    a**-1 = (1/D) * f1(a1) * f2(a2) * ... * fm(am).

One chain per dimension suffices, and for three and four generators a
second, independent chain produces the same scalar (`alternate_chain`,
checked with `chain_scalar`).

Each (signature, chain) pair is built once into an integer plan whose
building proves the chain closed (`_plans`).  Its first runs interpret the
plan's tables; once the pair is hot the whole chain, every step and the
assembly of the inverse, runs as one generated straight-line function that
returns D's numerator and the inverse's (`multivector._compile`).

For up to four generators the discriminant also has an explicit polynomial
in the coefficients (`discriminant_closed_form`), evaluated here exactly as
a cross-check against the chain scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .blades import MAX_GENERATORS, Signature, _Frozen, blade_to_text, product_signs
from .errors import DimensionMismatch, DimensionOutOfRange, NotInvertible, SubspaceViolation
from .involutions import (
    GradeSet,
    LengthDeltaMap,
    conjugation_delta,
    product_grades,
    psi_delta,
    reversion_delta,
)
from .multivector import Multivector, _fold, _Plan, _rows


class InvolutionChain(_Frozen):
    """An ordered list of grade-sign maps driving an element down to a scalar.

    domains[i] is the grade set the i-th map acts on: the whole algebra
    first, then the grades the previous step's a * f(a) can reach
    (`product_grades`).  Each map must reverse products on its domain, and
    the last step must reach only the scalars.
    """

    __match_args__ = ("n", "steps")
    _fields = ("n", "steps", "domains")
    n: int
    steps: tuple[LengthDeltaMap, ...]
    domains: tuple[GradeSet, ...]

    def __init__(self, n: int, steps: tuple[LengthDeltaMap, ...]) -> None:
        if not 0 <= n <= MAX_GENERATORS:
            raise DimensionOutOfRange(f"chains exist for 0..{MAX_GENERATORS} generators, got {n}")
        running: GradeSet = frozenset(range(n + 1))
        domains = []
        for step in steps:
            if step.n != n:
                raise DimensionMismatch(f"map covers grades 0..{step.n}, expected 0..{n}")
            reached = product_grades(step, running)
            if reached is None:
                raise ValueError(f"{step} does not reverse products on grades {sorted(running)}")
            domains.append(running)
            running = reached
        if running != frozenset({0}):
            raise ValueError(f"chain must end on the scalars, ended on grades {sorted(running)}")
        self.__dict__.update(n=n, steps=steps, domains=tuple(domains))


class InverseResult(_Frozen):
    """Outcome of a chain run: the scalar D, the factor list, and the inverse.

    The element times the ordered factor product equals D exactly; the
    inverse is present iff D is nonzero and is then (1/D) times that product.
    The factors are built on their first read, by re-running the chain on
    the element; until then the result holds only the element and the chain.
    Results compare and hash by (discriminant, factors, inverse).
    """

    __match_args__ = _fields = ("discriminant", "inverse")
    discriminant: Fraction
    inverse: Optional[Multivector]

    def __init__(
        self, discriminant: Fraction, inverse: Optional[Multivector], *, _a: Multivector, _chain: InvolutionChain
    ) -> None:
        self.__dict__.update(discriminant=discriminant, inverse=inverse, _a=_a, _chain=_chain)

    @cached_property
    def factors(self) -> tuple[Multivector, ...]:
        """f1(a1), ..., fm(am), each step's map applied to the element entering it."""
        a, chain = self._a, self._chain
        plan = _plans(a.sig, chain)
        cur, den = a._int_dense()
        factors: list[Multivector] = []
        for step, table in zip(chain.steps, plan.steps):
            factors.append(step(Multivector._from_ints(a.sig, enumerate(cur), den) if factors else a))
            cur = _rows(table, plan.dim, cur, cur)
            den *= den
        return tuple(factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InverseResult):
            return NotImplemented
        return (self.discriminant, self.inverse) == (other.discriminant, other.inverse) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.discriminant, self.factors, self.inverse))


@lru_cache(maxsize=None)
def default_chain(n: int) -> InvolutionChain:
    """The standard chain for each dimension.

    0: empty; 1-2: conjugation; 3: reversion then conjugation;
    4: reversion then psi; 5: reversion, psi, conjugation.
    """
    if n == 0:
        return InvolutionChain(0, ())
    if n in (1, 2):
        return InvolutionChain(n, (conjugation_delta(n),))
    if n == 3:
        return InvolutionChain(3, (reversion_delta(3), conjugation_delta(3)))
    if n == 4:
        return InvolutionChain(4, (reversion_delta(4), psi_delta(4)))
    if n == 5:
        return InvolutionChain(5, (reversion_delta(5), psi_delta(5), conjugation_delta(5)))
    raise DimensionOutOfRange(f"no chain for {n} generators")


@lru_cache(maxsize=None)
def alternate_chain(n: int) -> InvolutionChain:
    """The mirrored chain that exists for three and four generators."""
    if n == 3:
        return InvolutionChain(3, (conjugation_delta(3), reversion_delta(3)))
    if n == 4:
        return InvolutionChain(4, (conjugation_delta(4), psi_delta(4)))
    raise DimensionOutOfRange(f"no alternate chain for {n} generators")


@lru_cache(maxsize=None)
def _plans(sig: Signature, chain: InvolutionChain) -> _Plan:
    """Build a chain's plan, proving each step lands in the next domain.

    Step k folds a with itself: each pair i <= j of its domain blades
    combines to a_i a_j (e_i f(e_j) + e_j f(e_i)), weight s(i,i)*delta(i) on
    the unit when i = j, else s(i,j)*delta(j) + s(j,i)*delta(i) on e_(i^j);
    its row i lists the pairs (j, i^j, w) with w nonzero.  A step is closed
    exactly when every such pair lands inside the chain's next domain (the
    scalars, after the last step); a chain with a step that is not, or whose
    first domain leaves out grades an input may carry, raises
    SubspaceViolation, whatever the input.

    The factor tables compute P * f1(a1) * ... * fm(am), one table per
    factor.  Factor k carries only the blades j of step k's domain, and the
    running product P only the masks its earlier factors reach from the
    unit.  Row j of factor k lists (i, i^j, s(i,j)*delta_k(j)) for every
    such mask i, so folding a_k's numerators with P's gives the numerators
    of P * f_k(a_k).  Once hot, the plan runs as one compiled kernel for
    the whole chain (`multivector._compile`).
    """
    if chain.n != sig.n:
        raise DimensionMismatch(f"chain is for {chain.n} generators, element lives in {sig}")
    if chain.steps and chain.domains[0] != frozenset(range(sig.n + 1)):
        raise SubspaceViolation(f"chain's first domain {sorted(chain.domains[0])} is not the whole algebra")
    signs = product_signs(sig)
    dim = sig.dim
    steps, factors = [], []
    support = [0]
    targets = chain.domains[1:] + (frozenset({0}),)
    for k, (step, domain, target) in enumerate(zip(chain.steps, chain.domains, targets), start=1):
        delta = [step.delta[m.bit_count()] for m in range(dim)]
        blades = tuple(m for m in range(dim) if m.bit_count() in domain)
        rows = []
        for x, i in enumerate(blades):
            row = []
            for j in blades[x:]:
                if i == j:
                    w = signs[i * dim + i] * delta[i]
                else:
                    w = signs[i * dim + j] * delta[j] + signs[j * dim + i] * delta[i]
                if not w:
                    continue
                m = i ^ j
                if m.bit_count() not in target:
                    raise SubspaceViolation(
                        f"chain step {k} sends {blade_to_text(i)}, {blade_to_text(j)} to grade "
                        f"{m.bit_count()}, outside the next domain {sorted(target)}"
                    )
                row.append((j, m, w))
            if row:
                rows.append((i, tuple(row)))
        steps.append(tuple(rows))
        factors.append(tuple((j, tuple((i, i ^ j, signs[i * dim + j] * delta[j]) for i in support)) for j in blades))
        support = sorted({i ^ j for i in support for j in blades})
    return _Plan(tuple(factors), dim, steps=tuple(steps))


def compose_inverse(a: Multivector, chain: InvolutionChain) -> InverseResult:
    """Run the chain on a, returning the discriminant, factors, and inverse.

    The inverse is assembled on the chain's integer numerators; the factors
    are built only when the result's `factors` is first read.  Raises
    SubspaceViolation if the chain can leave the grade sets it promises,
    which indicates a broken chain rather than a property of the input.
    """
    x, den = a._int_dense()
    # a = N / den.  Step k's numerators sit over den**(2**(k-1)), so D's
    # numerator d_num sits over den**(2**m), and the product of the factors
    # over den**(2**m - 1).  a**-1 = (1/D) * f1 * ... * fm is then
    # den * (factor numerators) / d_num: the assembly is seeded with den.
    d_num, product = _fold(_plans(a.sig, chain), x, den)
    d = Fraction(d_num, den ** (1 << len(chain.steps)))
    if product is None:
        return InverseResult(d, None, _a=a, _chain=chain)
    return InverseResult(d, Multivector._from_ints(a.sig, enumerate(product), d_num), _a=a, _chain=chain)


def chain_scalar(a: Multivector, chain: InvolutionChain) -> Fraction:
    """The chain's final scalar D, without building factors or the inverse."""
    x, den = a._int_dense()
    d_num, _ = _fold(_plans(a.sig, chain), x, 0)
    return Fraction(d_num, den ** (1 << len(chain.steps)))


def discriminant(a: Multivector) -> Fraction:
    """The chain scalar; defined for every element, zero iff not invertible."""
    return chain_scalar(a, default_chain(a.sig.n))


def inverse(a: Multivector) -> Multivector:
    """Exact inverse via the default chain; raises NotInvertible when D = 0."""
    result = compose_inverse(a, default_chain(a.sig.n))
    if result.inverse is None:
        raise NotInvertible("discriminant is zero")
    return result.inverse


# ----------------------------------------------------------------------
# Closed-form discriminants for one to four generators
# ----------------------------------------------------------------------
#
# Index convention: a coefficient subscripted by a product of two blades
# reads the coefficient of the canonical blade of that product with the
# reordering sign dropped, i.e. the blade at mask_a XOR mask_b.  Squares of
# single blades are their scalar squares in the algebra.


def discriminant_closed_form(a: Multivector) -> Fraction:
    """Evaluate the explicit discriminant polynomial on a's coefficients.

    Available for 1..4 generators; agrees with the chain scalar
    `discriminant` everywhere (this identity is aggressively tested).  The
    polynomial is homogeneous, of degree 2 for one and two generators and
    4 for three and four, so it runs on the integer numerators N = den * a
    and the result is divided by den**degree once.
    """
    n = a.sig.n
    if not 1 <= n <= 4:
        raise DimensionOutOfRange(f"closed form exists for 1..4 generators, got {n}")
    x, den = a._int_dense()
    form, degree = _CLOSED_FORMS[n]
    return Fraction(form(x, a.sig), den**degree)


def _metric_product(sig: Signature, mask: int) -> int:
    """Product of the signature squares of the generators in the mask."""
    return -1 if (mask & sig.neg_mask).bit_count() & 1 else 1


def _closed_form_1(x: list[int], sig: Signature) -> int:
    return x[0] ** 2 - x[1] ** 2 * sig.square(1)


def _closed_form_2(x: list[int], sig: Signature) -> int:
    sq = sig.square
    return (
        x[0b00] ** 2
        - x[0b01] ** 2 * sq(1)
        - x[0b10] ** 2 * sq(2)
        + x[0b11] ** 2 * sq(1) * sq(2)
    )


def _diagonal_sums(x: list[int], sig: Signature, plus: set[int]) -> int:
    """Sum over blades e of +-e^2 * (sum over all blades b of x_b^2 * x_{b XOR e}^2), + for e in plus.

    e^2 is read from the sign table; the squares x_b^2 are taken once.
    """
    dim = sig.dim
    signs = product_signs(sig)
    sq = [v * v for v in x]
    total = 0
    for e in range(dim):
        square = signs[e * dim + e]
        total += sum(sq[b] * sq[b ^ e] for b in range(dim)) * (square if e in plus else -square)
    return total


def _closed_form_3(x: list[int], sig: Signature) -> int:
    total = _diagonal_sums(x, sig, {0b000, 0b111})
    cross = x[0b000] * x[0b111] - x[0b001] * x[0b110] + x[0b010] * x[0b101] - x[0b100] * x[0b011]
    total += 4 * cross**2 * _metric_product(sig, 0b111)
    return total


def _pair_square_term(x: list[int], sig: Signature, i: int, j: int, k: int, l: int) -> int:
    """The 4*(t1^2 + t2^2)*e_i^2 e_j^2 e_k^2 building block of the 4-generator form."""
    mi, mj, mk, ml = 1 << (i - 1), 1 << (j - 1), 1 << (k - 1), 1 << (l - 1)
    t1 = x[0] * x[mi | mj | mk] - x[mi] * x[mj | mk] - x[mj] * x[mi | mk] + x[mk] * x[mi | mj]
    t2 = (
        x[ml] * x[0b1111]
        - x[mi | ml] * x[mj | mk | ml]
        - x[mj | ml] * x[mi | mk | ml]
        + x[mk | ml] * x[mi | mj | ml]
    )
    return 4 * (t1**2 + t2**2) * (sig.square(i) * sig.square(j) * sig.square(k))


def _closed_form_4(x: list[int], sig: Signature) -> int:
    total = _diagonal_sums(x, sig, {0b0000, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111})
    total += (
        _pair_square_term(x, sig, 1, 3, 2, 4)
        + _pair_square_term(x, sig, 1, 4, 2, 3)
        + _pair_square_term(x, sig, 1, 4, 3, 2)
        + _pair_square_term(x, sig, 2, 4, 3, 1)
    )
    cross_even = (
        x[0b0000] * x[0b1111] - x[0b0011] * x[0b1100] + x[0b0101] * x[0b1010] - x[0b1001] * x[0b0110]
    )
    cross_odd = (
        x[0b0001] * x[0b1110] - x[0b0010] * x[0b1101] + x[0b0100] * x[0b1011] - x[0b1000] * x[0b0111]
    )
    total -= 4 * (cross_even**2 + cross_odd**2) * _metric_product(sig, 0b1111)
    return total


# Each closed form with its degree, which is also the power of the cleared
# denominator it carries.
_CLOSED_FORMS = {
    1: (_closed_form_1, 2),
    2: (_closed_form_2, 2),
    3: (_closed_form_3, 4),
    4: (_closed_form_4, 4),
}
