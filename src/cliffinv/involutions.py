"""Grade-sign involutions and the constraint solver that classifies them.

A length map multiplies every grade-k coefficient by a fixed sign delta[k],
with delta[0] = +1 so scalars are always fixed.  Reversion, Clifford
conjugation, the grade involution and the psi map (which negates grades 1
through 4) are all of this shape.

Such a map acts as an anti-automorphism on a direct sum of grade subspaces
S = (+)_{k in I} L_k exactly when its sign table satisfies

    delta(k + l - 2s) = delta(k) * delta(l) * (-1)**(k*l - s)

for all k, l in I and every feasible overlap s between a grade-k and a
grade-l blade.  `constraints_for` enumerates those equations and
`product_grades` checks a table against them, returning the grades a * f(a)
reaches; `delta_solutions` keeps the 2^n candidate tables it accepts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .blades import MAX_GENERATORS, _Frozen
from .errors import DimensionMismatch
from .multivector import Multivector

GradeSet = frozenset[int]


class LengthDeltaMap(_Frozen):
    """A grade-diagonal sign map: blades of grade k are scaled by delta[k]."""

    _fields = ("delta",)
    delta: tuple[int, ...]

    def __init__(self, delta: Sequence[int]):
        table = tuple(delta)
        if not table or any(d not in (1, -1) for d in table):
            raise ValueError("delta table entries must be +1 or -1")
        if table[0] != 1:
            raise ValueError("delta[0] must be +1 (scalars are always fixed)")
        if len(table) > MAX_GENERATORS + 1:
            raise ValueError(f"delta tables cover grades 0..{MAX_GENERATORS} at most")
        self.__dict__["delta"] = table

    @property
    def n(self) -> int:
        return len(self.delta) - 1

    def __call__(self, a: Multivector) -> Multivector:
        return apply_delta(self, a)

    def __repr__(self) -> str:
        return f"LengthDeltaMap({list(self.delta)})"

    def to_json_list(self) -> list[int]:
        return list(self.delta)


def apply_delta(f: LengthDeltaMap, a: Multivector) -> Multivector:
    """Multiply each grade-k coefficient of a by f.delta[k]."""
    if a.sig.n != f.n:
        raise DimensionMismatch(f"map covers grades 0..{f.n} but element lives in {a.sig}")
    delta = f.delta
    out = ((m, v if delta[m.bit_count()] > 0 else -v) for m, v in a._n.items())
    return Multivector._from_ints(a.sig, out, a._d)


# ----------------------------------------------------------------------
# The four named maps
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def reversion_delta(n: int) -> LengthDeltaMap:
    """Reversion: grade k picks up (-1)**(k(k-1)/2), i.e. -1 for k = 2,3 mod 4."""
    return LengthDeltaMap([1 if k % 4 in (0, 1) else -1 for k in range(n + 1)])


@lru_cache(maxsize=None)
def conjugation_delta(n: int) -> LengthDeltaMap:
    """Clifford conjugation: (-1)**(k(k+1)/2), i.e. -1 for k = 1,2 mod 4."""
    return LengthDeltaMap([1 if k % 4 in (0, 3) else -1 for k in range(n + 1)])


@lru_cache(maxsize=None)
def grade_involution_delta(n: int) -> LengthDeltaMap:
    """Grade involution (reversion composed with conjugation): (-1)**k."""
    return LengthDeltaMap([1 if k % 2 == 0 else -1 for k in range(n + 1)])


@lru_cache(maxsize=None)
def psi_delta(n: int) -> LengthDeltaMap:
    """The psi map: -1 on grades 1..4, +1 elsewhere."""
    return LengthDeltaMap([-1 if 1 <= k <= 4 else 1 for k in range(n + 1)])


def reversion(a: Multivector) -> Multivector:
    return apply_delta(reversion_delta(a.sig.n), a)


def conjugation(a: Multivector) -> Multivector:
    return apply_delta(conjugation_delta(a.sig.n), a)


def grade_involution(a: Multivector) -> Multivector:
    return apply_delta(grade_involution_delta(a.sig.n), a)


def psi(a: Multivector) -> Multivector:
    return apply_delta(psi_delta(a.sig.n), a)


NAMED_DELTAS = {
    "rev": reversion_delta,
    "conj": conjugation_delta,
    "main": grade_involution_delta,
    "psi": psi_delta,
}


def named_map_matches(f: LengthDeltaMap) -> list[str]:
    """Names among rev/conj/main/psi whose table equals f's."""
    return [name for name, ctor in NAMED_DELTAS.items() if ctor(f.n) == f]


# ----------------------------------------------------------------------
# Anti-automorphism constraints on grade sets
# ----------------------------------------------------------------------


class DeltaConstraint(NamedTuple):
    """One instance of delta(k+l-2s) = delta(k)*delta(l)*(-1)**(k*l-s)."""

    k: int
    l: int
    s: int

    @property
    def target(self) -> int:
        return self.k + self.l - 2 * self.s

    @property
    def rhs_sign(self) -> int:
        return -1 if (self.k * self.l - self.s) & 1 else 1

    def satisfied_by(self, delta: Sequence[int]) -> bool:
        return delta[self.target] == delta[self.k] * delta[self.l] * self.rhs_sign


def constraints_for(grades: Iterable[int], n: int) -> list[DeltaConstraint]:
    """All constraints a length map must satisfy to be an anti-automorphism
    of the direct sum of the given grade subspaces inside an n-generator
    algebra, in ascending (k, l, s) order."""
    gs = sorted(set(grades))
    if gs and (gs[0] < 0 or gs[-1] > n):
        raise ValueError(f"grades {gs} outside 0..{n}")
    out = []
    for k in gs:
        for l in gs:
            for s in range(max(0, k + l - n), min(k, l) + 1):
                out.append(DeltaConstraint(k, l, s))
    return out


def product_grades(f: LengthDeltaMap, grades: Iterable[int]) -> Optional[GradeSet]:
    """Grades a * f(a) reaches for a in the direct sum of the given grades:
    the targets k + l - 2s that f fixes, as f(a * f(a)) = a * f(a) when f
    reverses products there.  None when f does not."""
    delta = f.delta
    out = set()
    for c in constraints_for(grades, f.n):
        if not c.satisfied_by(delta):
            return None
        if delta[c.target] == 1:
            out.add(c.target)
    return frozenset(out)


def is_special_involution(f: LengthDeltaMap, grades: Iterable[int], n: int) -> bool:
    """True iff f reverses products on the direct sum of the given grades."""
    if f.n != n:
        raise DimensionMismatch(f"map covers grades 0..{f.n}, expected 0..{n}")
    return product_grades(f, grades) is not None


def delta_solutions(grades: Iterable[int], n: int) -> list[LengthDeltaMap]:
    """Every sign table over grades 0..n that `product_grades` accepts on grades.

    Exhaustive search over the 2^n candidates (delta[0] pinned to +1);
    n <= 5 keeps this trivially cheap.
    """
    grades = list(grades)
    candidates = (
        LengthDeltaMap((1,) + tuple(-1 if bits >> k & 1 else 1 for k in range(n)))
        for bits in range(1 << n)
    )
    return [f for f in candidates if product_grades(f, grades) is not None]


def invariant_grades(f: LengthDeltaMap, grades: Iterable[int]) -> GradeSet:
    """Grades of the fixed subspace of f inside the given grade set.

    For a grade-diagonal sign map the fixed subspace of (+)_{k in I} L_k is
    exactly the direct sum over the +1 grades of I.
    """
    return frozenset(k for k in grades if f.delta[k] == 1)
