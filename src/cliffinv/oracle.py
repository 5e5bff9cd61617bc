"""Independent ground truth: the left-regular matrix representation.

Left multiplication by a fixed element is a linear map on the 2^n blade
coefficients; its matrix is singular exactly when the element is not
invertible, and solving M x = vec(1) recovers the inverse.  Everything here
is exact: the elimination is the fraction-free (division-free growth)
variant of Gaussian elimination over the integers with first-nonzero
pivoting, after clearing denominators, and the back substitution stays in
the integers too, scaled by the determinant so that it divides exactly.
No floating point is used anywhere.

This module deliberately shares no code with the chain-based inversion it
is used to verify, beyond the blade product itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blades import blade_order, product_signs
from .multivector import Multivector


@dataclass(frozen=True)
class RegularMatrix:
    """Dense matrix of left multiplication on the (grade, mask)-ordered basis."""

    dim: int
    entries: tuple[tuple[Fraction, ...], ...]  # row-major
    basis: tuple[int, ...]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)


def _basis_index(n: int) -> dict[int, int]:
    return {mask: i for i, mask in enumerate(blade_order(n))}


def regular_matrix(a: Multivector) -> RegularMatrix:
    """M(a) with M(a) . vec(b) = vec(a*b); an algebra homomorphism in a."""
    rows, den = _int_rows(a)
    # The 4^n cells hold only 0 and the +-numerators: one Fraction per value.
    frac = {x: Fraction(x, den) for x in {x for row in rows for x in row}}
    entries = tuple(tuple(map(frac.__getitem__, row)) for row in rows)
    return RegularMatrix(len(rows), entries, blade_order(a.sig.n))


def _int_rows(a: Multivector) -> tuple[list[list[int]], int]:
    """Integer left-multiplication matrix plus the denominator cleared from a."""
    sig = a.sig
    dim = sig.dim
    basis = blade_order(sig.n)
    index = _basis_index(sig.n)
    signs = product_signs(sig)
    coeffs, den = a._int_coeffs()
    rows = [[0] * dim for _ in range(dim)]
    for j, mb in enumerate(basis):
        for ma, ca in coeffs.items():
            s = signs[ma * dim + mb]
            rows[index[ma ^ mb]][j] = ca if s > 0 else -ca
    return rows, den


def _eliminate(rows: list[list[int]], width: int) -> bool:
    """Fraction-free forward elimination in place; False if a pivot column dies.

    rows may be wider than the square system (augmented columns ride along).
    Pivoting picks the first row with a nonzero entry in the pivot column.
    """
    m = len(rows)
    prev = 1
    for k in range(m):
        pivot_row = None
        for r in range(k, m):
            if rows[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            return False
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
        rk = rows[k]
        akk = rk[k]
        cols = range(k + 1, width)
        for i in range(k + 1, m):
            ri = rows[i]
            aik = ri[k]
            if aik:
                for j in cols:
                    ri[j] = (ri[j] * akk - aik * rk[j]) // prev
                ri[k] = 0
            elif akk != prev:
                for j in cols:
                    ri[j] = (ri[j] * akk) // prev
        prev = akk
    return True


def oracle_is_invertible(a: Multivector) -> bool:
    """True iff the regular matrix has full rank."""
    rows, _ = _int_rows(a)
    return _eliminate(rows, len(rows))


def oracle_inverse(a: Multivector) -> Optional[Multivector]:
    """Solve M(a) x = vec(1) exactly; None when the matrix is singular."""
    sig = a.sig
    dim = sig.dim
    rows, den = _int_rows(a)
    basis = blade_order(sig.n)
    # vec(1): the unit blade is first in (grade, mask) order.
    for i, row in enumerate(rows):
        row.append(1 if i == 0 else 0)
    if not _eliminate(rows, dim + 1):
        return None
    # Cramer's rule: det * x is integral, where det is the last pivot, so back
    # substitution on y = det * x divides exactly.
    det = rows[dim - 1][dim - 1]
    y = [0] * dim
    for i in range(dim - 1, -1, -1):
        ri = rows[i]
        s = det * ri[dim]
        for j in range(i + 1, dim):
            if ri[j]:
                s -= ri[j] * y[j]
        y[i] = s // ri[i]
    # Solving with denominators cleared scales the solution down by den.
    return Multivector._from_ints(sig, ((basis[i], v * den) for i, v in enumerate(y)), det)
