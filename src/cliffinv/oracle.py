"""Independent ground truth: the left-regular matrix representation.

Left multiplication by a fixed element is a linear map on the 2^n blade
coefficients; its matrix M(a) is singular exactly when the element is not
invertible, and solving M(a) x = vec(1) recovers the inverse.  Everything
here is exact: the elimination is the fraction-free (division-free growth)
variant of Gaussian elimination over the integers with first-nonzero
pivoting, after clearing denominators, and the back substitution stays in
the integers too, scaled by the determinant so that it divides exactly.
No floating point is used anywhere.

The system is solved in blocks, and they are still M(a), only in another
basis.  Blades b_1..b_k that commute pairwise, square to +1 and have
independent masks give 2^k orthogonal idempotents
f_eps = prod_i (1 + eps_i b_i)/2 summing to 1, so the algebra is the direct
sum of the left ideals Cl f_eps (Lounesto, Clifford Algebras and Spinors,
ch. 17).  Left multiplication keeps each ideal, so M(a) is block diagonal
in the basis {e_r f_eps}, r running over representatives of the cosets of
the span of the b-masks: it is singular iff one block is, and the solution
is the sum of the block solutions.  Writing e_y f_eps = c_eps(y) e_r f_eps
with r = rep(y) and c_eps(y) = +-1, block eps is
B_eps[r][m] = sum_{rep(y)=r} c_eps(y) M[y][m] over the representative
columns m, B_eps z = vec(1) gives the coordinates of x f_eps, and
x_y = 2^-k sum_eps c_eps(y) z^eps_rep(y).  For n = 5 that is four 8x8
systems (eight 4x4 for Cl(2,3)) in place of one 32x32; Cl(0,0), Cl(1,0)
and Cl(2,0) have no such blade, and their one block is M(a) itself.

No 2^n x 2^n matrix is built on the way: every cell M[y][m] is
+-a_(y ^ m), so a table cached per signature names the coefficient and
the sign behind each cell of the blocks, and the blocks are read straight
off a's integer numerators.  `regular_matrix` is the same read with no
blades, the whole of M(a) as one block.

This module deliberately shares no code with the chain-based inversion it
is used to verify, beyond the blade sign table: the table is built from
`product_signs` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple, Optional

from .blades import Signature, blade_order, product_signs
from .multivector import Multivector


@dataclass(frozen=True)
class RegularMatrix:
    """Dense matrix of left multiplication on the (grade, mask)-ordered basis."""

    dim: int
    entries: tuple[tuple[Fraction, ...], ...]  # row-major
    basis: tuple[int, ...]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)


def regular_matrix(a: Multivector) -> RegularMatrix:
    """M(a) with M(a) . vec(b) = vec(a*b); an algebra homomorphism in a."""
    # No split blades: one block, M(a) itself on the blade_order basis.
    (rows,), den = _blocks(a, _split(a.sig, ()))
    # The 4^n cells hold only 0 and the +-numerators: one Fraction per value.
    frac = {x: Fraction(x, den) for x in {x for row in rows for x in row}}
    entries = tuple(tuple(map(frac.__getitem__, row)) for row in rows)
    return RegularMatrix(len(rows), entries, blade_order(a.sig.n))


class _Split(NamedTuple):
    """How M(a) splits into blocks for one signature (see the module docstring).

    S runs over subsets of the blades in bit order and b_S is the product of
    the blades b_i with bit i set in S; for a representative r, y = r ^ b_S
    runs over its coset, with e_r b_S = sign * e_y.  As b_S f_eps =
    eps_S f_eps, c_eps(y) = sign * eps_S, where eps_S = (-1)^|eps & S|.
    Before the transform over S, cell (S, r, c) of the stacked blocks is
    sign * M[y][c] = sign * (+-a_(y ^ c)), as e_(y ^ c) e_c = +-e_y.
    """

    blades: tuple[int, ...]  # b_1..b_k
    cells: tuple[tuple[tuple[int, int], ...], ...]  # [S][r * side + c]: (mask, sign)
    gather: tuple[tuple[int, int, int, int], ...]  # per basis blade y: (mask, S, r, sign)


@lru_cache(maxsize=None)
def _split(sig: Signature, blades: Optional[tuple[int, ...]] = None) -> _Split:
    """The cosets of the span of blades, by default greedy ones in mask order."""
    dim = sig.dim
    signs = product_signs(sig)
    if blades is None:
        blades = ()
        span = {0}
        for b in range(1, dim):
            if signs[b * dim + b] > 0 and b not in span and all(
                signs[b * dim + c] == signs[c * dim + b] for c in blades
            ):
                blades += (b,)
                span |= {m ^ b for m in span}
    products = []  # b_S as (sign, mask)
    for bits in range(1 << len(blades)):
        sign, mask = 1, 0
        for i, b in enumerate(blades):
            if bits >> i & 1:
                sign *= signs[mask * dim + b]
                mask ^= b
        products.append((sign, mask))
    basis = blade_order(sig.n)
    # Each coset is represented by its smallest mask, so the unit represents the span.
    reps = [r for r in basis if all(r < r ^ m for _, m in products[1:])]
    cells = []
    where = {}
    for S, (s, m) in enumerate(products):
        row: list[tuple[int, int]] = []
        for r, rep in enumerate(reps):
            y, sign = rep ^ m, s * signs[rep * dim + m]
            where[y] = (S, r, sign)
            row += ((y ^ c, sign * signs[(y ^ c) * dim + c]) for c in reps)
        cells.append(tuple(row))
    return _Split(blades, tuple(cells), tuple((y, *where[y]) for y in basis))


def _hadamard(w: list[list[int]]) -> None:
    """In place, w[eps] <- sum_S (-1)^|eps & S| w[S] for vectors w[S]; len(w) = 2^k."""
    h = 1
    while h < len(w):
        for j in range(len(w)):
            if not j & h:
                x, y = w[j], w[j | h]
                w[j] = [u + v for u, v in zip(x, y)]
                w[j | h] = [u - v for u, v in zip(x, y)]
        h <<= 1


def _blocks(a: Multivector, split: _Split) -> tuple[list[list[list[int]]], int]:
    """The integer blocks B_eps, eps in bit order, and the denominator cleared from a.

    Row r of B_eps is sum_S c_eps(y) M[y] over y = r ^ b_S, restricted to
    the representative columns: reading the stacked cells off a's
    numerators, one Walsh-Hadamard transform over S gives every block.
    """
    x, den = a._int_dense()
    side = a.sig.dim >> len(split.blades)
    stacked = [[s * x[m] for m, s in cells] for cells in split.cells]
    _hadamard(stacked)
    return [[flat[r : r + side] for r in range(0, side * side, side)] for flat in stacked], den


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
    """True iff the regular matrix has full rank, i.e. every block has."""
    blocks, _ = _blocks(a, _split(a.sig))
    return all(_eliminate(block, len(block)) for block in blocks)


def oracle_inverse(a: Multivector) -> Optional[Multivector]:
    """Solve M(a) x = vec(1) exactly; None when the matrix is singular."""
    sig = a.sig
    split = _split(sig)
    blocks, den = _blocks(a, split)
    solved = []
    for block in blocks:
        side = len(block)
        # vec(1): the unit is the first representative.
        for i, row in enumerate(block):
            row.append(1 if i == 0 else 0)
        if not _eliminate(block, side + 1):
            return None
        # Cramer's rule: det * z is integral, where det is the last pivot, so
        # back substitution on y = det * z divides exactly.
        det = block[side - 1][side - 1]
        y = [0] * side
        for i in range(side - 1, -1, -1):
            ri = block[i]
            s = det * ri[side]
            for j in range(i + 1, side):
                if ri[j]:
                    s -= ri[j] * y[j]
            y[i] = s // ri[i]
        solved.append((det, y))
    # x_y = 2^-k sum_eps c_eps(y) z^eps_r over the common denominator
    # 2^k * lcm(det): the same transform, over eps.  Solving with
    # denominators cleared also scaled the solution down by den.
    common = lcm(*[det for det, _ in solved])
    z = []
    for det, y in solved:
        scale = common // det * den
        z.append([v * scale for v in y])
    _hadamard(z)
    nums = ((mask, z[S][r] * sign) for mask, S, r, sign in split.gather)
    return Multivector._from_ints(sig, nums, common << len(split.blades))
