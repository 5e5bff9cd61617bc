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
f_eps = prod_i (1 + (-1)^eps_i b_i)/2, eps a k-bit pattern, summing to 1,
so the algebra is the direct sum of the left ideals Cl f_eps (Lounesto,
Clifford Algebras and Spinors, ch. 17).  Left multiplication keeps each
ideal, so M(a) is block diagonal in the basis {e_r f_eps}, r running over
representatives of the cosets of the span of the b-masks.  Writing
e_y f_eps = c_eps(y) e_r f_eps with r = rep(y) and c_eps(y) = +-1, block
eps is B_eps[r][m] = sum_{rep(y)=r} c_eps(y) M[y][m] over the
representative columns m.

Most of these blocks are the same system.  A blade e anticommutes with
the b_i of some bit pattern sigma(e), so
e f_eps e^-1 = f_(eps ^ sigma(e)), and right multiplication by e^-1 maps
Cl f_eps onto that ideal while commuting with left multiplication by a:
the two blocks are equal up to a signed permutation.  The patterns form
a subgroup H, and the 2^k ideals fall into orbits eps ^ H, one class of
isomorphic ideals each; one block per orbit is eliminated, that of its
smallest eps.  M(a) is singular iff one of these is.  For the inverse,
one member blade e per pattern in H gives a right-hand column, the
coordinates of e f_eps (c_eps(e) at rep(e)); B_eps w = that column
gives the coordinates w of x e f_eps, and
x = sum_orbits sum_e (x e f_eps) e^-1.  Each orbit takes one Bareiss
pass over its block augmented with |H| columns.  On all 21 signatures of
up to five generators there is one orbit, or two when n is odd and
e_1..n squares to +1 (Cl(0,1), Cl(3,0), Cl(1,2), Cl(0,5), Cl(2,3),
Cl(4,1)).  For n = 5 that is one 8x8 system with four right-hand sides
in place of one 32x32; Cl(0,5) and Cl(4,1) solve two 8x8 with two each,
and Cl(2,3) two 4x4 with four.  Cl(0,0), Cl(1,0) and Cl(2,0) have no
such blade, and their one block is M(a) itself.

No 2^n x 2^n matrix is built on the way: every cell M[y][m] is
+-a_(y ^ m), so a table cached per signature names the coefficient and
the sign behind each cell of the blocks, and the blocks are read straight
off a's integer numerators.  A second table names, for each blade y, the
2^k signed solution entries that sum to x_y.  `regular_matrix` is the
same read with no blades, the whole of M(a) as one block.

This module deliberately shares no code with the chain-based inversion it
is used to verify, beyond the blade sign table: the table is built from
`product_signs` alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .blades import Signature, _Frozen, blade_order, product_signs
from .multivector import Multivector


class RegularMatrix(_Frozen):
    """Dense matrix of left multiplication on the (grade, mask)-ordered basis."""

    __match_args__ = _fields = ("dim", "entries", "basis")
    dim: int
    entries: tuple[tuple[Fraction, ...], ...]  # row-major
    basis: tuple[int, ...]

    def __init__(self, dim: int, entries: tuple[tuple[Fraction, ...], ...], basis: tuple[int, ...]) -> None:
        self.__dict__.update(dim=dim, entries=entries, basis=basis)

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
    Cell (S, r, c) of the stacked blocks is sign * M[y][c] =
    sign * (+-a_(y ^ c)), as e_(y ^ c) e_c = +-e_y, and B_eps is the sum
    over S of eps_S times the cells of S.

    The getters read a's numerators xs = x + (-x) and the solutions
    zs = z + (-z) with the sign folded into the index: a negative term is
    read at its index plus the list's length.
    """

    blades: tuple[int, ...]  # b_1..b_k
    cells: tuple[tuple[tuple[int, int], ...], ...]  # [S][r * side + c]: (mask, sign)
    gather: tuple[tuple[int, int, int, int], ...]  # per basis blade y: (mask, S, r, sign)
    members: tuple[int, ...]  # one blade e per pattern sigma(e) in H, the unit first
    orbits: tuple[int, ...]  # eps of each orbit's representative, the smallest of its coset
    blocks: tuple[tuple[Callable, ...], ...]  # [orbit][S]: xs -> eps_S * cells of S, flat
    rhs: tuple[tuple[tuple[int, ...], ...], ...]  # [orbit][row]: (e f_eps)_row for each member e
    assembly: tuple[Callable, ...]  # 2^k getters, each zs -> one term of x_y per y in blade order


def _getter(indices: list[int]) -> Callable:
    """itemgetter that returns a tuple for one index too."""
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda v: (get(v),)


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
    k = len(blades)
    products = []  # b_S as (sign, mask)
    for bits in range(1 << k):
        sign, mask = 1, 0
        for i, b in enumerate(blades):
            if bits >> i & 1:
                sign *= signs[mask * dim + b]
                mask ^= b
        products.append((sign, mask))
    basis = blade_order(sig.n)
    # Each coset is represented by its smallest mask, so the unit represents the span.
    reps = [r for r in basis if all(r < r ^ m for _, m in products[1:])]
    side = len(reps)
    cells = []
    where = {}
    for S, (s, m) in enumerate(products):
        row: list[tuple[int, int]] = []
        for r, rep in enumerate(reps):
            y, sign = rep ^ m, s * signs[rep * dim + m]
            where[y] = (S, r, sign)
            row += ((y ^ c, sign * signs[(y ^ c) * dim + c]) for c in reps)
        cells.append(tuple(row))
    gather = tuple((y, *where[y]) for y in basis)
    # sigma(e) has bit i set iff e anticommutes with b_i; e f_eps e^-1 = f_(eps ^ sigma(e)).
    by_pattern: dict[int, int] = {}
    for e in basis:
        h = sum(1 << i for i, b in enumerate(blades) if signs[e * dim + b] != signs[b * dim + e])
        by_pattern.setdefault(h, e)
    members = tuple(by_pattern.values())
    orbits = tuple(eps for eps in range(1 << k) if all(eps <= eps ^ h for h in by_pattern))
    eps_sign = [[-1 if (eps & S).bit_count() & 1 else 1 for S in range(1 << k)] for eps in orbits]
    blocks = tuple(
        tuple(_getter([m if e_S * s > 0 else m + dim for m, s in row]) for row, e_S in zip(cells, e_Ss))
        for e_Ss in eps_sign
    )
    # The right-hand side of member e: c_eps(e) at rep(e).
    rhs = []
    for e_Ss in eps_sign:
        cols = [[0] * len(members) for _ in reps]
        for j, e in enumerate(members):
            S, r, sign = where[e]
            cols[r][j] = sign * e_Ss[S]
        rhs.append(tuple(map(tuple, cols)))
    # x f_(eps ^ sigma(e)) = (x e f_eps) e^-1 = sum_r z_r 2^-k sum_S eps_S e_r b_S e^-1,
    # and e_r b_S e^-1 = sign * e_y e^-1: each (orbit, member, y) adds one
    # signed z_r to the coefficient at y ^ e, so every blade gets 2^k of them.
    size = len(orbits) * len(members) * side
    terms: dict[int, list[int]] = {y: [] for y in basis}
    for o, e_Ss in enumerate(eps_sign):
        for j, e in enumerate(members):
            at = (o * len(members) + j) * side
            for y, S, r, sign in gather:
                sign *= e_Ss[S] * signs[y * dim + e] * signs[e * dim + e]
                terms[y ^ e].append(at + r if sign > 0 else at + r + size)
    assembly = tuple(_getter([terms[y][t] for y in basis]) for t in range(1 << k))
    return _Split(blades, tuple(cells), gather, members, orbits, blocks, tuple(rhs), assembly)


def _blocks(a: Multivector, split: _Split) -> tuple[list[list[list[int]]], int]:
    """The integer block B_eps of each orbit representative eps, and the denominator cleared from a.

    Row r of B_eps is sum_S c_eps(y) M[y] over y = r ^ b_S, restricted to
    the representative columns: one signed read of a's numerators per S.
    """
    x, den = a._int_dense()
    xs = x + [-v for v in x]
    side = a.sig.dim >> len(split.blades)
    out = []
    for getters in split.blocks:
        reads = [get(xs) for get in getters]
        flat = list(map(sum, zip(*reads)) if len(reads) > 1 else reads[0])
        out.append([flat[r : r + side] for r in range(0, side * side, side)])
    return out, den


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
    for block, rhs in zip(blocks, split.rhs):
        side = len(block)
        # One right-hand column per member e: the coordinates of e f_eps.
        for row, col in zip(block, rhs):
            row += col
        width = len(block[0])
        if not _eliminate(block, width):
            return None
        # Cramer's rule: det * z is integral, where det is the last pivot, so
        # back substitution on y = det * z divides exactly.
        det = block[side - 1][side - 1]
        ys = []
        for col in range(side, width):
            y = [0] * side
            for i in range(side - 1, -1, -1):
                ri = block[i]
                s = det * ri[col]
                for j in range(i + 1, side):
                    if ri[j]:
                        s -= ri[j] * y[j]
                y[i] = s // ri[i]
            ys += y
        solved.append((det, ys))
    # x is the sum of the (x e f_eps) e^-1 over the common denominator
    # 2^k * lcm(det).  Solving with denominators cleared also scaled the
    # solution down by den.
    common = lcm(*[det for det, _ in solved])
    z = []
    for det, ys in solved:
        scale = common // det * den
        z += [v * scale for v in ys]
    zs = z + [-v for v in z]
    nums = map(sum, zip(*[get(zs) for get in split.assembly]))
    return Multivector._from_ints(sig, zip(blade_order(sig.n), nums), common << len(split.blades))
