"""Five generators through the centre: Cl(p,q) = Cl+ x Cl+ when I*I = +1.

At n = 5 the pseudoscalar I = e12345 is central, and in Cl(0,5), Cl(2,3)
and Cl(4,1) it squares to +1.  There a = u + I*v (u, v even) maps to the
pair (A, B) = (u + v, u - v) of the even half Cl+, a four-generator algebra,
and the map is an isomorphism (`multivector._split`).  The compiled product
and default-chain kernels of those signatures run through it
(`codegen.compile_plan`).  The first tests check the split table itself on
the row loops, apart from any compiled kernel; the last ones pin which
plans take the centre and that nothing builds it before a plan compiles.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cliffinv
from cliffinv import (
    InvolutionChain,
    Multivector,
    NotInvertible,
    Signature,
    default_chain,
    discriminant,
    inverse,
    inversion,
    multivector,
)
from cliffinv.inversion import _plans, alternate_chain
from cliffinv.involutions import LengthDeltaMap
from cliffinv.multivector import _loop, _product_plan, _split
from cliffinv.verify import all_signatures

CENTRAL = {Signature(0, 5): Signature(4, 0), Signature(2, 3): Signature(2, 2), Signature(4, 1): Signature(0, 4)}


@pytest.fixture
def row_loops(monkeypatch):
    """Every plan runs its tables, so no compiled kernel takes part."""
    monkeypatch.setattr(multivector, "_fold", _loop)
    monkeypatch.setattr(inversion, "_fold", _loop)


def _halves(a: Multivector) -> tuple[Multivector, Multivector]:
    """(A, B) = (u + v, u - v) for a = u + I*v, read off the split table."""
    four, rows = _split(a.sig)
    top = a.sig.dim - 1
    return tuple(
        Multivector(four, {t: s * a.coeff(S) + h * tau * a.coeff(S ^ top) for t, (S, s, tau) in enumerate(rows)})
        for h in (1, -1)
    )


def _join(sig: Signature, A: Multivector, B: Multivector) -> Multivector:
    """The element whose halves are A and B."""
    _, rows = _split(sig)
    top = sig.dim - 1
    coeffs = {}
    for t, (S, s, tau) in enumerate(rows):
        coeffs[S] = s * (A.coeff(t) + B.coeff(t)) / 2
        coeffs[S ^ top] = tau * (A.coeff(t) - B.coeff(t)) / 2
    return Multivector(sig, coeffs)


def _zero_divisors(sig: Signature) -> list[Multivector]:
    """1 + b for each blade b with b*b = +1."""
    units = [Multivector.blade(sig, b) for b in range(1, sig.dim)]
    return [Multivector.unit(sig) + b for b in units if b * b == Multivector.unit(sig)]


def _samples(sig: Signature) -> list[Multivector]:
    """Dense elements with coefficients bounded by 10, 1-4-term rational ones, and the zero divisors."""
    rng = random.Random(f"centre {sig}")
    out = [Multivector.random(sig, seed, 10) for seed in range(12)]
    for _ in range(24):
        masks = rng.sample(range(sig.dim), rng.randint(1, 4))
        coeffs = {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)) for m in masks}
        out.append(Multivector(sig, coeffs))
    return out + _zero_divisors(sig)


@pytest.mark.parametrize("sig", CENTRAL, ids=str)
class TestSplitTable:
    def test_even_half_is_the_four_generator_algebra(self, sig):
        four, rows = _split(sig)
        assert four == CENTRAL[sig]
        # Each row's even mask is hit once, so A and B together read every coefficient once.
        assert sorted(S for S, _, _ in rows) == [m for m in range(sig.dim) if m.bit_count() % 2 == 0]

    def test_join_undoes_the_split(self, sig):
        for a in _samples(sig):
            assert _join(sig, *_halves(a)) == a

    def test_discriminant_is_the_product_of_the_halves(self, sig, row_loops):
        for a in _samples(sig):
            A, B = _halves(a)
            assert discriminant(a) == discriminant(A) * discriminant(B), a

    def test_inverse_is_the_join_of_the_halves_inverses(self, sig, row_loops):
        for a in _samples(sig):
            if discriminant(a):
                A, B = _halves(a)
                assert _join(sig, inverse(A), inverse(B)) == inverse(a), a

    def test_product_splits_into_the_halves_products(self, sig, row_loops):
        samples = _samples(sig)
        for a, b in zip(samples, samples[1:] + samples[:1]):
            (Aa, Ba), (Ab, Bb) = _halves(a), _halves(b)
            assert _halves(a * b) == (Aa * Ab, Ba * Bb), (a, b)

    def test_zero_divisors_have_a_zero_half(self, sig, row_loops):
        for a in _zero_divisors(sig):
            A, B = _halves(a)
            assert discriminant(a) == 0 == discriminant(A) * discriminant(B), a
            with pytest.raises(NotInvertible):
                inverse(a)


def test_exactly_the_central_product_and_default_chain_plans_take_the_centre():
    taken = {}
    for sig in all_signatures():
        taken[(sig, "product")] = _product_plan(sig).centre
        taken[(sig, "default")] = _plans(sig, default_chain(sig.n)).centre
        if sig.n in (3, 4):
            taken[(sig, "alternate")] = _plans(sig, alternate_chain(sig.n)).centre
    assert {key: sig for key, sig in taken.items() if sig is not None} == {
        (sig, kind): sig for sig in CENTRAL for kind in ("product", "default")
    }
    # A five-generator chain from the solver walk that ends on another map: the same D, but not the default.
    other = InvolutionChain(5, default_chain(5).steps[:2] + (LengthDeltaMap((1, 1, 1, 1, 1, -1)),))
    assert other != default_chain(5)
    for sig in CENTRAL:
        assert _plans(sig, other).centre is None


def test_one_shot_inv_builds_no_split_table_and_no_four_generator_plan():
    # A fresh interpreter, as `_split` and the plan caches are filled in this one.
    script = (
        "import contextlib, io, sys\n"
        "from cliffinv import multivector\n"
        "from cliffinv.cli import main\n"
        "dims = []\n"
        "init = multivector._Plan.__init__\n"
        "multivector._Plan.__init__ = lambda self, *args, **kw: dims.append(args[1]) or init(self, *args, **kw)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['inv', '-p', '2', '-q', '3', '3/2*e12 - 5/4*e345 + e5 - 7/3 + e1*e2345']) == 0\n"
        "print(sorted(set(dims)), multivector._split.cache_info().currsize, 'cliffinv.codegen' in sys.modules)\n"
    )
    src = str(Path(cliffinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[32] 0 False\n"
