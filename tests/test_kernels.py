"""The two tiers of `multivector._fold`: a plan's row loop and its compiled kernel.

A plan interprets its tables for its first `_HOT` runs and then runs a
straight-line function generated from them (`multivector._compile`).  Both
tiers must return the same exact integers for every plan the library
builds: the product plan of each signature, and the plan of each of its
chains, whose kernel runs the steps and assembles the inverse in one call.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import cliffinv
from cliffinv import Multivector, Signature, chain_scalar, compose_inverse, default_chain, inversion, multivector
from cliffinv.inversion import _plans, alternate_chain
from cliffinv.multivector import _HOT, _compile, _fold, _loop, _Plan, _product_plan
from cliffinv.verify import all_signatures


def _chains(sig: Signature) -> list[tuple[str, object]]:
    """The chains the library runs in sig: the default, and the alternate at n = 3, 4."""
    chains = [("default", default_chain(sig.n))]
    if sig.n in (3, 4):
        chains.append(("alternate", alternate_chain(sig.n)))
    return chains


def _inputs(dim: int, seed: int) -> list[list[int]]:
    """Dense, one-term, two-term, all-zero and over-2^62 coefficient lists of length dim."""
    rng = random.Random(seed)
    big = 1 << 62
    one = [0] * dim
    one[rng.randrange(dim)] = -3
    two = [0] * dim
    for m in rng.sample(range(dim), min(2, dim)):
        two[m] = rng.choice((-2, 5))
    return [
        [rng.randint(-10, 10) for _ in range(dim)],
        one,
        two,
        [0] * dim,
        [rng.choice((-1, 1)) * (big + rng.randrange(big)) for _ in range(dim)],
    ]


def _zero_divisors(sig: Signature) -> list[list[int]]:
    """Numerators of 1 + b for each blade b with b*b = +1: elements whose D is zero."""
    out = []
    for b in range(1, sig.dim):
        if (Multivector.blade(sig, b) * Multivector.blade(sig, b)).scalar_part() == 1:
            x = [0] * sig.dim
            x[0] = x[b] = 1
            out.append(x)
    return out


@pytest.mark.parametrize("sig", all_signatures(), ids=str)
def test_compiled_kernel_equals_the_row_loop(sig):
    product = _product_plan(sig)
    kernel = _compile(product)
    inputs = _inputs(sig.dim, seed=sig.dim)
    for x in inputs:
        for y in inputs:
            got = kernel(x, y)
            assert got == _loop(product, x, y), (str(sig), x, y)
            assert all(type(v) is int for v in got)
    zero_divisors = _zero_divisors(sig)
    for name, chain in _chains(sig):
        plan = _plans(sig, chain)
        kernel = _compile(plan)
        for x in inputs + zero_divisors:
            # Seeds: a denominator of 1, another one, and 0, which asks for D alone.
            for seed in (1, 7, 0):
                d, inv = got = kernel(x, seed)
                assert got == _loop(plan, x, seed), (str(sig), name, x, seed)
                assert type(d) is int and (inv is None) == (d == 0 or seed == 0)
                assert inv is None or all(type(v) is int for v in inv)
        for x in zero_divisors:
            assert kernel(x, 1) == (0, None), (str(sig), name, x)


@pytest.mark.parametrize("sig", all_signatures(), ids=str)
def test_a_compiled_chain_keeps_every_result_and_its_factors(sig):
    lists = _inputs(sig.dim, seed=sig.dim + 1) + _zero_divisors(sig)
    elements = [Multivector(sig, dict(enumerate(x))) for x in lists]
    # The same elements over a denominator of 3, which seeds the assembly.
    elements += [a.scale(Fraction(1, 3)) for a in elements]
    for name, chain in _chains(sig):
        plan = _plans(sig, chain)
        saved, plan.kernel = plan.kernel, None
        try:
            cold = [compose_inverse(a, chain) for a in elements]
            scalars = [chain_scalar(a, chain) for a in elements]
            plan.kernel = _compile(plan)
            hot = [compose_inverse(a, chain) for a in elements]
            assert hot == cold, (str(sig), name)
            assert [r.factors for r in hot] == [r.factors for r in cold]
            assert [chain_scalar(a, chain) for a in elements] == scalars == [r.discriminant for r in cold]
        finally:
            plan.kernel = saved
        for a, r in zip(elements, hot):
            prod = a
            for f in r.factors:
                prod = prod * f
            assert prod == Multivector.scalar(sig, r.discriminant), (str(sig), name, a)


def test_a_plan_compiles_on_its_128th_fold_and_then_runs_the_kernel():
    assert _HOT == 128
    sig = Signature(1, 1)
    plan = _Plan(_product_plan(sig).factors, sig.dim)
    x, y = [1, -2, 3, 4], [5, 0, -1, 2]
    want = _loop(plan, x, y)
    for _ in range(_HOT - 1):
        assert _fold(plan, x, y) == want
    assert (plan.uses, plan.kernel) == (_HOT - 1, None)
    assert _fold(plan, x, y) == want
    assert plan.uses == _HOT and plan.kernel is not None
    # From here on the kernel answers and the tables are not read again.
    plan.factors = ()
    assert _fold(plan, x, y) == want and plan.uses == _HOT


def test_a_fresh_chain_compiles_one_kernel_on_its_128th_call(monkeypatch):
    # A cache of its own, so the chain's plan starts cold whatever ran before.
    monkeypatch.setattr(inversion, "_plans", lru_cache(maxsize=None)(_plans.__wrapped__))
    compiled = []
    monkeypatch.setattr(multivector, "_compile", lambda plan: compiled.append(plan) or _compile(plan))
    sig = Signature(2, 3)
    chain = default_chain(sig.n)
    a = Multivector.random(sig, 1, 10)
    want = compose_inverse(a, chain)
    plan = inversion._plans(sig, chain)
    calls = [lambda: compose_inverse(a, chain) == want, lambda: chain_scalar(a, chain) == want.discriminant]
    for k in range(2, _HOT):
        assert calls[k % 2]()
    assert (plan.uses, compiled) == (_HOT - 1, [])
    assert calls[0]()
    assert compiled == [plan] and plan.kernel is not None
    # Up to 2 * _HOT calls of both entry points: the step and factor tables
    # are plain tuples that `_fold` never runs on their own, so nothing else compiles.
    for k in range(_HOT):
        assert calls[k % 2]()
    assert compiled == [plan] and plan.uses == _HOT
    assert all(type(table) is tuple for table in plan.steps + plan.factors)


def test_a_chain_run_in_a_loop_compiles_its_chain_kernel_and_keeps_its_results():
    sig = Signature(2, 3)
    chain = default_chain(sig.n)
    elements = [Multivector.random(sig, s, 10) for s in range(4)] + [Multivector(sig, {0: 1, 0b11000: 1})]
    cold = [compose_inverse(a, chain) for a in elements]
    for _ in range(_HOT // len(elements) + 1):
        hot = [compose_inverse(a, chain) for a in elements]
    assert _plans(sig, chain).kernel is not None
    assert hot == cold
    assert [r.factors for r in hot] == [r.factors for r in cold]


def test_one_shot_inv_compiles_no_plan():
    # A fresh interpreter: this test process may have compiled the plans already.
    script = (
        "import contextlib, io, sys\n"
        "from cliffinv import Signature, multivector\n"
        "from cliffinv.cli import main\n"
        "from cliffinv.inversion import _plans, default_chain\n"
        "compiled = []\n"
        "compile_plan = multivector._compile\n"
        "multivector._compile = lambda plan: compiled.append(plan) or compile_plan(plan)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['inv', '-p', '2', '-q', '3', '3/2*e12 - 5/4*e345 + e5 - 7/3 + e1*e2345']) == 0\n"
        "plan = _plans(Signature(2, 3), default_chain(5))\n"
        "print(len(compiled), plan.uses, plan.kernel, 'cliffinv.codegen' in sys.modules)\n"
    )
    src = str(Path(cliffinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    # Nor does it load the kernel generator's module.
    assert done.stdout == "0 1 None False\n"
