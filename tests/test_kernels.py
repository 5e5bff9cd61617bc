"""The two tiers of `multivector._fold`: a plan's row loop and its compiled kernel.

A plan interprets its rows for its first `_HOT` folds and then runs a
straight-line function generated from them (`multivector._compile`).  Both
tiers must return the same exact integer lists for every plan the library
builds: the product plan of each signature and the step and assembly plans
of its chains.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cliffinv
from cliffinv import Multivector, Signature, compose_inverse, default_chain
from cliffinv.inversion import _plans, alternate_chain
from cliffinv.multivector import _HOT, _compile, _fold, _Plan, _product_plan
from cliffinv.verify import all_signatures


def _library_plans(sig: Signature) -> list[tuple[str, _Plan]]:
    """Every plan `*` and the chains run in sig: product, default chain, alternate chain at n = 3, 4."""
    chains = [("default", default_chain(sig.n))]
    if sig.n in (3, 4):
        chains.append(("alternate", alternate_chain(sig.n)))
    out = [("product", _product_plan(sig))]
    for name, chain in chains:
        steps, assembly = _plans(sig, chain)
        out += [(f"{name} step {k}", plan) for k, plan in enumerate(steps, 1)]
        out += [(f"{name} assembly {k}", plan) for k, plan in enumerate(assembly, 1)]
    return out


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


def _row_loop(plan: _Plan, x: list[int], y: list[int]) -> list[int]:
    """The cold tier's answer: one fold of a fresh copy of the plan, which interprets its rows."""
    return _fold(_Plan(plan.rows, plan.dim), x, y)


@pytest.mark.parametrize("sig", all_signatures(), ids=str)
def test_compiled_kernel_equals_the_row_loop(sig):
    for name, plan in _library_plans(sig):
        kernel = _compile(plan)
        inputs = _inputs(plan.dim, seed=sig.dim)
        for x in inputs:
            for y in inputs:
                want = _row_loop(plan, x, y)
                got = kernel(x, y)
                assert got == want, (str(sig), name, x, y)
                assert all(type(v) is int for v in got)


def test_a_plan_compiles_on_its_128th_fold_and_then_runs_the_kernel():
    assert _HOT == 128
    sig = Signature(1, 1)
    plan = _Plan(_product_plan(sig).rows, sig.dim)
    x, y = [1, -2, 3, 4], [5, 0, -1, 2]
    want = _row_loop(plan, x, y)
    for _ in range(_HOT - 1):
        assert _fold(plan, x, y) == want
    assert (plan.uses, plan.kernel) == (_HOT - 1, None)
    assert _fold(plan, x, y) == want
    assert plan.uses == _HOT and plan.kernel is not None
    # From here on the kernel answers and the rows are not read again.
    plan.rows = ()
    assert _fold(plan, x, y) == want and plan.uses == _HOT


def test_a_chain_run_in_a_loop_compiles_every_plan_and_keeps_its_results():
    sig = Signature(2, 3)
    chain = default_chain(sig.n)
    elements = [Multivector.random(sig, s, 10) for s in range(4)] + [Multivector(sig, {0: 1, 0b11000: 1})]
    cold = [compose_inverse(a, chain) for a in elements]
    for _ in range(_HOT // len(elements) + 1):
        hot = [compose_inverse(a, chain) for a in elements]
    steps, assembly = _plans(sig, chain)
    assert all(plan.kernel is not None for plan in steps + assembly)
    assert hot == cold
    assert [r.factors for r in hot] == [r.factors for r in cold]


def test_one_shot_inv_compiles_no_plan():
    # A fresh interpreter: this test process may have compiled the plans already.
    script = (
        "import contextlib, io\n"
        "from cliffinv import Signature, multivector\n"
        "from cliffinv.cli import main\n"
        "from cliffinv.inversion import _plans, default_chain\n"
        "compiled = []\n"
        "compile_plan = multivector._compile\n"
        "multivector._compile = lambda plan: compiled.append(plan) or compile_plan(plan)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['inv', '-p', '2', '-q', '3', '3/2*e12 - 5/4*e345 + e5 - 7/3 + e1*e2345']) == 0\n"
        "steps, assembly = _plans(Signature(2, 3), default_chain(5))\n"
        "print(len(compiled), [(p.uses > 0, p.kernel) for p in steps + assembly])\n"
    )
    src = str(Path(cliffinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"0 {[(True, None)] * 6}\n"
