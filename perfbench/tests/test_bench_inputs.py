from collections import Counter

import pytest

import inputs
from cliffinv.blades import Signature, blade_square_sign
from tracing import NAME, PAIRS, Tracer
from workloads import WORKLOADS, Client, element


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(name):
    gen = inputs.GENERATORS[name]
    assert gen(5) == gen(5)
    assert gen(5) != gen(6)


def shape(items):
    return (
        [(it.p, it.q) for it in items],
        [len(it.coeffs) if it.text else None for it in items],
        [it.zero_divisor for it in items],
        [it.json for it in items],
    )


@pytest.mark.parametrize("name", ["sparse-text", "verify-all", "cli-inv"])
def test_other_seed_same_shape(name):
    gen = inputs.GENERATORS[name]
    assert shape(gen(1)) == shape(gen(2))


def test_dense_n5_is_dense_and_cycles_the_six_signatures():
    items = inputs.dense_n5(3)
    assert Counter((it.p, it.q) for it in items) == Counter({sig: 40 for sig in inputs.N5_SIGNATURES})
    assert all(abs(c) <= 10 for it in items for c in it.coeffs.values())
    assert sum(len(it.coeffs) for it in items) / len(items) > 28


def test_sparse_text_term_counts_and_signatures():
    items = inputs.sparse_text(3)
    assert {(it.p, it.q) for it in items} == set(inputs.NONSCALAR_SIGNATURES)
    assert Counter(len(it.coeffs) for it in items if it.n >= 2) == Counter({1: 90, 2: 90, 3: 90, 4: 90})
    assert any(c.denominator > 1 for it in items for c in it.coeffs.values())


def test_sparse_text_parses_to_its_coefficients():
    from cliffinv.parsing import parse_expression

    for it in inputs.sparse_text(4)[:100]:
        assert parse_expression(it.text, Signature(it.p, it.q)) == element(it)


def test_zero_divisor_share_and_squares():
    items = inputs.verify_all(7)
    zero_divisors = [it for it in items if it.zero_divisor]
    assert len(zero_divisors) == len(items) // inputs.ZERO_DIVISOR_EVERY
    assert {(it.p, it.q) for it in items} == set(inputs.ALL_SIGNATURES)
    for it in zero_divisors:
        (b,) = [m for m in it.coeffs if m]
        assert blade_square_sign(b, Signature(it.p, it.q)) == 1


def test_blade_square_matches_library():
    for p, q in inputs.ALL_SIGNATURES:
        sig = Signature(p, q)
        for b in range(sig.dim):
            assert inputs.blade_square(b, p) == blade_square_sign(b, sig)


def count_pass(name, seed):
    """Per-op product counts from one traced pass over the pool."""
    w = WORKLOADS[name](seed)
    tracer = Tracer()
    tracer.install()
    try:
        Client(w).run(0, op=w.inproc_op, tracer=tracer, phase="count", at_least=len(w.inputs))
    finally:
        tracer.uninstall()
    return [s[PAIRS] for s in tracer.spans if s[NAME] == "multivector.product"]


def test_same_seed_same_layer_counts():
    assert count_pass("sparse-text", 9) == count_pass("sparse-text", 9)


def test_verify_batches_hold_every_signature_and_three_zero_divisors():
    items = inputs.verify_all(8)
    size = inputs.VERIFY_BATCH
    assert size == 24 and len(items) % size == 0
    for start in range(0, len(items), size):
        batch = items[start:start + size]
        dense = sorted((it.p, it.q) for it in batch if not it.zero_divisor)
        assert dense == sorted(inputs.ALL_SIGNATURES)
        assert sum(it.zero_divisor for it in batch) == 3
