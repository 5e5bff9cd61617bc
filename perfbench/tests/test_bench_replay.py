import inputs
from cliffinv import inversion
from layers import replay_chain
from workloads import element


def test_replay_matches_compose_inverse_on_every_signature():
    items = inputs.verify_all(11) + inputs.sparse_text(11)[:100]
    for it in items:
        a = element(it)
        chain = inversion.default_chain(a.sig.n)
        expected = inversion.compose_inverse(a, chain)
        d, inv, steps, _ = replay_chain(a, chain)
        assert d == expected.discriminant
        assert inv == expected.inverse
        assert len(steps) == len(chain.steps)


def test_replay_reports_zero_divisor():
    zero_divisors = [it for it in inputs.verify_all(11) if it.zero_divisor]
    for it in zero_divisors:
        a = element(it)
        d, inv, _, _ = replay_chain(a, inversion.default_chain(a.sig.n))
        assert d == 0 and inv is None
