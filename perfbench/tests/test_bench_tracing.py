from cliffinv import inversion, parsing
from cliffinv.blades import Signature
from cliffinv.multivector import Multivector

from tracing import END, NAME, PAIRS, PARENT, START, Tracer, covered_length, self_times


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None, None]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0, 100, []) == 0
    assert covered_length(0, 100, [(10, 20), (30, 50)]) == 30
    assert covered_length(0, 100, [(10, 40), (20, 50)]) == 40
    assert covered_length(10, 20, [(0, 15), (18, 30)]) == 7


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("op", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 50, 70, parent=0),
        span("a.child", 15, 35, parent=1),
    ]
    assert self_times(spans) == [100 - 30 - 20, 30 - 20, 20, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [span("op", 0, 100), span("x", 10, 60, parent=0), span("y", 40, 80, parent=0)]
    assert self_times(spans)[0] == 100 - 70


def test_install_records_nested_library_calls_and_uninstall_restores():
    sig = Signature(0, 2)
    original = (Multivector.__mul__, inversion.compose_inverse, parsing.parse_expression)
    tracer = Tracer()
    tracer.install()
    try:
        rec = tracer.root("op", "count")
        a = parsing.parse_expression("2 + e1 + 1/2*e12", sig)
        inversion.compose_inverse(a, inversion.default_chain(2))
        tracer.end(rec)
    finally:
        tracer.uninstall()
    assert (Multivector.__mul__, inversion.compose_inverse, parsing.parse_expression) == original
    names = [s[NAME] for s in tracer.spans]
    assert names[0] == "op"
    assert {"parsing.parse", "parsing.tokenize", "inversion.compose", "inversion.default_chain",
            "involutions.apply", "multivector.product"} <= set(names)
    by_index = tracer.spans
    for s in by_index[1:]:
        parent = by_index[s[PARENT]]
        assert parent[START] <= s[START] <= s[END] <= parent[END]
    products = [s for s in tracer.spans if s[NAME] == "multivector.product"]
    assert all(s[PAIRS] is not None and s[PAIRS] >= 1 for s in products)
    assert any(tracer.spans[s[PARENT]][NAME] == "inversion.compose" for s in products)
