"""The traced run: per-layer metrics derived from spans around library calls.

Phases, in order, all on one single-threaded client:

1. count: one traced pass over the whole pool with results kept.  Per-op
   counts come from this pass only, so they repeat exactly for a seed.
2. overhead: alternating untraced and traced blocks for the run's seconds;
   their throughput ratio is the tracing overhead, and the traced blocks'
   span self-times give each layer's share of op time.
3. replay: the default chain re-run step by step through the public
   `LengthDeltaMap.__call__` and `Multivector.__mul__` to time each step and
   the assembly; the replay's D and inverse must equal compose_inverse's.
4. probe: a layer the workload's op never calls is timed by calling its
   public function directly on the workload's own elements, so every layer
   metric exists on every workload.  The metric notes which source it used.
5. fresh processes: sign-table build, bare interpreter, `import cliffinv.cli`.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import time
from collections import defaultdict

import inputs
import stats
from cliffinv import inversion, oracle, parsing
from cliffinv.multivector import Multivector
from tracing import NAME, PAIRS, RESULT, ROOT, START, END, Tracer, self_times
from workloads import ROOT as CHECKOUT
from workloads import Client, Workload, element, library_env

BLOCK_S = 1.0
PROBE_COUNT = 48
REPLAY_PASSES = 3
PROCESS_REPEATS = 11
SIGN_TABLE_REPEATS = 3
VERIFY_SAMPLES = 2
OP_PHASES = ("count", "overhead")

# span name -> (metric, unit, scale from ns)
PER_CALL = {
    "multivector.product": ("multivector.product_us", "us", 1e-3),
    "involutions.apply": ("involutions.apply_us", "us", 1e-3),
    "inversion.default_chain": ("inversion.default_chain_us", "us", 1e-3),
    "inversion.compose": ("inversion.compose_us", "us", 1e-3),
    "inversion.closed_form": ("inversion.closed_form_us", "us", 1e-3),
    "oracle.regular_matrix": ("oracle.regular_matrix_us", "us", 1e-3),
    "oracle.inverse": ("oracle.inverse_ms", "ms", 1e-6),
    "oracle.is_invertible": ("oracle.is_invertible_ms", "ms", 1e-6),
    "parsing.tokenize": ("parsing.tokenize_us", "us", 1e-3),
    "parsing.parse": ("parsing.parse_us", "us", 1e-3),
    "cli.main": ("cli.main_us", "us", 1e-3),
}

SHARE_OF = {
    "multivector.product": "share.multivector",
    "involutions.apply": "share.involutions",
    "inversion.default_chain": "share.default_chain",
    "inversion.alternate_chain": "share.inversion",
    "inversion.compose": "share.inversion",
    "inversion.closed_form": "share.inversion",
    "oracle.regular_matrix": "share.oracle",
    "oracle.inverse": "share.oracle",
    "oracle.is_invertible": "share.oracle",
    "parsing.tokenize": "share.parsing",
    "parsing.parse_ast": "share.parsing",
    "parsing.parse": "share.parsing",
    "cli.format": "share.format",
    "cli.main": "share.cli_main",
    "op": "share.unattributed",
}
SHARES = sorted(set(SHARE_OF.values()) | {"share.startup"})


def replay_chain(a: Multivector, chain, clock=time.perf_counter_ns):
    """compose_inverse's steps re-run through public calls, each step timed.

    Returns (D, inverse or None, per-step ns, assembly ns).  Unlike
    compose_inverse it skips the grade check after each step.
    """
    cur = a
    factors = []
    step_ns = []
    for step in chain.steps:
        t0 = clock()
        f = step(cur)
        cur = cur * f
        step_ns.append(clock() - t0)
        factors.append(f)
    d = cur.scalar_part()
    t0 = clock()
    inv = None
    if d:
        inv = Multivector.scalar(a.sig, 1 / d)
        for f in factors:
            inv = inv * f
    return d, inv, step_ns, clock() - t0


def coeff_bits(result) -> int:
    """Largest numerator or denominator bit length in D and the inverse."""
    values = [result.discriminant]
    if result.inverse is not None:
        values.extend(c for _, c in result.inverse.items())
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def _child_ms(code: str) -> float:
    """Wall time of `python -c code` in a fresh interpreter, in ms.

    No timeout: a wait with a timeout polls with sleeps of up to 50 ms,
    which would be measured as process time.
    """
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], env=library_env(), cwd=CHECKOUT, check=True,
                   stdout=subprocess.DEVNULL)
    return (time.perf_counter_ns() - t0) / 1e6


_IMPORT_CHILD = """\
import time
t0 = time.perf_counter_ns()
import cliffinv.cli
print((time.perf_counter_ns() - t0) / 1e6)
"""

_SIGN_TABLE_CHILD = """\
import time
from cliffinv.blades import Signature, product_signs
sigs = [Signature(p, q) for p, q in {sigs!r}]
t0 = time.perf_counter_ns()
for sig in sigs:
    product_signs(sig)
print((time.perf_counter_ns() - t0) / 1e6)
"""


def _child_reports(code: str, repeats: int) -> list[float]:
    """The number each fresh `python -c code` process prints."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=library_env(), cwd=CHECKOUT,
                              capture_output=True, text=True, check=True, timeout=60)
        out.append(float(proc.stdout.strip()))
    return out


ORACLE_CALLS = {
    "oracle.regular_matrix": "regular_matrix",
    "oracle.inverse": "oracle_inverse",
    "oracle.is_invertible": "oracle_is_invertible",
}


def run_probes(w: Workload, tracer: Tracer, missing: set[str], results: list) -> None:
    """Call each layer in `missing` directly on the workload's own elements.

    `results` holds compose_inverse's result for each element.  The closed
    form has no n = 5 case, so a workload with only n = 5 elements probes it
    on seeded dense elements with 1 <= n <= 4 instead.
    """
    elements = w.elements[:PROBE_COUNT]
    texts = [a.to_text() for a in elements]

    def calls(fn, args_list):
        for args in args_list:
            rec = tracer.root("probe", "probe")
            try:
                fn(*args)
            finally:
                tracer.end(rec)

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    from cliffinv import cli

    tracer.install()
    tracer.keep_results = True
    try:
        for name, attr in ORACLE_CALLS.items():
            if name in missing:
                calls(getattr(oracle, attr), [(a,) for a in elements])
        if "inversion.closed_form" in missing:
            small = [a for a in w.elements if 1 <= a.sig.n <= 4][:PROBE_COUNT]
            small = small or [element(it) for it in inputs.closed_form_reference(w.seed)]
            calls(inversion.discriminant_closed_form, [(a,) for a in small])
        if "parsing.parse" in missing:
            calls(parsing.parse_expression, [(t, a.sig) for t, a in zip(texts, elements)])
        if "cli.format" in missing:
            calls(Multivector.to_text, [(r.inverse,) for r in results[:PROBE_COUNT] if r.inverse is not None])
        if "cli.main" in missing:
            calls(main, [(["inv", "-p", str(a.sig.p), "-q", str(a.sig.q), t],) for t, a in zip(texts, elements)])
    finally:
        tracer.keep_results = False
        tracer.uninstall()


def traced_run(w: Workload, seconds: float) -> dict:
    """All per-layer metrics for one workload; see the module docstring."""
    tracer = Tracer()
    client = Client(w)
    size = len(w.inputs)

    tracer.install()
    tracer.keep_results = True
    try:
        client.run(0, op=w.inproc_op, tracer=tracer, phase="count", at_least=size)
    finally:
        tracer.keep_results = False
        tracer.uninstall()
    count_outputs = client.outcomes.outputs()

    untraced: list[tuple[int, int]] = []
    traced: list[tuple[int, int]] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        untraced.extend(zip(*client.run(BLOCK_S / 2)))
        tracer.install()
        try:
            traced.extend(zip(*client.run(BLOCK_S / 2, tracer=tracer, phase="overhead")))
        finally:
            tracer.uninstall()

    failed = attempted = 0
    step_ns: dict[str, list[int]] = defaultdict(list)
    results = []
    for a in w.elements:
        chain = inversion.default_chain(a.sig.n)
        expected = inversion.compose_inverse(a, chain)
        results.append(expected)
        for _ in range(REPLAY_PASSES):
            attempted += 1
            d, inv, steps, assemble = replay_chain(a, chain)
            if d != expected.discriminant or inv != expected.inverse:
                failed += 1
            for i, ns in enumerate(steps, start=1):
                step_ns[f"inversion.step{i}_us"].append(ns)
            if inv is not None:
                step_ns["inversion.assemble_us"].append(assemble)

    run_probes(w, tracer, (set(PER_CALL) | {"cli.format"}) - _names_in(tracer, OP_PHASES), results)

    from cliffinv import verify

    t0 = time.perf_counter()
    verify.run_verification(verify.all_signatures(), VERIFY_SAMPLES, w.seed, inputs.COEFF_BOUND)
    verify_s = time.perf_counter() - t0

    sigs = sorted({(it.p, it.q) for it in w.items})
    sign_ms = _child_reports(_SIGN_TABLE_CHILD.format(sigs=sigs), SIGN_TABLE_REPEATS)
    # Interleaved, so that a burst of load on the shared machine moves all three alike.
    interp, imported, processes = [], [], []
    for i in range(PROCESS_REPEATS):
        interp.append(_child_ms("pass"))
        imported += _child_reports(_IMPORT_CHILD, 1)
        if w.name == "cli-inv":
            k = i % size
            error = out = None
            t0 = time.perf_counter_ns()
            try:
                out = w.op(w.inputs[k])
            except Exception as exc:  # counted as a failed op, like the client's
                error = exc
            processes.append(time.perf_counter_ns() - t0)
            client.outcomes.add(k, out, error)
    failed += client.outcomes.failures(w.check)
    attempted += client.outcomes.attempted

    metrics, sources = _derive(tracer, w, step_ns, count_outputs, traced, untraced)
    metrics["blades.sign_table_ms"] = (stats.median(sign_ms), "ms")
    metrics["cli.interpreter_ms"] = (stats.median(interp), "ms")
    metrics["cli.import_ms"] = (stats.median(imported), "ms")
    metrics["verify.run_verification_s"] = (verify_s, "s")
    for name in ("blades.sign_table_ms", "cli.interpreter_ms", "cli.import_ms"):
        sources[name] = "fresh processes"
    sources["verify.run_verification_s"] = "one call"
    _add_shares(metrics, tracer, w, processes)
    for name in SHARES:
        sources[name] = "op self time" + (" over process time" if processes else "")
    return {
        "metrics": metrics,
        "sources": sources,
        "attempted": attempted,
        "failed": failed,
        "error": client.outcomes.first_error,
        "tracer": tracer,
        "ops": {"count": size, "overhead_traced": len(traced), "overhead_untraced": len(untraced)},
    }


def overhead_ratio(traced, untraced) -> float:
    """Traced over untraced throughput, at the same input mix.

    Blocks cover different stretches of the pool, so each side's time is
    the sum over pool entries of that entry's mean latency, taken over the
    entries both sides ran.
    """
    sides = []
    for lat in (traced, untraced):
        per_key: dict[int, list[int]] = defaultdict(list)
        for k, ns in lat:
            per_key[k].append(ns)
        sides.append(per_key)
    common = sides[0].keys() & sides[1].keys()
    if not common:
        return (sum(ns for _, ns in untraced) / len(untraced)) / (sum(ns for _, ns in traced) / len(traced))
    traced_ns, untraced_ns = (sum(sum(side[k]) / len(side[k]) for k in common) for side in sides)
    return untraced_ns / traced_ns


def _phase_of(tracer: Tracer) -> dict[int, str]:
    return dict(tracer.roots)


def _names_in(tracer: Tracer, phases) -> set[str]:
    phase = _phase_of(tracer)
    return {rec[NAME] for rec in tracer.spans if phase.get(rec[ROOT]) in phases}


def _derive(tracer, w, step_ns, count_outputs, traced, untraced):
    phase = _phase_of(tracer)
    spans = tracer.spans
    by_name: dict[tuple[str, bool], list[int]] = defaultdict(list)
    format_per_root: dict[tuple[int, bool], int] = defaultdict(int)
    for rec in spans:
        in_op = phase.get(rec[ROOT]) in OP_PHASES
        name = rec[NAME]
        if name == "multivector.product" and rec[PAIRS] is None:
            continue
        by_name[(name, in_op)].append(rec[END] - rec[START])
        if name == "cli.format":
            format_per_root[(rec[ROOT], in_op)] += rec[END] - rec[START]

    metrics: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    for span, (metric, unit, scale) in PER_CALL.items():
        samples = by_name.get((span, True)) or by_name.get((span, False))
        sources[metric] = "op" if by_name.get((span, True)) else "probe"
        metrics[metric] = (stats.median(samples) * scale, unit)
    fmt_op = [v for (root, in_op), v in format_per_root.items() if in_op]
    fmt = fmt_op or [v for (root, in_op), v in format_per_root.items() if not in_op]
    metrics["cli.format_us"] = (stats.median(fmt) * 1e-3, "us")
    sources["cli.format_us"] = "op" if fmt_op else "probe"

    for name in ("inversion.step1_us", "inversion.step2_us", "inversion.step3_us", "inversion.assemble_us"):
        metrics[name] = (stats.median(step_ns[name]) * 1e-3, "us")
        sources[name] = "replay"

    count_roots = [i for i, ph in tracer.roots if ph == "count"]
    counted = set(count_roots)
    products = [rec[PAIRS] for rec in spans if rec[NAME] == "multivector.product"
                and rec[PAIRS] is not None and rec[ROOT] in counted]
    metrics["multivector.product_calls"] = (len(products) / len(count_roots), "count")
    metrics["multivector.term_pairs"] = (sum(products) / len(count_roots), "count")
    kept = [rec for rec in spans if rec[RESULT] is not None]
    bits = [coeff_bits(rec[RESULT]) for rec in kept if rec[NAME] == "inversion.compose"]
    metrics["multivector.coeff_bits_max"] = (max(bits), "bits")
    metrics["inversion.zero_d_count"] = (sum(int(w.zero_d_count(out)) for out in count_outputs), "count")
    metrics["oracle.singular_count"] = (
        sum(1 for rec in kept if rec[NAME] == "oracle.is_invertible" and rec[RESULT] is False), "count")
    for name in ("multivector.product_calls", "multivector.term_pairs", "multivector.coeff_bits_max",
                 "inversion.zero_d_count"):
        sources[name] = "op"
    sources["oracle.singular_count"] = sources["oracle.is_invertible_ms"]

    metrics["trace.overhead_ratio"] = (overhead_ratio(traced, untraced), "ratio")
    sources["trace.overhead_ratio"] = "op"
    tracer.drop_results()
    return metrics, sources


def _add_shares(metrics, tracer, w, process_ns) -> None:
    """Each layer's self time as a share of op time.

    Library workloads: summed over the traced overhead-phase ops.  cli-inv
    (given `process_ns`): the in-process `cli.main` pass per op, plus
    interpreter start and import, each over the median `cliffinv inv`
    process time measured alongside them.
    """
    is_cli = bool(process_ns)
    phase_wanted = "count" if is_cli else "overhead"
    phase = _phase_of(tracer)
    selves = self_times(tracer.spans)
    totals: dict[str, float] = defaultdict(float)
    op_ns = 0
    roots = 0
    for i, rec in enumerate(tracer.spans):
        if phase.get(rec[ROOT]) != phase_wanted:
            continue
        totals[SHARE_OF.get(rec[NAME], "share.unattributed")] += selves[i]
        if rec[ROOT] == i:
            op_ns += rec[END] - rec[START]
            roots += 1
    shares = {name: 0.0 for name in SHARES}
    if is_cli:
        per_op = stats.median(process_ns)
        startup = (metrics["cli.interpreter_ms"][0] + metrics["cli.import_ms"][0]) * 1e6
        shares["share.startup"] = startup / per_op
        for name, ns in totals.items():
            if name != "share.unattributed":
                shares[name] = ns / roots / per_op
        shares["share.unattributed"] = 1 - sum(v for k, v in shares.items() if k != "share.unattributed")
    else:
        for name, ns in totals.items():
            shares[name] = ns / op_ns
    for name, value in shares.items():
        metrics[name] = (value, "ratio")
