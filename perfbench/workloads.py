"""The four workloads: set-up, one operation, and the exact check of its output.

Each workload owns a pool of inputs generated from the seed (see inputs.py)
and converted once, during set-up, into what the library call takes: a
`Multivector`, an expression string with its `Signature`, or a `cliffinv
inv` argument vector.  The client cycles the pool; every output is checked
exactly, outside the timed call (see `Outcomes`).

The library is called through module attributes (`inversion.compose_inverse`
rather than an imported name) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
from array import array
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs
from cliffinv import inversion, oracle, parsing
from cliffinv.blades import Signature
from cliffinv.multivector import Multivector

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_MISSING = object()


def library_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def element(item: inputs.Item) -> Multivector:
    return Multivector(Signature(item.p, item.q), item.coeffs)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """Base: a pool of op inputs, the op, and the check of one op's output."""

    name = ""
    shape = ""
    batch = 1  # consecutive pool inputs whose quiet times add up to one reported latency

    def __init__(self, seed: int):
        self.seed = seed
        self.items = inputs.GENERATORS[self.name](seed)
        self.elements = [element(it) for it in self.items]
        self.inputs = self.make_inputs()

    def make_inputs(self) -> list:
        return self.elements

    def warm(self) -> None:
        """First op per signature: fills sign tables and lru caches."""
        seen = set()
        for it, x in zip(self.items, self.inputs):
            if (it.p, it.q) not in seen:
                seen.add((it.p, it.q))
                self.op(x)

    def op(self, x):
        raise NotImplementedError

    def inproc_op(self, x):
        """The op as run inside this process, for tracing layer calls."""
        return self.op(x)

    def check(self, k: int, out) -> bool:
        raise NotImplementedError

    def zero_d_count(self, out) -> int:
        """How many elements of the op had D = 0."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    # shared checks -------------------------------------------------------

    def _inverse_ok(self, a: Multivector, result) -> bool:
        """a * inv == 1 for a nonzero D; a zero D only where the oracle finds a singular matrix."""
        if result.inverse is None:
            return result.discriminant == 0 and not oracle.oracle_is_invertible(a)
        return result.discriminant != 0 and a * result.inverse == Multivector.unit(a.sig)


class DenseN5(Workload):
    name = "dense-n5"
    shape = "dense n=5 elements, 32 integer coefficients in [-10, 10]"

    def op(self, a):
        return inversion.compose_inverse(a, inversion.default_chain(a.sig.n))

    def check(self, k, out):
        return self._inverse_ok(self.elements[k], out)

    def zero_d_count(self, out):
        return out.discriminant == 0


class SparseText(Workload):
    name = "sparse-text"
    shape = "1-4 term rational expressions over every signature with n >= 1"

    def make_inputs(self):
        return [(it.text, a.sig) for it, a in zip(self.items, self.elements)]

    def op(self, x):
        text, sig = x
        a = parsing.parse_expression(text, sig)
        result = inversion.compose_inverse(a, inversion.default_chain(sig.n))
        return a, result, None if result.inverse is None else result.inverse.to_text()

    def check(self, k, out):
        a, result, text = out
        expected = self.elements[k]
        if a != expected or not self._inverse_ok(a, result):
            return False
        return text is None or parsing.parse_expression(text, a.sig) == result.inverse

    def zero_d_count(self, out):
        return out[1].discriminant == 0


class VerifyAll(Workload):
    """One op verifies one element; latencies are reported per batch.

    A batch is one dense element per signature plus three zero divisors, in
    pool order.  Per-element op times span 0.02 ms (n = 0) to 30 ms (n = 5),
    so a median over single elements sits between two signature classes and
    jumps with the seed; every batch holds the same mix.  Elements are timed
    one by one, so that each one's quiet time (stats.py) is taken over ops
    short enough to fall between the host's bursts of load.
    """

    name = "verify-all"
    shape = "dense elements of all 21 signatures and zero divisors 1 + b, in batches of 24"
    batch = inputs.VERIFY_BATCH

    def op(self, a):
        return self.verify_one(a)

    def verify_one(self, a):
        n = a.sig.n
        result = inversion.compose_inverse(a, inversion.default_chain(n))
        via_oracle = oracle.oracle_inverse(a)
        full_rank = oracle.oracle_is_invertible(a)
        inv = result.inverse
        round_trips = None if inv is None else (a * inv, inv * a)
        closed = inversion.discriminant_closed_form(a) if 1 <= n <= 4 else None
        dprime = None
        if n in (3, 4):
            dprime = inversion.compose_inverse(a, inversion.alternate_chain(n)).discriminant
        return result.discriminant, inv, via_oracle, full_rank, round_trips, closed, dprime

    def check(self, k, out):
        return self.check_one(k, out)

    def check_one(self, i, out):
        d, inv, via_oracle, full_rank, round_trips, closed, dprime = out
        a = self.elements[i]
        one = Multivector.unit(a.sig)
        if (d == 0) != (not full_rank) or (d == 0) != (inv is None) or inv != via_oracle:
            return False
        if self.items[i].zero_divisor and d != 0:
            return False
        if round_trips is not None and round_trips != (one, one):
            return False
        if closed is not None and closed != d:
            return False
        return dprime is None or dprime == d

    def zero_d_count(self, out):
        return out[0] == 0


class CliInv(Workload):
    name = "cli-inv"
    shape = "one `python -m cliffinv.cli inv` process per sparse-text expression"

    def __init__(self, seed: int):
        from cliffinv import cli

        self.cli = cli
        self.env = library_env()
        self.child_rss_kb = 0
        self.expected: dict[int, tuple[int, bytes]] = {}
        super().__init__(seed)

    def make_inputs(self):
        return [
            ["inv", "-p", str(it.p), "-q", str(it.q), it.text] + (["--json"] if it.json else [])
            for it in self.items
        ]

    def warm(self):
        self.op(self.inputs[0])

    def op(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cliffinv.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=self.env,
            cwd=ROOT,
        )
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def inproc_op(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue().encode()

    def check(self, k, out):
        if k not in self.expected:
            self.expected[k] = self.inproc_op(self.inputs[k])
        code, _ = out
        return code in (0, 2) and out == self.expected[k]

    def zero_d_count(self, out):
        return out[0] == 2

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024


WORKLOADS = {cls.name: cls for cls in (DenseN5, SparseText, VerifyAll, CliInv)}


def setup(name: str, seed: int) -> Workload:
    """Generate the inputs and make the first call per signature."""
    w = WORKLOADS[name](seed)
    w.warm()
    return w


_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.setup({name!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time (import, input generation, first call per signature) in a fresh process."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Outcomes:
    """Per-op bookkeeping that checks every op without timing the check.

    The first output for each pool entry is kept; every later op on that
    entry must return an equal output.  After the run the kept outputs are
    checked exactly, so an op fails if it raised, differed from the first
    output for its input, or matched a first output that fails the check.
    """

    def __init__(self, size: int):
        self.first = [_MISSING] * size
        self.same = [0] * size
        self.attempted = 0
        self.raised = 0
        self.mismatched = 0
        self.first_error = ""

    def add(self, k: int, out, error: Exception | None) -> None:
        self.attempted += 1
        if error is not None:
            self.raised += 1
            self.first_error = self.first_error or repr(error)
            return
        if self.first[k] is _MISSING:
            self.first[k] = out
        elif out != self.first[k]:
            self.mismatched += 1
            return
        self.same[k] += 1

    def outputs(self):
        return [out for out in self.first if out is not _MISSING]

    def failures(self, check) -> int:
        bad = self.raised + self.mismatched
        for k, out in enumerate(self.first):
            if out is _MISSING:
                continue
            try:
                ok = check(k, out)
            except Exception as exc:  # a check that raises is a failed op, not a crash
                ok = False
                self.first_error = self.first_error or repr(exc)
            if not ok:
                bad += self.same[k]
        return bad


class Client:
    """A single closed-loop client: the next op starts when the previous one returns."""

    def __init__(self, w: Workload):
        self.w = w
        self.cursor = 0
        self.outcomes = Outcomes(len(w.inputs))

    def run(self, seconds: float, op=None, tracer=None, phase: str = "", at_least: int = 0):
        """Cycle the pool for `seconds` (and at least `at_least` ops).

        Returns two parallel arrays: the pool index and the latency in ns of
        each op.  Typed arrays (10 bytes an op) keep the benchmark's own
        growth out of the peak RSS it reports.
        """
        op = op or self.w.op
        pool = self.w.inputs
        size = len(pool)
        keys = array("H")
        lat = array("q")
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        while clock() < deadline or len(lat) < at_least:
            k = self.cursor % size
            self.cursor += 1
            error = out = None
            rec = tracer.root("op", phase) if tracer else None
            t0 = clock()
            try:
                out = op(pool[k])
            except Exception as exc:  # counted as a failed op; the client keeps going
                error = exc
            t1 = clock()
            if rec is not None:
                tracer.end(rec)
            keys.append(k)
            lat.append(t1 - t0)
            self.outcomes.add(k, out, error)
        return keys, lat
