"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-n5 --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The library is imported from `src/`
(it need not be installed).  `--trace 0` measures the end-to-end metrics
with no tracing; `--trace 1` runs the traced phases of layers.py and
reports the per-layer metrics, writing its spans under perfbench/out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("dense-n5", "sparse-text", "verify-all", "cli-inv")
SETUP_REPEATS = 15


def git_revision() -> str | None:
    """The checkout's commit from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def metadata(args, ops: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "ops": ops,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
    }


def measure(w, seconds: float) -> dict:
    """End-to-end metrics with tracing off.

    The run is cut into SETUP_REPEATS stretches with one fresh-process
    set-up measured after each, so the set-up samples are spread over the
    run rather than bunched where one burst of load can move them all.  The
    set-ups come out of the run's time: a run lasts `seconds` whatever its
    set-up costs.  The latency metrics are taken over the pool's inputs,
    each at its quiet time (see stats.py).
    """
    import stats
    from workloads import Client, setup_seconds

    client = Client(w)
    keys, lat = array("H"), array("q")
    setup_s = []
    start = time.perf_counter()
    for i in range(SETUP_REPEATS):
        stretch_end = start + (i + 1) * seconds / SETUP_REPEATS
        k, ns = client.run(max(0.0, stretch_end - time.perf_counter()))
        keys.extend(k)
        lat.extend(ns)
        setup_s.append(setup_seconds(w.name, w.seed))
    # Read before the statistics below: sorting the samples allocates a
    # list in proportion to the op count.
    peak_rss_mb = w.peak_rss_mb()
    failed = client.outcomes.failures(w.check)
    quiet = stats.quiet_times(keys, lat, len(w.inputs), w.batch)
    ops = len(lat)
    tail = stats.tail_percentile(len(quiet))
    all_tail = stats.tail_percentile(ops)
    metrics = {
        "ops_per_s": (len(quiet) * w.batch / (sum(quiet) / 1e9), "1/s"),
        "latency_p50_ms": (stats.median(quiet) / 1e6, "ms"),
        "latency_tail_ms": (stats.percentile(quiet, tail) / 1e6, "ms"),
        "setup_s": (stats.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    repeats = f"each the fastest of ~{ops // (len(quiet) * w.batch)} repeats"
    if w.batch > 1:
        quiet_note = f"of {len(quiet)} batches' quiet times (sums over {w.batch} inputs, {repeats})"
    else:
        quiet_note = f"of {len(quiet)} inputs' quiet times ({repeats})"
    notes = {
        "ops_per_s": f"one pass over the pool at quiet times; {ops} ops on {w.shape}",
        "latency_p50_ms": f"p50 {quiet_note}",
        "latency_tail_ms": f"p{tail:g} {quiet_note} (highest with >= 10 samples beyond)",
        "setup_s": f"median of {len(setup_s)} fresh processes",
        "peak_rss_mb": "max child ru_maxrss" if w.name == "cli-inv" else "ru_maxrss of this process",
    }
    every_op = (f"every op, host noise included: p50 {stats.median(lat) / 1e6:.6g} ms, "
                f"p{all_tail:g} {stats.percentile(lat, all_tail) / 1e6:.6g} ms, "
                f"{ops / (sum(lat) / 1e9):.6g} ops/s over {ops} ops")
    return {
        "metrics": metrics,
        "notes": notes,
        "extra": [every_op],
        "attempted": client.outcomes.attempted,
        "failed": failed,
        "error": client.outcomes.first_error,
        "ops": {"timed": client.outcomes.attempted, "pool": len(w.inputs), "inputs_timed": len(quiet),
                "tail_percentile": tail},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cliffinv benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cliffinv" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'cliffinv'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.trace:
        w = workloads.setup(args.workload, args.seed)
        import layers

        res = layers.traced_run(w, args.seconds)
        notes = res["sources"]
    else:
        w = workloads.setup(args.workload, args.seed)
        res = measure(w, args.seconds)
        notes = res["notes"]

    meta = metadata(args, res["ops"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    error_rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':28s} {error_rate:14.6g} {'ratio':6s} {res['failed']} of {res['attempted']} ops failed")
    for line in res.get("extra", ()):
        print(f"  {line}")
    if res["error"]:
        print(f"  first error: {res['error']}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        res["tracer"].write(path, meta)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
