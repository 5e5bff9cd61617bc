"""In-memory spans recorded around the library's public calls.

The benchmark never edits the library.  For a traced phase it replaces the
public functions and methods listed in `LAYER_CALLS` with thin wrappers,
found by identity in every loaded `cliffinv` module, so calls the library
makes internally (a chain step calling `Multivector.__mul__`, `cli.main`
calling `compose_inverse`) are recorded too.  Uninstalling restores the
originals, so untraced phases run the unmodified code.

A span is a list [name, start_ns, end_ns, parent, root, pairs, result]:
`parent` indexes the enclosing span (-1 for a root), `root` the op or probe
it belongs to, `pairs` the len(a)*len(b) multiply-accumulate work of a
product, and `result` the return value when the tracer keeps results.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Iterable, Sequence

NAME, START, END, PARENT, ROOT, PAIRS, RESULT = range(7)

# (module, class or None, attribute, span name)
LAYER_CALLS = [
    ("cliffinv.multivector", "Multivector", "__mul__", "multivector.product"),
    ("cliffinv.multivector", "Multivector", "to_text", "cli.format"),
    ("cliffinv.multivector", "Multivector", "to_json_dict", "cli.format"),
    ("cliffinv.involutions", "LengthDeltaMap", "__call__", "involutions.apply"),
    ("cliffinv.inversion", None, "default_chain", "inversion.default_chain"),
    ("cliffinv.inversion", None, "alternate_chain", "inversion.alternate_chain"),
    ("cliffinv.inversion", None, "compose_inverse", "inversion.compose"),
    ("cliffinv.inversion", None, "discriminant_closed_form", "inversion.closed_form"),
    ("cliffinv.oracle", None, "regular_matrix", "oracle.regular_matrix"),
    ("cliffinv.oracle", None, "oracle_inverse", "oracle.inverse"),
    ("cliffinv.oracle", None, "oracle_is_invertible", "oracle.is_invertible"),
    ("cliffinv.parsing", None, "tokenize", "parsing.tokenize"),
    ("cliffinv.parsing", None, "parse", "parsing.parse_ast"),
    ("cliffinv.parsing", None, "parse_expression", "parsing.parse"),
    ("cliffinv.cli", None, "main", "cli.main"),
]


class Tracer:
    """Span recorder for one single-threaded benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.roots: list[tuple[int, str]] = []  # (span index, phase) per op or probe
        self.stack: list[int] = []
        self.keep_results = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        rec = [name, time.perf_counter_ns(), 0, parent, root, None, None]
        self.spans.append(rec)
        self.stack.append(idx)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self.stack.pop()

    def root(self, name: str, phase: str) -> list:
        """Open a root span (an op or a probe call) tagged with its phase."""
        self.roots.append((len(self.spans), phase))
        return self.begin(name)

    def _wrap(self, name: str, fn: Callable, product: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            if product:
                other = args[1] if len(args) > 1 else None
                if hasattr(other, "sig"):
                    rec[PAIRS] = len(args[0]) * len(other)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if tracer.keep_results:
                rec[RESULT] = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Swap every LAYER_CALLS target for a recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import cliffinv.cli  # noqa: F401  (load every layer before patching)

        modules = [m for k, m in sys.modules.items() if k == "cliffinv" or k.startswith("cliffinv.")]
        for mod_name, cls_name, attr, span in LAYER_CALLS:
            owner = sys.modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, product=span == "multivector.product")
            if cls_name is not None:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        cli = sys.modules["cliffinv.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.dumps = self._wrap("cli.format", cli.json.dumps, product=False)
        self._patch(cli, "json", proxy)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def drop_results(self) -> None:
        for rec in self.spans:
            rec[RESULT] = None

    def write(self, path, meta: dict) -> None:
        """Write every span (without results) as one JSON document."""
        phases = dict(self.roots)
        payload = {
            "meta": meta,
            "fields": ["name", "start_ns", "end_ns", "parent", "root", "pairs"],
            "root_phases": {str(k): v for k, v in phases.items()},
            "spans": [rec[:RESULT] for rec in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def covered_length(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        rec[END] - rec[START] - covered_length(rec[START], rec[END], children.get(i, ()))
        for i, rec in enumerate(spans)
    ]
