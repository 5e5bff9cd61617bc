"""Straight-line kernels generated from the integer plans of `multivector`.

`multivector._fold` runs a plan's tables on a row loop for its first runs
and then calls the function built here.  This module is imported on the
first compile (`multivector._compile`), so a process that compiles nothing
does not pay for compiling its source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .multivector import _Plan, _Run, _Seed, _Table

# Table entries per compiled part.  Compiling holds about 1.5 KB per entry
# until it returns, and that high-water mark stays in the process; a larger
# plan is compiled in parts, which its kernel calls in turn.
PART = 256


def compile_plan(plan: _Plan) -> Callable[[list[int], _Seed], _Run]:
    """A straight-line function of (x, y) that returns what `multivector._loop` returns.

    Each fold becomes one sum of products per mask it can reach from the
    masks its operands can be nonzero on, so a chain kernel carries only
    the masks its proven tables reach.  A weight's sign becomes its term's
    sign, and terms of one weight magnitude share one factor:
    `2*(x1*x6 - x2*x5 + ...)`.  A chain kernel returns (d, None) as soon as
    d or the seed is known to be zero.  The sums are compiled in runs of at
    most `PART` entries, none spanning that check: each run is a function
    that unpacks the argument lists it reads, takes the other values it
    reads one by one and returns the values it computes, and the kernel
    calls the runs in turn.  The source is built from the tables' integers
    only, one term a line, which keeps the code's position table small.
    """
    dim = plan.dim
    sums: list[tuple[str, str, tuple[str, ...], int]] = []  # (local, source, names read, entries)

    def fold(table: _Table, xs: dict[int, str], ys: dict[int, str]) -> dict[int, str]:
        terms: dict[int, list[tuple[int, str, str]]] = {}
        for i, row in table:
            if i in xs:
                for j, m, w in row:
                    if j in ys:
                        terms.setdefault(m, []).append((w, xs[i], ys[j]))
        out = {}
        for m, t in sorted(terms.items()):
            out[m] = f"v{len(sums)}"
            sums.append((out[m], _sum(t), tuple(dict.fromkeys(v for _, a, b in t for v in (a, b))), len(t)))
        return out

    # The argument lists, each unpacked into locals by the runs that read them.
    lists = {"x": {m: f"x{m}" for m in range(dim)}}
    check = d = None
    if plan.steps is None:
        lists["y"] = {m: f"y{m}" for m in range(dim)}
        ys = fold(plan.factors[0], lists["x"], lists["y"])
    else:
        xs, entering = lists["x"], []
        for table in plan.steps:
            entering.append(xs)
            xs = fold(table, xs, xs)
        # D's numerator: the unit sum of the last step, or x's unit entry when there are no steps.
        d, check = xs.get(0, "0") if plan.steps else "x[0]", len(sums)
        ys = {0: "y"}
        for table, a in zip(plan.factors, entering):
            ys = fold(table, a, ys)
    source = {name: v for v, names in lists.items() for name in names.values()}

    namespace: dict = {}
    body: list[str] = []
    run: list[tuple[str, str, tuple[str, ...], int]] = []
    for k, entry in enumerate([*sums, None]):
        if run and (entry is None or k == check or sum(e[3] for e in run) + entry[3] > PART):
            names = [e[0] for e in run]
            params = list(dict.fromkeys(source.get(v, v) for e in run for v in e[2] if v not in names))
            lines = [f"def part{k}({', '.join(params)}):"]
            lines += [f"    {', '.join(lists[v].values())}, = {v}" for v in params if v in lists]
            # A sum no later sum of the run reads goes straight into the returned tuple.
            read = {v for e in run for v in e[2]}
            lines += [f"    {name} = ({src})" for name, src, _, _ in run if name in read]
            returned = ", ".join(name if name in read else f"({src})" for name, src, _, _ in run)
            exec(compile("\n".join(lines) + f"\n    return {returned},\n", "<plan kernel>", "exec"), namespace)
            body.append(f"{', '.join(names)}, = part{k}({', '.join(params)})")
            run = []
        if k == check:
            body += [f"if not {d} or not y:", f"    return {d}, None"]
        if entry:
            run.append(entry)
    result = f"[{', '.join(ys.get(m, '0') for m in range(dim))}]"
    body.append(f"return {result}" if check is None else f"return {d}, {result}")
    exec(compile("def kernel(x, y):\n" + "".join(f"    {line}\n" for line in body), "<plan kernel>", "exec"), namespace)
    return namespace["kernel"]


def _sum(terms: list[tuple[int, str, str]]) -> str:
    """Source of the sum of w*a*b over the terms, one term a line, grouped by |w|."""
    groups: dict[int, list[str]] = {}
    for w, a, b in terms:
        groups.setdefault(abs(w), []).append(f"{'-' if w < 0 else '+'} {a}*{b}")
    sums = []
    for mag, lines in sorted(groups.items()):
        body = "\n".join(lines).lstrip("+ ")
        sums.append(body if mag == 1 else f"{mag}*({body})")
    return "\n+ ".join(sums)
