"""One straight-line kernel function per integer plan of `multivector`.

`multivector._fold` runs a plan's tables on a row loop for its first runs
and then calls the function built here.  This module is imported on the
first compile (`multivector._compile`), so a process that compiles nothing
does not pay for compiling its source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .multivector import _Plan, _Run, _Seed, _Table


def compile_plan(plan: _Plan) -> Callable[[list[int], _Seed], _Run]:
    """A straight-line function of (x, y) that returns what `multivector._loop` returns.

    The function unpacks x (and y) into locals once and has one statement
    per sum: per mask that a fold can reach from the masks its operands can
    be nonzero on.  A weight's sign becomes its term's sign, and terms of
    one weight magnitude share one factor, `2*(x1*x6 - x2*x5 + ...)`.  A
    chain kernel returns (d, None) right after its last step when d or the
    seed is zero.  The source holds the tables' integers only, one term a
    line.  `MAX_GENERATORS` bounds the function: the largest plan, the
    five-generator product plan, has 1024 entries.
    """
    dim = plan.dim
    xs = {m: f"x{m}" for m in range(dim)}
    body = [f"{', '.join(xs.values())}, = x"]

    def fold(table: _Table, xs: dict[int, str], ys: dict[int, str]) -> dict[int, str]:
        terms: dict[int, list[tuple[int, str, str]]] = {}
        for i, row in table:
            if i in xs:
                for j, w in row:
                    if j in ys:
                        terms.setdefault(i ^ j, []).append((w, xs[i], ys[j]))
        out = {}
        for m, t in sorted(terms.items()):
            out[m] = f"v{len(body)}"
            body.append(f"{out[m]} = ({_sum(t)})")
        return out

    if plan.steps is None:
        ys = {m: f"y{m}" for m in range(dim)}
        body.append(f"{', '.join(ys.values())}, = y")
        result = fold(plan.factors[0], xs, ys)
        ret = "return "
    else:
        entering = []
        for table in plan.steps:
            entering.append(xs)
            xs = fold(table, xs, xs)
        # D's numerator: the unit sum of the last step, or x's unit entry when there are no steps.
        d = xs.get(0, "0")
        body += [f"if not {d} or not y:", f"    return {d}, None"]
        result = {0: "y"}
        for table, a in zip(plan.factors, entering):
            result = fold(table, a, result)
        ret = f"return {d}, "
    body.append(f"{ret}[{', '.join(result.get(m, '0') for m in range(dim))}]")
    namespace: dict = {}
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
