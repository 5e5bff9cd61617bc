"""One straight-line kernel function per integer plan of `multivector`.

`multivector._fold` runs a plan's tables on a row loop for its first runs
and then calls the function built here.  This module is imported on the
first compile (`multivector._compile`), so a process that compiles nothing
does not pay for compiling its source.  A plan with a `centre` compiles
through the four-generator halves of `multivector._split`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .inversion import _plans, default_chain
from .multivector import _product_plan, _split

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

    A plan with a `centre` (the product and default-chain plans of Cl(0,5),
    Cl(2,3) and Cl(4,1)) runs the four-generator plan's tables instead: it
    splits x (and y) into the halves A and B by signed sums of the split
    table, folds each half, takes d = dA * dB, and joins mask by mask,
    x_S = s*(A_t + B_t)/2 and x_O = tau*(A_t - B_t)/2, with each half of
    an assembly first scaled by the other half's d.  The halving is exact:
    a product's halves sum to 2*(u_a u_b + v_a v_b), and for d nonzero the
    joined assembly over 2*d and the five-generator one over d both give
    the unique inverse.  So the kernel returns what the tables return.
    """
    dim = plan.dim
    top = dim - 1
    xs = {m: f"x{m}" for m in range(dim)}
    body = [f"{', '.join(xs.values())}, = x"]

    def let(source: str) -> str:
        name = f"v{len(body)}"
        body.append(f"{name} = ({source})")
        return name

    def fold(table: _Table, xs: dict[int, str], ys: dict[int, str]) -> dict[int, str]:
        terms: dict[int, list[tuple[int, str]]] = {}
        for i, row in table:
            if i in xs:
                for j, w in row:
                    if j in ys:
                        terms.setdefault(i ^ j, []).append((w, f"{xs[i]}*{ys[j]}"))
        return {m: let(_sum(t)) for m, t in sorted(terms.items())}

    four, rows = plan, ()
    if plan.centre is not None:
        sig, rows = _split(plan.centre)
        four = _product_plan(sig) if plan.steps is None else _plans(sig, default_chain(4))

    def halves(names: dict[int, str]) -> list[dict[int, str]]:
        """The operand itself, or through the centre its halves A and B."""
        if not rows:
            return [names]
        return [
            {t: let(_sum([(s, names[S]), (h * tau, names[S ^ top])])) for t, (S, s, tau) in enumerate(rows)}
            for h in (1, -1)
        ]

    if plan.steps is None:
        ys = {m: f"y{m}" for m in range(dim)}
        body.append(f"{', '.join(ys.values())}, = y")
        results = [fold(four.factors[0], a, b) for a, b in zip(halves(xs), halves(ys))]
        scales = ["", ""]
        ret = "return "
    else:
        runs = []
        for half in halves(xs):
            entering = []
            for table in four.steps:
                entering.append(half)
                half = fold(table, half, half)
            # D's numerator: the unit sum of the last step, or x's unit entry when there are no steps.
            runs.append((entering, half.get(0, "0")))
        ds = [d for _, d in runs]
        d = ds[0] if len(ds) == 1 else let("*".join(ds))
        body += [f"if not {d} or not y:", f"    return {d}, None"]
        results = []
        for entering, _ in runs:
            result = {0: "y"}
            for table, a in zip(four.factors, entering):
                result = fold(table, a, result)
            results.append(result)
        # Each half's assembly is over its own d: scaled by the other's, both are over dA * dB.
        scales = [f"*{d}" for d in reversed(ds)]
        ret = f"return {d}, "
    result = results[0]
    if rows:
        a, b = ([f"{half[t]}{scale}" for t in range(len(rows))] for half, scale in zip(results, scales))
        result = {}
        for t, (S, s, tau) in enumerate(rows):
            result[S] = f"({_sum([(s, a[t]), (s, b[t])])}) >> 1"
            result[S ^ top] = f"({_sum([(tau, a[t]), (-tau, b[t])])}) >> 1"
    body.append(f"{ret}[{', '.join(result.get(m, '0') for m in range(dim))}]")
    namespace: dict = {}
    exec(compile("def kernel(x, y):\n" + "".join(f"    {line}\n" for line in body), "<plan kernel>", "exec"), namespace)
    return namespace["kernel"]


def _sum(terms: list[tuple[int, str]]) -> str:
    """Source of the sum of w*term over the (w, term) pairs, one term a line, grouped by |w|."""
    groups: dict[int, list[str]] = {}
    for w, term in terms:
        groups.setdefault(abs(w), []).append(f"{'-' if w < 0 else '+'} {term}")
    sums = []
    for mag, lines in sorted(groups.items()):
        body = "\n".join(lines).lstrip("+ ")
        sums.append(body if mag == 1 else f"{mag}*({body})")
    return "\n+ ".join(sums)
