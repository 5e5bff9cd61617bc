"""Mutation checks: each row breaks one copy of the library, and its tests must fail.

Run from the repository root, with pytest installed:

    python tools/mutants.py

Each row gives a file, an anchor text that must occur exactly once in it, the
anchor's replacement, and the narrowest test ids known to kill it.  First the
union of the rows' test ids runs once, in one pytest process, on an unedited
copy of `src/` and `tests/`, and must pass, or a failure could not be told
from a kill.  Then for each row the script copies
`src/` and `tests/` to a temporary directory, applies the edit and runs
`python -m pytest -x -q` on the row's tests there, with a timeout.  It prints
one JSON line per row: its name, its result and the seconds taken.  The
result is `killed` when the tests fail or time out, `survived` when they
pass, and `stale` when the anchor does not occur exactly once.  The script
exits 1 on any survivor, stale anchor or failing unedited run.

Rows are only added.  A row that is removed, for example because it proves
to be an equivalent mutant, is named in CHANGES.md with the reason.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

KERNELS = ("tests/test_kernels.py::test_compiled_kernel_equals_the_row_loop",)
SIGN_TABLE = ("tests/test_blades.py::TestProductSignTable",)

# (name, file, anchor, replacement, tests)
ROWS: tuple[tuple[str, str, str, str, tuple[str, ...]], ...] = (
    (
        "kernel-grouped-factor-dropped",
        "src/cliffinv/codegen.py",
        'f"{mag}*({body})"',
        'f"({body})"',
        KERNELS,
    ),
    (
        "kernel-grouped-term-sign-flipped",
        "src/cliffinv/codegen.py",
        "'-' if w < 0 else '+'",
        "'-' if w < 0 and w != -2 else '+'",
        KERNELS,
    ),
    (
        "kernel-zero-d-return-dropped",
        "src/cliffinv/codegen.py",
        'body += [f"if not {d} or not y:", f"    return {d}, None"]',
        "pass",
        KERNELS,
    ),
    (
        "kernel-assembly-seeded-with-one",
        "src/cliffinv/codegen.py",
        'result = {0: "y"}',
        'result = {0: "1"}',
        KERNELS,
    ),
    (
        "sign-table-shift-by-k",
        "src/cliffinv/blades.py",
        "(a >> (k + 1)).bit_count()",
        "(a >> k).bit_count()",
        SIGN_TABLE,
    ),
    (
        "sign-table-neg-mask-dropped",
        "src/cliffinv/blades.py",
        "((a >> (k + 1)).bit_count() + ((a & neg) >> k)) & 1",
        "(a >> (k + 1)).bit_count() & 1",
        SIGN_TABLE,
    ),
    (
        "sign-table-half-not-negated",
        "src/cliffinv/blades.py",
        "row += [-s for s in row] if flip else row",
        "row += row",
        SIGN_TABLE,
    ),
    (
        "closed-form-3-cross-term-halved",
        "src/cliffinv/inversion.py",
        "4 * cross**2",
        "2 * cross**2",
        ("tests/test_inversion.py::TestClosedForm",),
    ),
    (
        "closed-form-4-pair-term-halved",
        "src/cliffinv/inversion.py",
        "return 4 * (t1**2 + t2**2)",
        "return 2 * (t1**2 + t2**2)",
        ("tests/test_inversion.py::TestClosedForm",),
    ),
    (
        "oracle-back-substitution-sign",
        "src/cliffinv/oracle.py",
        "s -= ri[j] * y[j]",
        "s += ri[j] * y[j]",
        ("tests/test_oracle.py::TestOracleIntegerBackSubstitution",),
    ),
    (
        "parser-negated-literal-unsigned",
        "src/cliffinv/parsing.py",
        "(-num, den)",
        "(num, den)",
        ("tests/test_parsing.py::TestParseEval",),
    ),
    (
        "term-gcd-skipped",
        "src/cliffinv/multivector.py",
        "g = gcd(num, den)",
        "g = 1",
        ("tests/test_multivector.py::TestOneTermProduct",),
    ),
    (
        "delta-constraint-sign-swapped",
        "src/cliffinv/involutions.py",
        "return -1 if (self.k * self.l - self.s) & 1 else 1",
        "return 1 if (self.k * self.l - self.s) & 1 else -1",
        ("tests/test_involutions.py::TestDeltaSolutions",),
    ),
    (
        "verify-zero-divisors-dropped",
        "src/cliffinv/verify.py",
        "elements += [(None, Multivector(sig, {0: 1, b: 1})) for b in zero_divisors]",
        "pass",
        ("tests/test_verify.py::TestFaultInjection",),
    ),
    (
        "frozen-fields-assignable",
        "src/cliffinv/blades.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "self.__dict__[name] = value",
        ("tests/test_value_classes.py::test_fields_cannot_be_assigned_or_deleted",),
    ),
    (
        "row-loop-target-or",
        "src/cliffinv/multivector.py",
        "acc[i ^ j] += w * xi * y[j]",
        "acc[i | j] += w * xi * y[j]",
        KERNELS,
    ),
    (
        "kernel-target-or",
        "src/cliffinv/codegen.py",
        "terms.setdefault(i ^ j, [])",
        "terms.setdefault(i | j, [])",
        KERNELS,
    ),
    (
        "assembly-den-passed-as-one",
        "src/cliffinv/inversion.py",
        "_fold(_plans(a.sig, chain), x, den)",
        "_fold(_plans(a.sig, chain), x, 1)",
        ("tests/test_inversion.py::TestKernelEquivalence",),
    ),
    (
        "product-plan-last-sign-negated",
        "src/cliffinv/multivector.py",
        "tuple(enumerate(signs[i * dim : (i + 1) * dim]))",
        "tuple((j, -s if i == j == dim - 1 else s) for j, s in enumerate(signs[i * dim : (i + 1) * dim]))",
        ("tests/test_multivector.py::TestProduct::test_matches_blade_by_blade_reference",),
    ),
    (
        "plans-pair-signs-swapped",
        "src/cliffinv/inversion.py",
        "signs[i * dim + j] * delta[j] + signs[j * dim + i] * delta[i]",
        "signs[j * dim + i] * delta[j] + signs[i * dim + j] * delta[i]",
        ("tests/test_inversion.py::TestComposeInverse",),
    ),
    (
        "oracle-one-orbit",
        "src/cliffinv/oracle.py",
        "orbits = tuple(eps for eps in range(1 << k) if all(eps <= eps ^ h for h in by_pattern))",
        "orbits = (0,)",
        ("tests/test_oracle.py::TestOracleInverse",),
    ),
    (
        "oracle-rhs-sign-negated",
        "src/cliffinv/oracle.py",
        "cols[r][j] = sign * e_Ss[S]",
        "cols[r][j] = -sign * e_Ss[S]",
        ("tests/test_oracle.py::TestOracleInverse",),
    ),
    (
        # TestSignature's literal masks kill this one; TestProductSignTable kills it too, since its second
        # reference reads each generator's square from Signature.square (row signature-neg-mask-vs-sign-table).
        "signature-neg-mask-from-q",
        "src/cliffinv/blades.py",
        "neg_mask=(1 << p) - 1",
        "neg_mask=(1 << q) - 1",
        ("tests/test_blades.py::TestSignature",),
    ),
    (
        "result-equality-without-factors",
        "src/cliffinv/inversion.py",
        "return self.discriminant, self.factors, self.inverse",
        "return self.discriminant, self.inverse",
        ("tests/test_inversion.py::TestInverseResult",),
    ),
    (
        "centre-split-sign-flipped",
        "src/cliffinv/codegen.py",
        "(s, names[S])",
        "(-s, names[S])",
        KERNELS,
    ),
    (
        "centre-join-odd-half-summed",
        "src/cliffinv/codegen.py",
        "(-tau, b[t])",
        "(tau, b[t])",
        KERNELS,
    ),
    (
        "centre-taken-when-pseudoscalar-squares-to-minus-one",
        "src/cliffinv/multivector.py",
        "product_signs(sig)[-1] == 1",
        "product_signs(sig)[-1] != 0",
        KERNELS,
    ),
    (
        "signature-neg-mask-vs-sign-table",
        "src/cliffinv/blades.py",
        "neg_mask=(1 << p) - 1",
        "neg_mask=(1 << q) - 1",
        SIGN_TABLE,
    ),
)


def _copy(dest: Path) -> Path:
    """A copy of src/ and tests/ under dest, without bytecode."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether the tests pass in tree (a timeout is a failure), and the seconds taken."""
    # No installed third-party plugin is loaded: the tests use none, and one
    # such as hypothesis's takes longer to import than most rows' tests run.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, round(time.perf_counter() - start, 2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        union = list(dict.fromkeys(test for row in ROWS for test in row[4]))
        ok, seconds = _pytest(_copy(Path(tmp) / "base"), tuple(union))
        print(json.dumps({"name": "unedited", "tests": union, "passed": ok, "seconds": seconds}), flush=True)
        for k, (name, file, anchor, replacement, tests) in enumerate(ROWS):
            tree = _copy(Path(tmp) / f"m{k}")
            path = tree / file
            text = path.read_text()
            if text.count(anchor) != 1:
                result, seconds = "stale", 0.0
            else:
                path.write_text(text.replace(anchor, replacement))
                passed, seconds = _pytest(tree, tests)
                result = "survived" if passed else "killed"
            print(json.dumps({"name": name, "result": result, "seconds": seconds}), flush=True)
            ok &= result == "killed"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
