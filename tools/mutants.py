"""Mutation checks: each row breaks one copy of the library, and its tests must fail.

Run from the repository root, with pytest installed:

    python tools/mutants.py

Each row gives a file, an anchor text that must occur exactly once in it, the
anchor's replacement, and the test ids to run.  First each test set the rows
name runs once on an unedited copy of `src/` and `tests/`, and must pass, or
a failure could not be told from a kill.  Then for each row the script copies
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

KERNELS = ("tests/test_kernels.py",)
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
)


def _copy(dest: Path) -> Path:
    """A copy of src/ and tests/ under dest, without bytecode."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether the tests pass in tree (a timeout is a failure), and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
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
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        base = _copy(Path(tmp) / "base")
        for tests in dict.fromkeys(row[4] for row in ROWS):
            passed, seconds = _pytest(base, tests)
            print(json.dumps({"name": "unedited", "tests": list(tests), "passed": passed, "seconds": seconds}), flush=True)
            ok &= passed
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
