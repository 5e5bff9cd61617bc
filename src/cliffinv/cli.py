"""Command-line interface.

Subcommands: inv, disc, map, delta-search, verify, bench.  Exit codes are a
stable contract: 0 success, 1 usage or parse error, 2 element not
invertible, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from typing import Iterator

from .blades import MAX_GENERATORS, Signature
from .errors import CliffordError, LexError, ParseError
from .inversion import (
    compose_inverse,
    default_chain,
    discriminant,
    discriminant_closed_form,
)
from .involutions import NAMED_DELTAS, delta_solutions, named_map_matches
from .multivector import Multivector
from .parsing import parse_expression

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_INVERTIBLE = 2
EXIT_VERIFY_FAILED = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto this tool's exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int(text: str) -> int:
    """An integer flag value: int(text) for ASCII text only (int() also reads '١' as 1)."""
    if text.isascii():
        with suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _add_signature_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-p", type=_int, default=None, help="generators squaring to -1")
    sub.add_argument("-q", type=_int, default=None, help="generators squaring to +1")


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("expr", nargs="?", help="multivector expression, e.g. '2 + 3*e1 - 1/2*e12'")
    sub.add_argument("--file", help="read the multivector from a JSON file instead")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_batch_flags(sub: argparse.ArgumentParser, samples: int) -> None:
    _add_signature_flags(sub)
    sub.add_argument("--samples", type=_int, default=samples)
    sub.add_argument("--seed", type=_int, default=0)
    sub.add_argument("--bound", type=_int, default=10)
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cliffinv",
        description=(
            f"Exact Clifford algebra calculator for Cl(p,q) with p+q <= {MAX_GENERATORS}: "
            "inverses, discriminants, involutions, and their verification."
        ),
        epilog=(
            "Expression grammar: + -, then *, then unary -, then ^ with an integer "
            "exponent; rationals as a/b; blade symbols ascending (e13, not e31). "
            "Example: cliffinv inv -p 0 -q 1 '2+e1'"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    inv = subs.add_parser("inv", help="invert a multivector")
    _add_signature_flags(inv)
    _add_input_flags(inv)

    disc = subs.add_parser("disc", help="compute the discriminant")
    _add_signature_flags(disc)
    _add_input_flags(disc)
    disc.add_argument(
        "--closed-form",
        action="store_true",
        help="also evaluate the closed-form polynomial (1 <= p+q <= 4) and compare",
    )

    mp = subs.add_parser("map", help="apply rev, conj, main, or psi")
    mp.add_argument("name", choices=sorted(NAMED_DELTAS))
    _add_signature_flags(mp)
    _add_input_flags(mp)

    ds = subs.add_parser("delta-search", help="enumerate grade-sign maps that reverse products on a grade set")
    ds.add_argument("-n", type=_int, required=True, help=f"number of generators (0..{MAX_GENERATORS})")
    ds.add_argument("-I", dest="grades", required=True, help="comma-separated grade set, e.g. 0,1,4")
    ds.add_argument("--json", action="store_true")

    ver = subs.add_parser("verify", help="re-run the randomized identity checks")
    _add_batch_flags(ver, samples=50)

    bench = subs.add_parser("bench", help="time formula inversion against matrix inversion")
    _add_batch_flags(bench, samples=100)

    return parser


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift Python's int-to-str digit limit while exact results are printed.

    Parsing keeps the limit: only output that the tool has already computed
    exactly is formatted without it.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # interpreters without the limit
        yield
        return
    previous = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _signature_from(args: argparse.Namespace) -> Signature:
    return Signature(args.p or 0, args.q or 0)


def _load_multivector(args: argparse.Namespace) -> Multivector:
    if args.file is not None:
        if args.expr is not None:
            raise ValueError("give an expression or --file, not both")
        with open(args.file) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("malformed multivector JSON: nested too deeply") from None
        mv = Multivector.from_json_dict(data)
        if args.p is not None or args.q is not None:
            stated = _signature_from(args)
            if stated != mv.sig:
                raise ValueError(f"flags say {stated} but file contains a {mv.sig} element")
        return mv
    if args.expr is None:
        raise ValueError("an expression or --file is required")
    return parse_expression(args.expr, _signature_from(args))


def _cmd_inv(args: argparse.Namespace) -> int:
    a = _load_multivector(args)
    result = compose_inverse(a, default_chain(a.sig.n))
    with _unlimited_int_digits():
        if args.json:
            payload = {
                "D": str(result.discriminant),
                "factors": [f.to_json_dict() for f in result.factors],
                "inverse": None if result.inverse is None else result.inverse.to_json_dict(),
            }
            print(json.dumps(payload))
        else:
            print(f"D = {result.discriminant}")
            for i, f in enumerate(result.factors, start=1):
                print(f"factor {i} = {f}")
            if result.inverse is None:
                print("not invertible, D = 0")
            else:
                print(f"inverse = {result.inverse}")
    return EXIT_OK if result.inverse is not None else EXIT_NOT_INVERTIBLE


def _cmd_disc(args: argparse.Namespace) -> int:
    a = _load_multivector(args)
    d = discriminant(a)
    closed: Fraction | None = None
    if args.closed_form:
        closed = discriminant_closed_form(a)  # raises for n = 0 or 5
    with _unlimited_int_digits():
        if args.json:
            payload: dict = {"D": str(d)}
            if closed is not None:
                payload["closed_form"] = str(closed)
                payload["match"] = closed == d
            print(json.dumps(payload))
        else:
            print(f"D = {d}")
            if closed is not None:
                print(f"closed form = {closed}")
                print("match" if closed == d else "MISMATCH")
    if closed is not None and closed != d:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_map(args: argparse.Namespace) -> int:
    a = _load_multivector(args)
    image = NAMED_DELTAS[args.name](a.sig.n)(a)
    with _unlimited_int_digits():
        print(json.dumps(image.to_json_dict()) if args.json else str(image))
    return EXIT_OK


def _cmd_delta_search(args: argparse.Namespace) -> int:
    if not 0 <= args.n <= MAX_GENERATORS:
        raise ValueError(f"-n must be in 0..{MAX_GENERATORS}, got {args.n}")
    try:
        grades = sorted({_int(g) for g in args.grades.split(",") if g != ""})
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad grade set {args.grades!r}") from exc
    solutions = delta_solutions(grades, args.n)
    if args.json:
        payload = {
            "n": args.n,
            "grades": grades,
            "solutions": [
                {"delta": f.to_json_list(), "names": named_map_matches(f)} for f in solutions
            ],
        }
        print(json.dumps(payload))
    else:
        for f in solutions:
            names = named_map_matches(f)
            suffix = f"  ({', '.join(names)})" if names else ""
            print(json.dumps(f.to_json_list()) + suffix)
        print(f"{len(solutions)} solution(s) for grades {{{','.join(map(str, grades))}}}, n={args.n}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported here, like bench below, so that the other commands do not load them.
    from .verify import all_signatures, run_verification

    if args.p is None and args.q is None:
        signatures = all_signatures()
    else:
        signatures = [_signature_from(args)]
    results = run_verification(signatures, args.samples, args.seed, args.bound)
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = {
            "passed": not failed,
            "checks": [
                {
                    "signature": {"p": r.sig.p, "q": r.sig.q},
                    "name": r.name,
                    "samples": r.samples,
                    "failures": r.failures,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        print(json.dumps(payload))
    else:
        for r in results:
            status = "ok" if r.passed else f"FAILED ({r.failures}; {r.detail})"
            print(f"{r.sig} {r.name} [{r.samples} samples]: {status}")
        if failed:
            print(f"{len(failed)} check(s) failed")
        else:
            print("all checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

    sig = _signature_from(args)
    report = run_bench(sig, args.samples, args.seed, args.bound)
    if args.json:
        payload = {
            "signature": {"p": sig.p, "q": sig.q},
            "samples": report.samples,
            "seed": report.seed,
            "bound": report.bound,
            "lanes": {
                lane.name: {
                    "mean_ms": lane.mean_s * 1e3,
                    "median_ms": lane.median_s * 1e3,
                    "total_s": lane.total_s,
                }
                for lane in report.lanes
            },
            "speedup_matrix_over_formula": report.speedup,
        }
        print(json.dumps(payload))
    else:
        print(f"{sig}  samples={report.samples}  seed={report.seed}  bound={report.bound}")
        for lane in report.lanes:
            print(
                f"{lane.name:>12}:  mean {lane.mean_s * 1e3:8.3f} ms"
                f"   median {lane.median_s * 1e3:8.3f} ms   total {lane.total_s:7.3f} s"
            )
        print(f"speedup (matrix/formula): {report.speedup:.1f}x")
    return EXIT_OK


_COMMANDS = {
    "inv": _cmd_inv,
    "disc": _cmd_disc,
    "map": _cmd_map,
    "delta-search": _cmd_delta_search,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # parse_known_args instead of parse_args: argparse cannot intersperse
        # option flags between two positionals (map NAME -p 0 -q 2 EXPR), and
        # expressions may start with '-'.  A single leftover token becomes the
        # expression; anything else is a genuine usage error.
        args, extra = parser.parse_known_args(argv)
        if extra:
            if len(extra) == 1 and getattr(args, "expr", object()) is None:
                args.expr = extra[0]
            else:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (LexError, ParseError) as exc:
        print(f"cliffinv: {exc.message} (offset {exc.offset})", file=sys.stderr)
        return EXIT_USAGE
    except (CliffordError, ValueError, OSError) as exc:
        print(f"cliffinv: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
