"""Command-line interface.

Every subcommand prints a canonical JSON document to stdout and a short
human-readable summary to stderr.  Exit codes: 0 for a complete positive
result, 1 for a complete negative one, 2 for an incomplete/inconclusive
result, 3 for input or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .exactmath import is_probable_prime
from .fano import (
    EXHAUSTIVE_PRIME_HARD_CAP,
    GrassmannChart,
    _chart_ui,
    fano_system,
    verify_fano_point,
)
from .parsing import (
    ParseError,
    _is_integer_text,
    _join_signed_terms,
    canonical_json,
    parse_input,
)
from .pencil import NonIntegralCharacteristicFormError, smoothness_check
from .quadric import NUM_VARIABLES

# The pipeline, localcert and reduction modules are imported by the handlers
# that use them, so that a command loads only the modules it runs.

__all__ = ["main"]

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INCOMPLETE = 2
EXIT_INPUT_ERROR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _option_ints(option: str, parts) -> tuple[int, ...]:
    """int() of each integer-text part; past Python's conversion limit, a usage error."""
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise _UsageError(f"{option}: integer longer than {limit} digits") from None


def _parse_chart(text: str) -> GrassmannChart:
    """Parse 1-based '--chart i,j' into the internal 0-based chart."""
    parts = text.split(",")
    if len(parts) != 2 or not all(_is_integer_text(p.strip()) for p in parts):
        raise _UsageError(f"--chart expects 'i,j' with integers, got {text!r}")
    i, j = _option_ints("--chart", parts)
    if not (1 <= i < j <= NUM_VARIABLES):
        raise _UsageError(
            f"--chart columns must satisfy 1 <= i < j <= {NUM_VARIABLES}"
        )
    return GrassmannChart((i - 1, j - 1))


def _parse_coords(text: str, expected: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected or not all(
        _is_integer_text(p, signed=True) for p in parts
    ):
        raise _UsageError(
            f"--coords expects {expected} comma-separated integers, got {text!r}"
        )
    return _option_ints("--coords", parts)


def _require_prime(p: int) -> int:
    if p < 2 or not is_probable_prime(p):
        raise _UsageError(f"--prime {p} is not prime")
    return p


def _format_char_form(coeffs: Sequence[int]) -> str:
    """Human rendering of an integer polynomial in t, highest degree first."""
    monomials = ["", "t"] + [f"t^{k}" for k in range(2, len(coeffs))]
    terms = [(coeffs[k], monomials[k]) for k in range(len(coeffs) - 1, -1, -1)]
    return _join_signed_terms(terms) or "0"


def _emit(document: dict | None, summary_lines: Sequence[str]) -> None:
    if document is not None:
        sys.stdout.write(canonical_json(document) + "\n")
    for line in summary_lines:
        sys.stderr.write(line + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    from .pipeline import POSITIVE_VERDICT, PipelineConfig, run_pipeline

    cfg = PipelineConfig(
        input_path=args.file,
        good_prime_samples=tuple(args.good_primes),
        lift_precision=args.lift_precision,
        workers=args.workers,
    )
    certificate = run_pipeline(cfg)
    lines = [f"verdict: {certificate['verdict']}"]
    for entry in certificate["local_certificates"]:
        liftable = entry.get("liftable", entry.get("smooth_reduction"))
        lines.append(f"  place {entry['place']}: {entry['kind']}, ok={liftable}")
    for reason in certificate["incomplete_reasons"]:
        lines.append(f"  incomplete: {reason}")
    _emit(certificate, lines)
    return EXIT_POSITIVE if certificate["verdict"] == POSITIVE_VERDICT else EXIT_INCOMPLETE


def _cmd_charform(args) -> int:
    pencil = parse_input(args.file).pencil
    coeffs = list(pencil.char_form.coeffs)
    verdict = smoothness_check(pencil)
    document = {
        "characteristic_form": {
            "variable": "t",
            "coefficients_lowest_first": coeffs,
        },
        "pretty": _format_char_form(coeffs),
        "smoothness": verdict,
    }
    _emit(document, [f"f(t) = {document['pretty']}", f"smoothness: {verdict}"])
    return EXIT_POSITIVE


def _cmd_fano_search(args) -> int:
    from .localcert import search_smooth_points

    parsed = parse_input(args.file)
    prime = _require_prime(args.prime)
    charts = None if args.chart is None else [_parse_chart(args.chart)]
    # ValueError above the scan cap, which main() maps to exit 3.
    points = search_smooth_points(parsed.pencil, prime, charts=charts)
    document = {
        "prime": prime,
        "mode": "exhaustive",
        "points": [
            {
                "chart": _chart_ui(chart),
                "coordinates": list(point),
                "jacobian_rank": rank,
            }
            for chart, point, rank in points
        ],
        "count": len(points),
    }
    if points:
        _emit(document, [f"found {len(points)} smooth point(s) over F_{prime}"])
        return EXIT_POSITIVE
    _emit(
        document,
        [f"exhaustive scan: no smooth F_{prime}-point on the searched charts"],
    )
    return EXIT_NEGATIVE


def _cmd_verify_point(args) -> int:
    parsed = parse_input(args.file)
    prime = _require_prime(args.prime)
    chart = _parse_chart(args.chart)
    coords = _parse_coords(args.coords, 8)
    system = fano_system(parsed.pencil, chart)
    report = verify_fano_point(system, tuple(c % prime for c in coords), prime)
    document = {
        "prime": prime,
        "chart": _chart_ui(chart),
        "coordinates": list(coords),
        "on_system": report.on_fano,
        "jacobian_rank": report.jacobian_rank,
        "smooth": report.smooth,
    }
    _emit(
        document,
        [
            f"on_system={report.on_fano} jacobian_rank={report.jacobian_rank} "
            f"smooth={report.smooth}"
        ],
    )
    return EXIT_POSITIVE if report.smooth else EXIT_NEGATIVE


def _cmd_verify_ambient(args) -> int:
    from .localcert import verify_projective_point

    parsed = parse_input(args.file)
    coords = _parse_coords(args.coords, 6)
    prime: Optional[int] = None
    if args.prime is not None:
        prime = _require_prime(args.prime)
    try:
        on_intersection = verify_projective_point(parsed.pencil, coords, p=prime)
    except ValueError as error:
        raise _UsageError(str(error))
    document = {
        "prime": prime,
        "coordinates": list(coords),
        "on_intersection": on_intersection,
    }
    field = "Q" if prime is None else f"F_{prime}"
    _emit(document, [f"point on X over {field}: {on_intersection}"])
    return EXIT_POSITIVE if on_intersection else EXIT_NEGATIVE


def _cmd_reduction(args) -> int:
    from .reduction import cone_check, mod2_degeneracy, singular_locus

    parsed = parse_input(args.file)
    prime = _require_prime(args.prime)
    if prime == 2:
        report = dict(mod2_degeneracy(parsed.pencil))
        report["prime"] = 2
        _emit(report, [f"mod 2: {report['verdict']}"])
        return EXIT_POSITIVE
    try:
        locus = singular_locus(parsed.pencil, prime)
    except ValueError as error:
        # a form vanishes mod p, not a complete intersection mod p, or the
        # kernel candidate cap
        _emit({"error": str(error)}, [f"error: {error}"])
        return EXIT_INCOMPLETE
    document = {
        "prime": prime,
        "points": [list(pt) for pt in locus.points],
        "ambient_jacobian_ranks": list(locus.ranks),
        "method": locus.method,
        "non_conical": cone_check(locus),
    }
    _emit(
        document,
        [
            f"singular locus mod {prime}: {len(locus.points)} point(s), "
            f"method={locus.method}, non_conical={cone_check(locus)}"
        ],
    )
    return EXIT_POSITIVE


# ---------------------------------------------------------------------------
# Parser construction and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="quadpencil",
        description=(
            "Exact-arithmetic local-rationality certification for the "
            "intersection of two quadrics in P^5."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="run the full pipeline and emit the certificate"
    )
    p_analyze.add_argument("file", help="input file with Q1:/Q2: lines")
    p_analyze.add_argument(
        "--workers",
        type=int,
        default=8,
        help="accepted for compatibility (must be >= 1); has no effect",
    )
    p_analyze.add_argument(
        "--lift-precision",
        type=int,
        default=3,
        dest="lift_precision",
        help="certify Newton lifts modulo p^k (default k = 3)",
    )
    p_analyze.add_argument(
        "--good-primes",
        default="3,5,7,11,13",
        dest="good_primes_text",
        help="comma-separated odd primes to sample as good places",
    )
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_charform = sub.add_parser(
        "charform", help="print the characteristic form f(t) = -det(M1 - t*M2)"
    )
    p_charform.add_argument("file")
    p_charform.set_defaults(handler=_cmd_charform)

    p_search = sub.add_parser(
        "fano-search",
        help=(
            "scan the 15 charts exhaustively for smooth F_p-points "
            f"(p <= {EXHAUSTIVE_PRIME_HARD_CAP})"
        ),
    )
    p_search.add_argument("file")
    p_search.add_argument("--prime", type=int, required=True)
    p_search.add_argument(
        "--chart",
        default=None,
        help="restrict to one chart, as 1-based columns 'i,j'",
    )
    p_search.set_defaults(handler=_cmd_fano_search)

    p_verify = sub.add_parser(
        "verify-point", help="verify one chart point on the Fano system mod p"
    )
    p_verify.add_argument("file")
    p_verify.add_argument("--prime", type=int, required=True)
    p_verify.add_argument("--chart", required=True, help="1-based columns 'i,j'")
    p_verify.add_argument("--coords", required=True, help="a1,...,a8")
    p_verify.set_defaults(handler=_cmd_verify_point)

    p_ambient = sub.add_parser(
        "verify-ambient",
        help="verify a projective point on X = {Q1 = Q2 = 0}, over Q or F_p",
    )
    p_ambient.add_argument("file")
    p_ambient.add_argument("--coords", required=True, help="c1,...,c6")
    p_ambient.add_argument("--prime", type=int, default=None)
    p_ambient.set_defaults(handler=_cmd_verify_ambient)

    p_reduction = sub.add_parser(
        "reduction", help="analyze the reduction of the pencil mod p"
    )
    p_reduction.add_argument("file")
    p_reduction.add_argument("--prime", type=int, required=True)
    p_reduction.set_defaults(handler=_cmd_reduction)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(_normalize_args(args))
    except _UsageError as error:
        sys.stderr.write(f"error: {error}\n")
        return EXIT_INPUT_ERROR
    except NonIntegralCharacteristicFormError as error:
        # Every subcommand but analyze, which records it in the certificate.
        _emit({"error": str(error)}, [f"error: {error}"])
        return EXIT_INCOMPLETE
    except ParseError as error:
        sys.stderr.write(f"input error: {error}\n")
        return EXIT_INPUT_ERROR
    except OSError as error:
        sys.stderr.write(f"cannot read input: {error}\n")
        return EXIT_INPUT_ERROR
    except ValueError as error:
        sys.stderr.write(f"error: {error}\n")
        return EXIT_INPUT_ERROR


def _normalize_args(args):
    """Parse analyze's --good-primes text into ints.

    PipelineConfig checks the values (odd primes, workers >= 1); main() maps
    its ValueError to exit 3.
    """
    if getattr(args, "good_primes_text", None) is not None:
        parts = [p.strip() for p in args.good_primes_text.split(",") if p.strip()]
        if not parts or not all(_is_integer_text(p) for p in parts):
            raise _UsageError(
                f"--good-primes expects comma-separated primes, got "
                f"{args.good_primes_text!r}"
            )
        args.good_primes = tuple(int(p) for p in parts)
    return args


if __name__ == "__main__":
    sys.exit(main())
