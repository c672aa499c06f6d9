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
    point_document,
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
    """Exit 3.  Not a ValueError, so argparse lets it out of a type= reader."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _ints(option: str, text: str, count: int = 0) -> tuple[int, ...]:
    """argparse type= reader of an option's comma-separated integers.

    count > 0 wants exactly that many; count 0 wants one or more and skips
    empty parts.  A bad value, or an integer past Python's str-conversion
    limit, is a _UsageError naming the option.
    """
    parts = [part.strip() for part in text.split(",")]
    if not count:
        parts = [part for part in parts if part]
    if (len(parts) != count if count else not parts) or not all(
        _is_integer_text(part, signed=True) for part in parts
    ):
        amount = {0: "comma-separated integers", 1: "an integer"}.get(
            count, f"{count} comma-separated integers")
        raise _UsageError(f"{option} expects {amount}, got {text!r}")
    try:
        return tuple(map(int, parts))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise _UsageError(f"{option}: integer longer than {limit} digits") from None


def _prime(text: str) -> int:
    """argparse type= reader of --prime: one integer, as _ints reads it, that is prime."""
    (p,) = _ints("--prime", text, 1)
    if p < 2 or not is_probable_prime(p):
        raise _UsageError(f"--prime {p} is not prime")
    return p


def _chart(text: str) -> GrassmannChart:
    """argparse type= reader of '--chart i,j', 1-based: the internal 0-based chart."""
    i, j = _ints("--chart", text, 2)
    if not 1 <= i < j <= NUM_VARIABLES:
        raise _UsageError(f"--chart columns must satisfy 1 <= i < j <= {NUM_VARIABLES}")
    return GrassmannChart((i - 1, j - 1))


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

    # Options left out keep PipelineConfig's defaults.
    options = {k: v for k, v in vars(args).items() if k in PipelineConfig._fields}
    certificate = run_pipeline(PipelineConfig(**options))
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
    coeffs = list(pencil.char_form)
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

    pencil, prime = parse_input(args.file).pencil, args.prime
    charts = None if args.chart is None else [args.chart]
    # ValueError above the scan cap, which main() maps to exit 3.
    points = search_smooth_points(pencil, prime, charts=charts)
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
    system = fano_system(parse_input(args.file).pencil, args.chart)
    report = verify_fano_point(system, args.coords, args.prime)
    document = {"prime": args.prime, **point_document(args.chart, args.coords, report)}
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

    prime = args.prime
    # A ValueError (the zero vector, or 0 mod p) is a usage error: exit 3.
    on_intersection = verify_projective_point(parse_input(args.file).pencil, args.coords, p=prime)
    document = {
        "prime": prime,
        "coordinates": list(args.coords),
        "on_intersection": on_intersection,
    }
    field = "Q" if prime is None else f"F_{prime}"
    _emit(document, [f"point on X over {field}: {on_intersection}"])
    return EXIT_POSITIVE if on_intersection else EXIT_NEGATIVE


def _cmd_reduction(args) -> int:
    from .reduction import locus_document, mod2_degeneracy, singular_locus

    pencil, prime = parse_input(args.file).pencil, args.prime
    if prime == 2:
        report = {**mod2_degeneracy(pencil), "prime": 2}
        _emit(report, [f"mod 2: {report['verdict']}"])
        return EXIT_POSITIVE
    try:
        document = locus_document(singular_locus(pencil, prime))
    except ValueError as error:
        # a form vanishes mod p, not a complete intersection mod p, or the
        # kernel candidate cap
        _emit({"error": str(error)}, [f"error: {error}"])
        return EXIT_INCOMPLETE
    _emit(
        document,
        [
            f"singular locus mod {prime}: {len(document['points'])} point(s), "
            f"method={document['method']}, non_conical={document['non_conical']}"
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

    # analyze leaves an option it is not given out of args, so that
    # PipelineConfig alone holds the defaults.
    p_analyze = sub.add_parser(
        "analyze",
        help="run the full pipeline and emit the certificate",
        argument_default=argparse.SUPPRESS,
    )
    p_analyze.add_argument("input_path", metavar="file", help="input file with Q1:/Q2: lines")
    p_analyze.add_argument(
        "--workers",
        type=lambda text: _ints("--workers", text, 1)[0],
        help="accepted for compatibility (must be >= 1); has no effect",
    )
    p_analyze.add_argument(
        "--good-primes",
        type=lambda text: _ints("--good-primes", text),
        dest="good_prime_samples",
        metavar="GOOD_PRIMES_TEXT",
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
    p_search.add_argument("--prime", type=_prime, required=True)
    p_search.add_argument(
        "--chart",
        type=_chart,
        help="restrict to one chart, as 1-based columns 'i,j'",
    )
    p_search.set_defaults(handler=_cmd_fano_search)

    p_verify = sub.add_parser(
        "verify-point", help="verify one chart point on the Fano system mod p"
    )
    p_verify.add_argument("file")
    p_verify.add_argument("--prime", type=_prime, required=True)
    p_verify.add_argument("--chart", type=_chart, required=True, help="1-based columns 'i,j'")
    p_verify.add_argument(
        "--coords", type=lambda text: _ints("--coords", text, 8), required=True, help="a1,...,a8"
    )
    p_verify.set_defaults(handler=_cmd_verify_point)

    p_ambient = sub.add_parser(
        "verify-ambient",
        help="verify a projective point on X = {Q1 = Q2 = 0}, over Q or F_p",
    )
    p_ambient.add_argument("file")
    p_ambient.add_argument(
        "--coords", type=lambda text: _ints("--coords", text, 6), required=True, help="c1,...,c6"
    )
    p_ambient.add_argument("--prime", type=_prime)
    p_ambient.set_defaults(handler=_cmd_verify_ambient)

    p_reduction = sub.add_parser(
        "reduction", help="analyze the reduction of the pencil mod p"
    )
    p_reduction.add_argument("file")
    p_reduction.add_argument("--prime", type=_prime, required=True)
    p_reduction.set_defaults(handler=_cmd_reduction)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
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
    except (_UsageError, ValueError) as error:
        # ValueError: PipelineConfig's checks, the scan cap, a zero point
        sys.stderr.write(f"error: {error}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
