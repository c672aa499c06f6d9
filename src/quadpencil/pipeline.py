"""End-to-end certification pipeline and the canonical JSON certificate.

``run_pipeline`` executes the stages in order — characteristic form,
smoothness, curve data, real place, bad-prime local certificates,
good-prime sampling, reduction reports — and writes the certificate
document as it goes.  Any stage failure is embedded in the certificate and
turns the verdict into ``"incomplete: <reason>"``; the pipeline never
fabricates a positive verdict from a failed stage.  Each place's entry
depends only on the pencil, that place and the configuration.  Every
point is Newton-lifted modulo p^3, ``hensel_certify``'s default depth.

Every search is deterministic.  At a bad prime p <= 5 it is the exhaustive
census of all 15 charts.  At a sampled good prime p <= 5 the constructive
point is a smooth line through a point of X_p, from planes drawn by a
seeded integer generator (``localcert.smooth_line_through_point``); the
census is the fallback if ``localcert.MAX_LINE_PLANES`` planes give none.
A bad prime above 5 is certified only from a supplied witness; no method
searches it yet, so without one it stays incomplete.

The document serializes to *canonical JSON*: keys sorted, separators
``(",", ":")``, every integer rendered as a decimal string (bad primes
exceed 2^32 and cross-language consumers must not lose precision),
rationals as ``"numerator/denominator"`` strings, and no floats anywhere.
Two runs with the same configuration produce byte-identical documents, at
any ``workers`` value (which is accepted and has no effect).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .exactmath import FactorizationError, is_probable_prime
from .fano import (
    FANO_CODIMENSION,
    GrassmannChart,
    _chart_coordinates,
    _chart_ui,
    fano_system,
    point_document,
    verify_fano_point,
)
from .localcert import (
    EXHAUSTIVE_PRIME_BOUND,
    LocalPointCertificate,
    chart_census,
    hensel_certify,
    real_place_report,
    search_smooth_points,
    smooth_line_through_point,
)
from .parsing import (
    FanoWitness,
    SingularWitness,
    _parse_sections,
    canonical_json,  # re-exported: callers and qpbench/worker.py use this name
    pretty_print,
    read_input_text,
)
from .pencil import (
    NonIntegralCharacteristicFormError,
    PencilOfQuadrics,
    curve_data,
    smoothness_check,
)
from .reduction import locus_document, mod2_degeneracy, normalize_projective, singular_locus

__all__ = [
    "POSITIVE_VERDICT",
    "DEGENERATE_VERDICT",
    "EXTERNAL_INPUTS",
    "PipelineConfig",
    "run_pipeline",
    "canonical_json",
]

POSITIVE_VERDICT = "locally rational at all places (per cited criteria)"
DEGENERATE_VERDICT = "degenerate pencil"

# Facts the certificate consumes from the literature without recomputing
# them.  Everything below is cited, not proved, by this tool; the computed
# stages only establish the hypotheses these criteria require.
EXTERNAL_INPUTS = (
    "real place: a sextic with exactly two real roots gives a genus-2 curve "
    "with exactly two real Weierstrass points, and the variety of lines of "
    "the associated quadric pencil then has real points "
    "(Bhargava-Gross-Wang-type criterion, section 7.2).",
    "good primes: for p not dividing the discriminant the reduction of X is "
    "smooth, and the variety of lines of a smooth complete intersection of "
    "two quadrics over F_p is a torsor under an abelian variety, hence has "
    "an F_p-point (Lang's theorem) which lifts to a Q_p-point (Hensel).",
    "bad primes: a smooth F_p-point on the reduction of the variety of "
    "lines lifts to a Q_p-point (Hensel's lemma); the Newton lift to "
    "modulus p^k recorded here certifies the hypothesis at finite level.",
    "F_p-rationality of singular reductions: an F_p-line on a non-conical "
    "irreducible complete intersection of two quadrics makes it F_p-rational "
    "(Colliot-Thelene-Sansuc-Swinnerton-Dyer, Prop. 2.2-type); non-conical "
    "is equivalent to the Jacobian matrix of (Q1, Q2) vanishing identically "
    "at no point (Lemma 1.12-type).",
    "irrationality over Q (recorded from the source paper, not certified): "
    "the Jacobian of the genus-2 curve has Mordell-Weil rank 0 and "
    "Pic^1_C(Q) is empty per Fisher-Yan-type unconditional rank "
    "computations; the paper concludes that the class of the variety of "
    "lines is an element of order 4 in the Tate-Shafarevich group, which "
    "needs a local point at every place, so it applies here only if every "
    "place of this certificate has a point; none of this is recomputed here.",
)


class _PipelineConfigFields(NamedTuple):
    input_path: str
    good_prime_samples: tuple[int, ...] = (3, 5, 7, 11, 13)
    workers: int = 8


class PipelineConfig(_PipelineConfigFields):
    """Configuration for :func:`run_pipeline`.

    Witnesses come only from the input file's ``WITNESS:`` lines; a bad
    prime above EXHAUSTIVE_PRIME_BOUND is certified only from such a
    witness, since no method searches it yet.
    ``good_prime_samples`` must be distinct odd primes; those up to
    EXHAUSTIVE_PRIME_BOUND also get a constructive point, a smooth line
    through a point of X_p (the census if that fails).  ``workers`` is
    validated (>= 1) but has no effect: every search runs in one thread.
    It is not echoed into the certificate.  There is no lift depth to set:
    every lift is modulo p^3.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PipelineConfig":
        self = super().__new__(cls, *args, **kwargs)
        self = self._replace(good_prime_samples=tuple(self.good_prime_samples))
        for p in self.good_prime_samples:
            if not isinstance(p, int) or p < 2 or not is_probable_prime(p):
                raise ValueError(f"good_prime_samples: {p!r} is not prime")
            if p == 2:
                raise ValueError(
                    "good_prime_samples: 2 is not usable as a sampled good prime"
                    " (singular-locus analysis is invalid in characteristic 2);"
                    " when 2 divides the discriminant it is handled as a bad place"
                )
        if len(set(self.good_prime_samples)) != len(self.good_prime_samples):
            raise ValueError("good_prime_samples: a prime is repeated")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        return self


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------

def _witness_echo(
    fano: Sequence[FanoWitness], singular: Sequence[SingularWitness]
) -> dict:
    return {
        "fano": [
            {
                "prime": w.prime,
                "chart": list(w.chart),
                "coordinates": list(w.coordinates),
            }
            for w in fano
        ],
        "singular": [
            {"prime": w.prime, "coordinates": list(w.coordinates)}
            for w in singular
        ],
    }


def _point_certificate_entry(cert, kind: str, witness_source: str) -> dict:
    """Convert a LocalPointCertificate for a finite place into a JSON entry."""
    return {
        "place": str(cert.place),
        "kind": kind,
        "chart": None if cert.chart is None else _chart_ui(cert.chart),
        "coordinates": (
            None if cert.coordinates is None else list(cert.coordinates)
        ),
        "jacobian_rank": cert.jacobian_rank,
        "liftable": cert.liftable,
        "lift": None if cert.lift is None else list(cert.lift),
        "lift_modulus": cert.lift_modulus,
        "witness_source": witness_source,
        "justification": cert.justification,
    }


def _verify_supplied_fano(
    pencil: PencilOfQuadrics, witness: FanoWitness
) -> tuple[dict, Optional[tuple[GrassmannChart, tuple[int, ...]]]]:
    """Verify one supplied witness; return its report and the point if smooth."""
    chart = GrassmannChart((witness.chart[0] - 1, witness.chart[1] - 1))
    point = tuple(c % witness.prime for c in witness.coordinates)
    report = verify_fano_point(fano_system(pencil, chart), point, witness.prime)
    entry = point_document(chart, witness.coordinates, report)
    return entry, ((chart, point) if report.smooth else None)


def _bad_prime_stage(
    pencil: PencilOfQuadrics,
    prime: int,
    fano_witnesses: Sequence[FanoWitness],
) -> tuple[dict, Optional[str]]:
    """Local certificate at one bad prime; returns (entry, incomplete reason)."""
    witness_reports = []
    chosen: Optional[tuple[GrassmannChart, tuple[int, ...], str]] = None
    for witness in fano_witnesses:
        if witness.prime != prime:
            continue
        entry, smooth_point = _verify_supplied_fano(pencil, witness)
        witness_reports.append(entry)
        if smooth_point is not None and chosen is None:
            chosen = (*smooth_point, "verified supplied witness")

    census_echo = None
    if chosen is None and prime <= EXHAUSTIVE_PRIME_BOUND:
        census = chart_census(pencil, prime)
        census_echo = [
            {
                "chart": _chart_ui(entry.chart),
                "on_system": entry.on_fano_count,
                "smooth": len(entry.smooth_points),
            }
            for entry in census
        ]
        for entry in census:
            if entry.smooth_points:
                point = min(_chart_coordinates(entry.chart, a, b, prime)
                            for a, b in entry.smooth_points)
                chosen = (entry.chart, point, "found by search")
                break

    if chosen is not None:
        chart, point, source = chosen
        cert = hensel_certify(fano_system(pencil, chart), point, prime)
        reason = None
    else:
        if census_echo is not None:
            total = sum(item["on_system"] for item in census_echo)
            justification = (
                f"exhaustive census of all 15 charts over F_{prime} found "
                f"{total} points on the system, none with full Jacobian rank "
                f"{FANO_CODIMENSION}; no smooth F_{prime}-point exists on any chart"
            )
            reason = f"no smooth Fano point certificate at {prime}"
        else:
            justification = (
                f"no supplied witness verified smooth, and no method searches "
                f"for a smooth point at primes above {EXHAUSTIVE_PRIME_BOUND} yet"
            )
            reason = f"no witness at {prime}"
        cert, source = LocalPointCertificate(prime, None, None, None, False, justification), None
    entry = _point_certificate_entry(cert, "bad prime", source)
    entry["supplied_witness_reports"] = witness_reports
    entry["census"] = census_echo
    return entry, reason


def _good_prime_stage(pencil: PencilOfQuadrics, prime: int) -> tuple[dict, Optional[str]]:
    """Certificate entry for a sampled good prime."""
    locus = singular_locus(pencil, prime)
    entry: dict = {
        "place": str(prime),
        "kind": "good prime",
        "singular_locus": [list(pt) for pt in locus.points],
        "singular_locus_method": locus.method,
        "smooth_reduction": not locus.points,
    }
    if locus.points:
        entry["justification"] = (
            f"the reduction mod {prime} has a nonempty singular locus; "
            f"{prime} is not a good prime for this pencil"
        )
        return entry, f"sampled good prime {prime} has singular reduction"
    entry["justification"] = (
        f"empty singular locus ({locus.method} scan): the reduction mod "
        f"{prime} is smooth, so the variety of lines has an F_{prime}-point "
        f"(Lang) lifting to a Q_{prime}-point (Hensel); see external_inputs"
    )
    if prime <= EXHAUSTIVE_PRIME_BOUND:
        found = smooth_line_through_point(pencil, prime)
        if found is None:
            census = search_smooth_points(pencil, prime)
            found = census[0][:2] if census else None
        entry["constructive_point"] = None
        if found is not None:
            chart, point = found
            cert = hensel_certify(fano_system(pencil, chart), point, prime)
            entry["constructive_point"] = _point_certificate_entry(
                cert, "good prime", "found by search"
            )
    return entry, None


def _reduction_stage(
    pencil: PencilOfQuadrics,
    prime: int,
    singular_witnesses: Sequence[SingularWitness],
) -> tuple[dict, Optional[str]]:
    """Reduction report at one bad prime."""
    if prime == 2:
        return {**mod2_degeneracy(pencil), "prime": 2, "kind": "mod2-degeneracy"}, None
    try:
        locus = singular_locus(pencil, prime)
    except ValueError as error:
        entry = {
            "prime": str(prime),
            "kind": "singular-locus",
            "error": str(error),
        }
        return entry, f"reduction analysis failed at {prime}"
    witness_checks = []
    computed = set(locus.points)
    for witness in singular_witnesses:
        if witness.prime != prime:
            continue
        try:
            normalized = normalize_projective(witness.coordinates, prime)
        except ValueError as error:
            witness_checks.append(
                {"coordinates": list(witness.coordinates), "error": str(error)}
            )
            continue
        witness_checks.append(
            {
                "coordinates": list(witness.coordinates),
                "normalized": list(normalized),
                "in_computed_locus": normalized in computed,
            }
        )
    entry = {**locus_document(locus), "kind": "singular-locus", "witness_checks": witness_checks}
    return entry, (None if entry["non_conical"] else f"the reduction mod {prime} is a cone")


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

def _run_stages(
    document: dict,
    forms: dict,
    fano_witnesses: Sequence[FanoWitness],
    singular_witnesses: Sequence[SingularWitness],
    cfg: PipelineConfig,
) -> None:
    """Fill ``document``'s stage fields in order; stop at a failed stage."""
    reasons = document["incomplete_reasons"]
    local_certificates = document["local_certificates"]

    # Stage 1: the pencil and its characteristic form.
    try:
        pencil = PencilOfQuadrics(forms["Q1"], forms["Q2"])
    except NonIntegralCharacteristicFormError:
        reasons.append("non-integral characteristic form")
        return
    document["characteristic_form"] = {
        "variable": "t",
        "coefficients_lowest_first": list(pencil.char_form),
    }

    # Stage 2: smoothness of X.
    smoothness = document["smoothness"] = smoothness_check(pencil)
    if smoothness == "degenerate":
        reasons.append("degenerate pencil: the characteristic form vanishes")
        return
    if smoothness != "smooth":
        reasons.append("pencil not smooth")
        return

    # Stage 3: genus-2 curve data, with witness primes as factor hints.
    hint_primes = tuple(
        sorted({w.prime for w in fano_witnesses}
               | {w.prime for w in singular_witnesses})
    )
    try:
        cd = curve_data(pencil, factor_hints=hint_primes)
    except FactorizationError as error:
        reasons.append(f"cannot factor the discriminant support: {error}")
        return
    document["curve"] = {
        "disc": cd.disc,
        "bad_primes": list(cd.bad_primes),
        "real_weierstrass_count": cd.real_weierstrass_count,
    }

    # Stage 4: the real place.
    real_cert = real_place_report(cd)
    local_certificates.append(
        {
            "place": "real",
            "kind": "real place",
            "liftable": real_cert.liftable,
            "isolating_intervals": [
                [lo, hi] for lo, hi in real_cert.isolating_intervals
            ],
            "justification": real_cert.justification,
        }
    )
    if real_cert.liftable is not True:
        reasons.append("no liftable certificate at the real place")

    # Stage 5: local certificates at the bad primes.
    for prime in cd.bad_primes:
        entry, reason = _bad_prime_stage(pencil, prime, fano_witnesses)
        local_certificates.append(entry)
        if reason is not None:
            reasons.append(reason)

    # Stage 6: sampled good primes.
    for prime in cfg.good_prime_samples:
        if prime in cd.bad_primes:
            local_certificates.append(
                {
                    "place": str(prime),
                    "kind": "good prime",
                    "skipped": True,
                    "justification": (
                        f"{prime} divides the discriminant; certified under "
                        f"the bad primes above"
                    ),
                }
            )
            continue
        entry, reason = _good_prime_stage(pencil, prime)
        local_certificates.append(entry)
        if reason is not None:
            reasons.append(reason)

    # Stage 7: reduction reports at each bad prime.
    for prime in cd.bad_primes:
        entry, reason = _reduction_stage(pencil, prime, singular_witnesses)
        document["reduction_reports"].append(entry)
        if reason is not None:
            reasons.append(reason)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute every stage and return the certificate document.

    Every field is present; a stage that did not run leaves its field null
    or empty.  Parse errors and unreadable files propagate to the caller
    (they are input errors, not stage failures); every later failure is
    embedded in the certificate with an ``incomplete`` verdict.
    """
    forms, fano_witnesses, singular_witnesses = _parse_sections(read_input_text(cfg.input_path))
    document = {
        "certificate_version": "4",
        "input": {
            "q1": pretty_print(forms["Q1"]),
            "q2": pretty_print(forms["Q2"]),
            "witnesses": _witness_echo(fano_witnesses, singular_witnesses),
        },
        "characteristic_form": None,
        "smoothness": None,
        "curve": None,
        "local_certificates": [],
        "reduction_reports": [],
        "external_inputs": list(EXTERNAL_INPUTS),
        "config": {"good_prime_samples": list(cfg.good_prime_samples)},
        "incomplete_reasons": [],
    }
    _run_stages(document, forms, fano_witnesses, singular_witnesses, cfg)
    reasons = document["incomplete_reasons"]
    if document["smoothness"] == "degenerate":
        document["verdict"] = DEGENERATE_VERDICT
    else:
        document["verdict"] = f"incomplete: {reasons[0]}" if reasons else POSITIVE_VERDICT
    return document
