"""Independent checks of the program's outputs, in plain integer arithmetic.

Every claim a certificate makes about a line is re-derived here from the
input forms: the six line equations and the Jacobian rank mod p, each
Newton lift mod p^k, the characteristic form, the discriminant and its
bad-prime support, the real isolating intervals, and the singular points.
Each function returns a list of error strings; an empty list means the
output checked.
"""

from __future__ import annotations

import json
from fractions import Fraction

from exact import (
    char_form,
    discriminant,
    is_prime,
    is_smooth,
    line_jacobian,
    line_residuals,
    mat_vec,
    polar_matrix,
    poly_eval,
    q_eval,
    rank_mod,
)

POSITIVE_VERDICT = "locally rational at all places (per cited criteria)"
CURVE_DISC_SCALE = 2**12


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def check_point(q1, q2, chart, coords, p: int, rank=None, lift=None,
                modulus=None) -> list[str]:
    """A chart point mod p, its Jacobian rank, and its lift mod `modulus`."""
    errors = []
    if any(r % p for r in line_residuals(q1, q2, chart, coords)):
        errors.append(f"point {coords} on chart {chart} is off the system mod {p}")
    own_rank = rank_mod(line_jacobian(q1, q2, chart, coords), p)
    if rank is not None and rank != own_rank:
        errors.append(f"Jacobian rank {rank} at {coords} mod {p}, recomputed {own_rank}")
    if lift is not None:
        k = 1
        while p**k < modulus:
            k += 1
        if p**k != modulus:
            errors.append(f"lift modulus {modulus} is not a power of {p}")
        if any((x - c) % p for x, c in zip(lift, coords)):
            errors.append(f"lift {lift} is not congruent to {coords} mod {p}")
        if any(r % modulus for r in line_residuals(q1, q2, chart, lift)):
            errors.append(f"lift {lift} leaves a nonzero residual mod {modulus}")
    return errors


def _check_local_entry(q1, q2, entry: dict) -> list[str]:
    if entry.get("coordinates") is None or entry.get("chart") is None:
        return []
    p = int(entry["place"])
    coords = _ints(entry["coordinates"])
    lift = None if entry["lift"] is None else _ints(entry["lift"])
    modulus = None if entry["lift_modulus"] is None else int(entry["lift_modulus"])
    rank = int(entry["jacobian_rank"])
    errors = check_point(q1, q2, _ints(entry["chart"]), coords, p, rank, lift, modulus)
    if entry["liftable"] != (rank == 6):
        errors.append(f"liftable={entry['liftable']} at rank {rank} mod {p}")
    return errors


def _check_singular_points(q1, q2, p: int, points, ranks=None) -> list[str]:
    errors = []
    p1, p2 = polar_matrix(q1), polar_matrix(q2)
    for k, point in enumerate(points):
        v = _ints(point)
        if q_eval(q1, v) % p or q_eval(q2, v) % p:
            errors.append(f"singular point {v} is not on X mod {p}")
        rank = rank_mod([mat_vec(p1, v), mat_vec(p2, v)], p)
        if rank > 1 or (ranks is not None and int(ranks[k]) != rank):
            errors.append(f"singular point {v} has gradient rank {rank} mod {p}")
    return errors


def check_certificate(text: str, q1: dict, q2: dict,
                      never_positive: bool = False) -> list[str]:
    """Check one canonical-JSON certificate against the input forms."""
    doc = json.loads(text)
    errors = []
    if json.dumps(doc, sort_keys=True, separators=(",", ":")) != text:
        errors.append("certificate is not in canonical JSON form")
    f = char_form(q1, q2)
    if doc["characteristic_form"] is not None:
        claimed = _ints(doc["characteristic_form"]["coefficients_lowest_first"])
        if claimed != f:
            errors.append(f"characteristic form {claimed}, recomputed {[str(c) for c in f]}")
        if (doc["smoothness"] == "smooth") != is_smooth(f):
            errors.append(f"smoothness {doc['smoothness']!r} disagrees with f")
    curve = doc["curve"]
    if curve is not None:
        disc = CURVE_DISC_SCALE * discriminant(f)
        if int(curve["disc"]) != disc:
            errors.append(f"curve disc {curve['disc']}, recomputed {disc}")
        rest = abs(int(disc) * int(f[-1]))
        for prime in _ints(curve["bad_primes"]):
            if not is_prime(prime) or rest % prime:
                errors.append(f"bad prime {prime} does not divide disc * lc")
                continue
            while rest % prime == 0:
                rest //= prime
        if rest != 1:
            errors.append(f"bad primes miss a factor: cofactor {rest}")
    for entry in doc["local_certificates"]:
        if entry["place"] == "real":
            intervals = entry["isolating_intervals"]
            if len(intervals) != int(curve["real_weierstrass_count"]):
                errors.append("real root count disagrees with the intervals")
            for lo, hi in intervals:
                a, b = poly_eval(f, Fraction(lo)), poly_eval(f, Fraction(hi))
                if not (a * b < 0 or b == 0):
                    errors.append(f"interval ({lo}, {hi}] isolates no root of f")
            continue
        errors += _check_local_entry(q1, q2, entry)
        errors += _check_local_entry(q1, q2, entry.get("constructive_point") or {})
        p = int(entry["place"])
        for report in entry.get("supplied_witness_reports") or ():
            chart, coords = _ints(report["chart"]), _ints(report["coordinates"])
            on = not any(r % p for r in line_residuals(q1, q2, chart, coords))
            rank = rank_mod(line_jacobian(q1, q2, chart, coords), p)
            if (on, rank, on and rank == 6) != (
                report["on_system"], int(report["jacobian_rank"]), report["smooth"]
            ):
                errors.append(f"witness report at {p} disagrees with recomputation")
        if entry.get("singular_locus"):
            errors += _check_singular_points(q1, q2, p, entry["singular_locus"])
    for report in doc["reduction_reports"]:
        if report.get("points"):
            errors += _check_singular_points(
                q1, q2, int(report["prime"]), report["points"],
                report["ambient_jacobian_ranks"])
    reasons = doc["incomplete_reasons"]
    if not reasons and doc["verdict"] != POSITIVE_VERDICT:
        errors.append(f"verdict {doc['verdict']!r} without an incomplete reason")
    if reasons and doc["verdict"] == POSITIVE_VERDICT:
        errors.append("positive verdict despite incomplete reasons")
    if never_positive and doc["verdict"] == POSITIVE_VERDICT:
        errors.append("positive verdict on a pencil with no Q_2-line")
    return errors


def decided_places(text: str) -> tuple[int, int]:
    """(decided, total) places of one certificate.

    The places are the real place, the bad primes and the sampled good
    primes that were not skipped.  A place is decided when it is liftable,
    has a smooth reduction, or is marked not liftable without any
    incomplete reason naming it.  A pencil stopped before the places
    counts as one undecided place.
    """
    doc = json.loads(text)
    places = [e for e in doc["local_certificates"] if not e.get("skipped")]
    if not places:
        return 0, 1
    reasons = doc["incomplete_reasons"]
    decided = 0
    for entry in places:
        if entry.get("liftable") is True or entry.get("smooth_reduction") is True:
            decided += 1
        elif entry.get("liftable") is False and not any(
            r.endswith(f" at {entry['place']}") for r in reasons
        ):
            decided += 1
    return decided, len(places)


def check_claim(claim: dict, report: dict) -> list[str]:
    """A verify-lift claim: the verification report and the Newton lift.

    `report` holds on_system, jacobian_rank and smooth as the program gave
    them, plus lift and lift_modulus from its Hensel certificate.
    """
    q1, q2 = claim["forms"]
    p, k = claim["prime"], claim["precision"]
    errors = []
    if not report["on_system"]:
        errors.append(f"claim on chart {claim['chart']} mod {p} reported off the system")
    errors += check_point(q1, q2, claim["chart"], claim["coords"], p,
                          report["jacobian_rank"], report["lift"],
                          report["lift_modulus"])
    if report["smooth"] != (report["on_system"] and report["jacobian_rank"] == 6):
        errors.append("smooth flag disagrees with rank and on_system")
    if report["smooth"] and report["lift_modulus"] != p**k:
        errors.append(f"lift modulus {report['lift_modulus']} != {p}^{k}")
    return errors
