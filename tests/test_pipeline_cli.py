"""End-to-end pipeline and CLI: certificates, exit codes, canonical JSON."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from quadpencil import (
    POSITIVE_VERDICT,
    GrassmannChart,
    PipelineConfig,
    canonical_json,
    parse_input,
    run_pipeline,
    search_smooth_points,
)
from quadpencil import pipeline
from quadpencil.cli import main as cli_main

from conftest import (
    BIG_PRIME,
    BIG_WITNESS,
    CHART_UI,
    EXAMPLE_PATH,
    F2_ON_FANO_COUNTS,
    F2_WITNESS,
    NO_WITNESS_PATH,
    P3_SMOOTH_POINT,
    UNFACTORABLE_PATH,
    exhaustive_locus,
    reference_canonical_json,
)

EXAMPLE = str(EXAMPLE_PATH)
NO_WITNESS = str(NO_WITNESS_PATH)
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

INCOMPLETE_AT_2 = "no smooth Fano point certificate at 2"

# sha256 of `analyze` stdout for the bundled files: any change to a
# certificate byte must be deliberate.
EXAMPLE_SHA256 = "ddb351cb0fcfd18b2014462daf9fed5988f4b9e6fa61cdd5b4badd32243ae1c9"
NO_WITNESS_SHA256 = "e9d52c99d31ac5ad854bf269e1e5d81f6e41f3d72aba59caa53ca0f1c1d6c591"
UNFACTORABLE_SHA256 = "3e07aed82045651e33f9aa68f96ad5b54f5c79cd40030f7bb9e752d82216f884"


def run_cli(argv) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.fixture(scope="module")
def analyze_runs():
    """The example analyzed twice: 1 worker and 8 workers."""
    return (
        run_cli(["analyze", EXAMPLE, "--workers", "1"]),
        run_cli(["analyze", EXAMPLE, "--workers", "8"]),
    )


@pytest.fixture(scope="module")
def analyze_no_witness():
    return run_cli(["analyze", NO_WITNESS])


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_is_byte_identical_across_worker_counts(analyze_runs):
    (out1, _err1, code1), (out8, _err8, code8) = analyze_runs
    assert code1 == code8 == 2
    assert out1
    assert out1 == out8


def test_analyze_stdout_matches_golden_digests(analyze_runs, analyze_no_witness):
    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    assert [sha256(out) for out, _, _ in analyze_runs] == [EXAMPLE_SHA256] * 2
    assert sha256(analyze_no_witness[0]) == NO_WITNESS_SHA256


def test_an_unfactorable_discriminant_ends_the_analysis():
    # Trial division to 10^6 leaves a composite cofactor that is no perfect
    # power, so the pipeline stops after the characteristic form.
    out, err, code = run_cli(["analyze", str(UNFACTORABLE_PATH)])
    reason = "cannot factor the discriminant support: unfactored composite cofactor"
    assert code == 2
    doc = json.loads(out)
    assert doc["incomplete_reasons"] == [reason]
    assert doc["verdict"] == f"incomplete: {reason}"
    assert doc["curve"] is None and doc["local_certificates"] == []
    assert err.splitlines()[0] == f"verdict: incomplete: {reason}"
    assert hashlib.sha256(out.encode()).hexdigest() == UNFACTORABLE_SHA256


def test_analyze_verdict_and_reasons(analyze_runs):
    _, (out, err, code) = analyze_runs
    doc = json.loads(out)
    assert code == 2
    assert doc["verdict"] == f"incomplete: {INCOMPLETE_AT_2}"
    assert doc["incomplete_reasons"] == [INCOMPLETE_AT_2]
    assert err.splitlines()[0] == f"verdict: incomplete: {INCOMPLETE_AT_2}"
    assert "  place 2: bad prime, ok=False" in err.splitlines()
    assert "  place real: real place, ok=True" in err.splitlines()


def test_certificate_document_structure(analyze_runs):
    _, (out, _, _) = analyze_runs
    doc = json.loads(out)
    assert set(doc) == {
        "certificate_version",
        "input",
        "characteristic_form",
        "smoothness",
        "curve",
        "local_certificates",
        "reduction_reports",
        "external_inputs",
        "config",
        "incomplete_reasons",
        "verdict",
    }
    assert doc["certificate_version"] == "4"
    assert doc["smoothness"] == "smooth"
    assert doc["characteristic_form"] == {
        "variable": "t",
        "coefficients_lowest_first": ["-2", "-3", "-3", "3", "2", "-3", "-1"],
    }
    assert doc["curve"] == {
        "disc": "613351002112",
        "bad_primes": ["2", str(BIG_PRIME)],
        "real_weierstrass_count": "2",
    }
    assert len(doc["external_inputs"]) == 5
    assert all(isinstance(s, str) for s in doc["external_inputs"])
    # The worker count must not leak into the certificate.
    assert set(doc["config"]) == {"good_prime_samples"}
    places = [entry["place"] for entry in doc["local_certificates"]]
    assert places == ["real", "2", str(BIG_PRIME), "3", "5", "7", "11", "13"]


def test_real_place_entry(analyze_runs):
    _, (out, _, _) = analyze_runs
    real = json.loads(out)["local_certificates"][0]
    assert real["kind"] == "real place"
    assert real["liftable"] is True
    assert len(real["isolating_intervals"]) == 2
    for lo_text, hi_text in real["isolating_intervals"]:
        lo, hi = Fraction(lo_text), Fraction(hi_text)
        assert lo < hi
        assert hi - lo < Fraction(1, 10**6)


def test_bad_prime_two_entry_reports_the_honest_census(analyze_runs):
    _, (out, _, _) = analyze_runs
    entry = json.loads(out)["local_certificates"][1]
    assert entry["place"] == "2"
    assert entry["kind"] == "bad prime"
    assert entry["liftable"] is False
    assert entry["witness_source"] is None
    assert "no smooth F_2-point exists on any chart" in entry["justification"]
    census = {
        tuple(int(c) for c in item["chart"]): int(item["on_system"])
        for item in entry["census"]
    }
    assert census == F2_ON_FANO_COUNTS
    assert all(int(item["smooth"]) == 0 for item in entry["census"])
    reports = entry["supplied_witness_reports"]
    assert len(reports) == 1
    assert reports[0]["on_system"] is True
    assert reports[0]["jacobian_rank"] == "4"
    assert reports[0]["smooth"] is False


def test_big_prime_entry_uses_the_supplied_witness(analyze_runs):
    _, (out, _, _) = analyze_runs
    entry = json.loads(out)["local_certificates"][2]
    assert entry["place"] == str(BIG_PRIME)
    assert entry["liftable"] is True
    assert entry["witness_source"] == "verified supplied witness"
    assert entry["chart"] == [str(c) for c in CHART_UI]
    assert entry["jacobian_rank"] == "6"
    assert entry["lift_modulus"] == str(BIG_PRIME**3)
    assert len(entry["lift"]) == 8


def test_good_prime_entries_certify_smooth_reduction(analyze_runs):
    _, (out, _, _) = analyze_runs
    doc = json.loads(out)
    good = [e for e in doc["local_certificates"] if e["kind"] == "good prime"]
    assert [e["place"] for e in good] == ["3", "5", "7", "11", "13"]
    for entry in good:
        assert entry["smooth_reduction"] is True
        assert entry["singular_locus"] == []
        assert "Lang" in entry["justification"]
        assert "Hensel" in entry["justification"]
    # Constructive points accompany the exhaustive-range primes.
    for entry in good[:2]:
        point = entry["constructive_point"]
        assert point["liftable"] is True
        assert point["jacobian_rank"] == "6"
        assert point["lift_modulus"] == str(int(entry["place"]) ** 3)


def test_reduction_reports(analyze_runs):
    _, (out, _, _) = analyze_runs
    reports = json.loads(out)["reduction_reports"]
    assert [r["kind"] for r in reports] == ["mod2-degeneracy", "singular-locus"]
    mod2 = reports[0]
    assert mod2["prime"] == "2"
    assert "reducib" in mod2["verdict"]
    assert "non-reduced" in mod2["verdict"]
    locus = reports[1]
    assert locus["prime"] == str(BIG_PRIME)
    assert locus["method"] == "kernel-guided"
    assert locus["non_conical"] is True
    assert len(locus["points"]) == 1
    assert locus["ambient_jacobian_ranks"] == ["1"]
    checks = locus["witness_checks"]
    assert len(checks) == 1
    assert checks[0]["in_computed_locus"] is True


def test_pipeline_computes_every_locus_kernel_guided():
    pencil = parse_input(EXAMPLE).pencil
    good_primes = (3, 5, 7, 11, 13)
    expected = {p: [list(pt) for pt in exhaustive_locus(pencil, p)[0]] for p in good_primes}
    for path in (EXAMPLE, NO_WITNESS):
        certificate = run_pipeline(PipelineConfig(input_path=path, workers=1))
        good = [
            e for e in certificate["local_certificates"] if e["kind"] == "good prime"
        ]
        assert [e["place"] for e in good] == [str(p) for p in good_primes]
        for entry in good:
            assert entry["singular_locus_method"] == "kernel-guided"
            assert "(kernel-guided scan)" in entry["justification"]
            assert entry["singular_locus"] == expected[int(entry["place"])]
        loci = [
            r for r in certificate["reduction_reports"] if r["kind"] == "singular-locus"
        ]
        assert loci
        assert all(r["method"] == "kernel-guided" for r in loci)


def test_good_prime_entries_do_not_depend_on_witnesses():
    # The bundled files hold one pencil, one with witnesses at 2 and
    # 149743897 and one without: an entry depends only on the pencil and its
    # place, so every sampled good prime gets the same entry from both.
    good = [
        [e for e in run_pipeline(PipelineConfig(input_path=path))["local_certificates"]
         if e["kind"] == "good prime"]
        for path in (EXAMPLE, NO_WITNESS)
    ]
    assert [e["place"] for e in good[0]] == ["3", "5", "7", "11", "13"]
    assert good[0] == good[1]
    assert good[0][0]["constructive_point"]["chart"] == [1, 3]
    assert good[0][1]["constructive_point"]["chart"] == [1, 2]


def test_good_prime_search_falls_back_to_the_census(monkeypatch):
    monkeypatch.setattr(pipeline, "smooth_line_through_point", lambda *args: None)
    certificate = run_pipeline(PipelineConfig(input_path=NO_WITNESS))
    pencil = parse_input(NO_WITNESS).pencil
    good = [e for e in certificate["local_certificates"] if e["kind"] == "good prime"]
    for entry in good[:2]:
        chart, point, _ = search_smooth_points(pencil, int(entry["place"]))[0]
        constructive = entry["constructive_point"]
        assert constructive["chart"] == [c + 1 for c in chart.pivots]
        assert constructive["coordinates"] == list(point)
        assert constructive["liftable"] is True


def test_every_echoed_witness_reverifies_standalone(analyze_runs):
    _, (out, _, _) = analyze_runs
    doc = json.loads(out)
    reverified = 0
    for entry in doc["local_certificates"]:
        candidates = []
        if entry.get("witness_source") == "verified supplied witness":
            candidates.append((entry, 0))
        for report in entry.get("supplied_witness_reports") or []:
            report = dict(report, place=entry["place"])
            candidates.append((report, 0 if report["smooth"] else 1))
        constructive = entry.get("constructive_point")
        if constructive:
            candidates.append(
                (dict(constructive, place=entry["place"]), 0)
            )
        for item, expected_code in candidates:
            coords = ",".join(str(int(c)) for c in item["coordinates"])
            chart = ",".join(str(int(c)) for c in item["chart"])
            stdout, _, code = run_cli(
                [
                    "verify-point",
                    EXAMPLE,
                    "--prime",
                    str(int(item["place"])),
                    "--chart",
                    chart,
                    "--coords",
                    coords,
                ]
            )
            assert code == expected_code, item
            verified = json.loads(stdout)
            assert verified["on_system"] is True
            assert verified["smooth"] is (expected_code == 0)
            reverified += 1
    assert reverified >= 4  # both bad-prime witnesses + constructive points


def test_analyze_without_witnesses(analyze_no_witness):
    out, _, code = analyze_no_witness
    assert code == 2
    doc = json.loads(out)
    assert doc["incomplete_reasons"] == [
        INCOMPLETE_AT_2,
        f"no witness at {BIG_PRIME}",
    ]
    assert doc["verdict"] == f"incomplete: {INCOMPLETE_AT_2}"
    big_entry = doc["local_certificates"][2]
    assert big_entry["liftable"] is False
    assert "no method searches" in big_entry["justification"]
    assert doc["input"]["witnesses"] == {"fano": [], "singular": []}


def test_analyze_overlapping_good_prime_is_skipped():
    out, _, code = run_cli(
        ["analyze", NO_WITNESS, "--good-primes", f"3,{BIG_PRIME}"]
    )
    assert code == 2
    doc = json.loads(out)
    skipped = [
        e
        for e in doc["local_certificates"]
        if e["kind"] == "good prime" and e["place"] == str(BIG_PRIME)
    ]
    assert len(skipped) == 1
    assert skipped[0]["skipped"] is True
    assert doc["config"]["good_prime_samples"] == ["3", str(BIG_PRIME)]


def test_analyze_degenerate_pencil(tmp_path):
    path = tmp_path / "degenerate.txt"
    path.write_text("Q1: uv\nQ2: 2uv\n")
    out, _, code = run_cli(["analyze", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "degenerate pencil"
    assert doc["incomplete_reasons"] == [
        "degenerate pencil: the characteristic form vanishes"
    ]
    assert doc["characteristic_form"]["coefficients_lowest_first"] == []


def test_analyze_singular_pencil(tmp_path):
    path = tmp_path / "singular.txt"
    path.write_text(
        "Q1: 2u^2 + 2v^2 + 3w^2 + 4x^2 + 5y^2 + 6z^2\n"
        "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n"
    )
    out, _, code = run_cli(["analyze", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "incomplete: pencil not smooth"
    assert doc["incomplete_reasons"] == ["pencil not smooth"]
    assert doc["smoothness"] == "singular"


def test_analyze_non_integral_characteristic_form(tmp_path):
    path = tmp_path / "nonintegral.txt"
    path.write_text("Q1: uv\nQ2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n")
    out, _, code = run_cli(["analyze", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "incomplete: non-integral characteristic form"
    assert doc["characteristic_form"] is None


def test_run_pipeline_api_matches_cli_bytes(analyze_runs):
    _, (out, _, _) = analyze_runs
    certificate = run_pipeline(PipelineConfig(input_path=EXAMPLE))
    assert certificate["verdict"] != POSITIVE_VERDICT
    assert canonical_json(certificate) + "\n" == out


# ---------------------------------------------------------------------------
# Other subcommands
# ---------------------------------------------------------------------------

def test_charform_subcommand(tmp_path):
    out, err, code = run_cli(["charform", EXAMPLE])
    assert code == 0
    doc = json.loads(out)
    assert doc["characteristic_form"]["coefficients_lowest_first"] == [
        "-2",
        "-3",
        "-3",
        "3",
        "2",
        "-3",
        "-1",
    ]
    assert doc["smoothness"] == "smooth"
    assert doc["pretty"] == "-t^6 - 3t^5 + 2t^4 + 3t^3 - 3t^2 - 3t - 2"
    assert "f(t) =" in err
    # f = 2 + t - 3t^2 + 2t^4 - t^5 - t^6: a zero, two -1s, a 1 and a constant.
    path = tmp_path / "sextic.txt"
    path.write_text(
        "Q1: 2u^2 - v^2 + w^2 + x^2 + y^2 + z^2\n"
        "Q2: -u^2 + 2ux - 2vx - w^2 + x^2 - y^2 + z^2\n"
    )
    out, _, code = run_cli(["charform", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["characteristic_form"]["coefficients_lowest_first"] == [
        "2", "1", "-3", "0", "2", "-1", "-1",
    ]
    assert doc["pretty"] == "-t^6 - t^5 + 2t^4 - 3t^2 + t + 2"
    path = tmp_path / "nonintegral.txt"
    path.write_text("Q1: uv\nQ2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n")
    out, _, code = run_cli(["charform", str(path)])
    assert code == 2
    assert "error" in json.loads(out)


def test_charform_renders_integers_past_the_conversion_limit(tmp_path):
    # Four coefficients of 1,501 digits give f(t) coefficients of up to
    # 6,006 digits, past Python's default str() limit of 4,300.
    c = "3" + "0" * 1500
    path = tmp_path / "huge.txt"
    path.write_text(f"Q1: {c}u^2 + {c}v^2 + {c}w^2 + {c}x^2 + y^2 + z^2\n"
                    "Q2: u^2 + 2v^2 + 3w^2 + 4x^2 + 5y^2 + 6z^2\n")
    out, err, code = run_cli(["charform", str(path)])
    assert code == 0
    doc = json.loads(out)
    coeffs = parse_input(str(path)).pencil.char_form.coeffs
    # Decimal converts an int without the limit: an independent rendering.
    expected = [str(Decimal(x)) for x in coeffs]
    assert doc["characteristic_form"]["coefficients_lowest_first"] == expected
    assert max(map(len, expected)) > 6000
    assert doc["pretty"].startswith(f"-720t^6 + {expected[5]}t^5 - {expected[4][1:]}t^4")
    assert doc["smoothness"] == "smooth" and "set_int_max_str_digits" not in err



def test_analyze_stops_at_a_cofactor_past_the_factoring_budget(tmp_path):
    # The same pencil: trial division leaves a 79,483-bit cofactor, which
    # Miller-Rabin would test for minutes.
    c = "3" + "0" * 1500
    path = tmp_path / "huge.txt"
    path.write_text(f"Q1: {c}u^2 + {c}v^2 + {c}w^2 + {c}x^2 + y^2 + z^2\n"
                    "Q2: u^2 + 2v^2 + 3w^2 + 4x^2 + 5y^2 + 6z^2\n")
    out, _, code = run_cli(["analyze", str(path)])
    assert code == 2
    assert json.loads(out)["incomplete_reasons"] == [
        "cannot factor the discriminant support: cofactor of 79483 bits exceeds "
        "the 4096-bit budget"
    ]

def test_canonical_json_writes_ints_of_any_length():
    values = [10**9000, -(10**9000), 10**9000 + 1, -(10**5000 - 1), 7 * 10**4400 + 3,
              Fraction(10**5000 + 1, 3)]
    rng = random.Random(5)
    values += [rng.getrandbits(rng.randint(14000, 40000)) * rng.choice((1, -1))
               for _ in range(20)]
    expected = [f"{Decimal(v.numerator)}/{v.denominator}" if isinstance(v, Fraction)
                else str(Decimal(v)) for v in values]
    assert json.loads(canonical_json({"v": values}))["v"] == expected
    assert canonical_json({"v": [0, -1, 12]}) == '{"v":["0","-1","12"]}'


# Q1 has even mixed coefficients, Q2 odd ones, and -det(M1 - t*M2) has a
# 2^-k tail.
NON_INTEGRAL_PENCIL = (
    "Q1: -2uw + 2yz\n"
    "Q2: -ux + 2uy + 2uz + 3v^2 + vx + vz + 2w^2 + xy + xz + 3yz\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["charform"],
        ["reduction", "--prime", "3"],
        ["fano-search", "--prime", "3"],
        ["verify-point", "--prime", "3", "--chart", "1,2", "--coords", "0,0,0,0,0,0,0,0"],
        ["verify-ambient", "--coords", "1,0,0,0,0,0"],
    ],
)
def test_non_integral_characteristic_form_exits_2_from_every_subcommand(tmp_path, argv):
    path = tmp_path / "nonintegral.txt"
    path.write_text(NON_INTEGRAL_PENCIL)
    done = subprocess.run(
        [sys.executable, "-m", "quadpencil.cli", argv[0], str(path), *argv[1:]],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    if argv[0] == "analyze":
        assert json.loads(done.stdout)["verdict"] == (
            "incomplete: non-integral characteristic form"
        )
    else:
        assert done.stdout == '{"error":"non-integral characteristic form"}\n'
        assert done.stderr == "error: non-integral characteristic form\n"


def test_fano_search_found(tmp_path):
    out, _, code = run_cli(
        ["fano-search", EXAMPLE, "--prime", "3", "--chart", "2,3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert doc["count"] == "4"
    assert all(pt["jacobian_rank"] == "6" for pt in doc["points"])
    coords = [tuple(int(c) for c in pt["coordinates"]) for pt in doc["points"]]
    assert P3_SMOOTH_POINT in coords


def test_fano_search_exhaustive_negative():
    out, _, code = run_cli(["fano-search", EXAMPLE, "--prime", "2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert doc["count"] == "0"


def test_fano_search_is_exhaustive_above_5():
    args = ["fano-search", EXAMPLE, "--prime", "7", "--chart", "2,3"]
    out, _, code = run_cli(args)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert int(doc["count"]) > 0
    assert all(pt["jacobian_rank"] == "6" for pt in doc["points"])
    again, _, code2 = run_cli(args)
    assert (again, code2) == (out, code)


# sha256 of `fano-search --prime p` stdout over all 15 charts.  The bundled
# files hold the same two forms, so they share each digest.
FANO_SEARCH_SHA256 = {
    2: "fc93e69cd3d7f54c5dc469c76b5e70c7c650e2103328e713957483e587092b74",
    3: "cbad75147df778a7c6907c6ad3ccf91ff46e4345026a5caac9414e0ab9bf4b94",
    5: "cbed1a2de9975d754ba5fbd6cb44469856311ec3e12035bb8a74f30d3f1c9600",
}


@pytest.mark.parametrize("path", [EXAMPLE, NO_WITNESS])
@pytest.mark.parametrize("prime", sorted(FANO_SEARCH_SHA256))
def test_fano_search_stdout_matches_golden_digests(path, prime):
    out, _, code = run_cli(["fano-search", path, "--prime", str(prime)])
    assert code == (1 if prime == 2 else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == FANO_SEARCH_SHA256[prime]


def test_verify_point_subcommand():
    out, _, code = run_cli(
        [
            "verify-point",
            EXAMPLE,
            "--prime",
            "2",
            "--chart",
            ",".join(str(c) for c in CHART_UI),
            "--coords",
            ",".join(str(c) for c in F2_WITNESS),
        ]
    )
    assert code == 1  # on the system but not smooth: the honest verdict
    doc = json.loads(out)
    assert doc["on_system"] is True
    assert doc["jacobian_rank"] == "4"
    assert doc["smooth"] is False

    out, _, code = run_cli(
        [
            "verify-point",
            EXAMPLE,
            "--prime",
            str(BIG_PRIME),
            "--chart",
            ",".join(str(c) for c in CHART_UI),
            "--coords",
            ",".join(str(c) for c in BIG_WITNESS),
        ]
    )
    assert code == 0
    assert json.loads(out)["smooth"] is True

    # Off the system, though the Jacobian has rank 6 there.
    out, _, code = run_cli(
        ["verify-point", EXAMPLE, "--prime", "3", "--chart", "1,3", "--coords", "1,0,0,0,0,0,0,0"]
    )
    assert code == 1
    assert '"on_system":false' in out
    assert json.loads(out)["jacobian_rank"] == "6"


def test_verify_ambient_subcommand():
    out, _, code = run_cli(
        ["verify-ambient", EXAMPLE, "--coords", "1,0,0,0,0,0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["on_intersection"] is True
    assert doc["prime"] is None

    out, _, code = run_cli(
        ["verify-ambient", EXAMPLE, "--coords", "0,0,0,1,0,1", "--prime", "2"]
    )
    assert code == 0

    out, _, code = run_cli(
        ["verify-ambient", EXAMPLE, "--coords", "0,0,0,1,0,0"]
    )
    assert code == 1
    assert json.loads(out)["on_intersection"] is False


def test_reduction_subcommand(tmp_path):
    out, _, code = run_cli(["reduction", EXAMPLE, "--prime", "2"])
    assert code == 0
    doc = json.loads(out)
    assert "reducib" in doc["verdict"]
    assert doc["prime"] == "2"

    out, _, code = run_cli(["reduction", EXAMPLE, "--prime", str(BIG_PRIME)])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "kernel-guided"
    assert doc["non_conical"] is True
    assert len(doc["points"]) == 1

    out, _, code = run_cli(["reduction", EXAMPLE, "--prime", "3"])
    assert code == 0
    assert json.loads(out)["points"] == []

    path = tmp_path / "degenerate3.txt"
    path.write_text(
        "Q1: 3u^2 + 3v^2\nQ2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n"
    )
    out, _, code = run_cli(["reduction", str(path), "--prime", "3"])
    assert code == 2
    assert "error" in json.loads(out)


def test_kernel_candidate_cap_is_an_incomplete_result(tmp_path):
    # Mod 1009 the member Q1 - Q2 has the 4-dimensional kernel <e_u, ..., e_x>,
    # whose 1009^2 + 1009 + 1 kernel quadratics exceed the candidate cap.
    path = tmp_path / "cap.txt"
    path.write_text(
        "Q1: u^2 + 1010v^2 + 2019w^2 + 3028x^2 + 5y^2 + 6z^2\n"
        "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n"
    )
    out, err, code = run_cli(["analyze", str(path)])
    assert code == 2
    assert "Traceback" not in err
    doc = json.loads(out)
    assert "reduction analysis failed at 1009" in doc["incomplete_reasons"]
    report = next(r for r in doc["reduction_reports"] if r["prime"] == "1009")
    assert "exceeds the cap (1019091 > 1000000)" in report["error"]

    out, _, code = run_cli(["reduction", str(path), "--prime", "1009"])
    assert code == 2
    assert "exceeds the cap" in json.loads(out)["error"]


def test_three_dimensional_kernel_at_a_large_prime(tmp_path):
    # Mod 1009 the member Q1 - Q2 has the kernel <e_u, e_v, e_w>; every point
    # of X_p on it is singular, and they are the 1010 points of the conic
    # u^2 + v^2 + w^2 = 0 in that plane, found by one quadratic per line.
    p = 1009
    path = tmp_path / "conic.txt"
    path.write_text(
        "Q1: u^2 + 1010v^2 + 2019w^2 + 4x^2 + 5y^2 + 6z^2\n"
        "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n"
    )
    out, err, code = run_cli(["analyze", str(path)])
    assert code == 2
    assert "Traceback" not in err
    doc = json.loads(out)
    assert not any("reduction analysis failed" in r for r in doc["incomplete_reasons"])
    report = next(r for r in doc["reduction_reports"] if r["prime"] == str(p))
    assert (report["method"], report["non_conical"]) == ("kernel-guided", True)
    assert report["ambient_jacobian_ranks"] == ["1"] * 1010

    out, _, code = run_cli(["reduction", str(path), "--prime", str(p)])
    assert code == 0
    locus = json.loads(out)
    points = [tuple(int(c) for c in pt) for pt in locus["points"]]
    assert points == sorted(set(points)) and len(points) == 1010
    assert [list(pt) for pt in points] == [
        [int(c) for c in pt] for pt in report["points"]]
    diagonals = ((1, 1010, 2019, 4, 5, 6), (1, 1, 1, 1, 1, 1))
    for pt in points:
        # On both forms, first nonzero coordinate 1, and gradients 2*a_i*x_i
        # of rank 1: proportional but not both 0.
        assert next(c for c in pt if c) == 1
        assert all(sum(a * c * c for a, c in zip(d, pt)) % p == 0 for d in diagonals)
        g1, g2 = ([2 * a * c % p for a, c in zip(d, pt)] for d in diagonals)
        assert any(g1) or any(g2)
        assert all((g1[i] * g2[j] - g1[j] * g2[i]) % p == 0
                   for i in range(6) for j in range(i + 1, 6))
    assert locus["ambient_jacobian_ranks"] == ["1"] * 1010
    assert locus["non_conical"] is True


def test_two_dimensional_kernel_at_a_large_prime(tmp_path):
    # Mod 1000003 the member Q1 - Q2 has the kernel <e_u, e_v>, on which both
    # forms restrict to u^2 + v^2; -1 is not a square mod 1000003, so the
    # locus is empty, decided by one square root instead of p + 1 points.
    path = tmp_path / "plane.txt"
    path.write_text(
        "Q1: u^2 + 1000004v^2 + 3w^2 + 4x^2 + 5y^2 + 6z^2\n"
        "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n"
    )
    out, err, code = run_cli(["analyze", str(path)])
    assert code == 2
    assert "Traceback" not in err
    doc = json.loads(out)
    assert not any("reduction analysis failed" in r for r in doc["incomplete_reasons"])
    report = next(r for r in doc["reduction_reports"] if r["prime"] == "1000003")
    assert (report["method"], report["points"], report["non_conical"]) == (
        "kernel-guided", [], True,
    )

    out, _, code = run_cli(["reduction", str(path), "--prime", "1000003"])
    assert code == 0
    assert json.loads(out)["points"] == []


# Pencils of the pinned-output table below, besides the bundled files.
PINNED_PENCILS = {
    # Four 1,501-digit coefficients: f(t) has coefficients of about 6,000
    # digits, past Python's default str() limit.
    "huge": "Q1: {c}u^2 + {c}v^2 + {c}w^2 + {c}x^2 + y^2 + z^2\n"
            "Q2: u^2 + 2v^2 + 3w^2 + 4x^2 + 5y^2 + 6z^2\n".format(c="3" + "0" * 1500),
    "non-integral": NON_INTEGRAL_PENCIL,
    # Mod 1009, Q1 - Q2 has a 3-dimensional kernel (the singular locus is a
    # conic) in "conic" and a 4-dimensional one (past the candidate cap) in "cap".
    "conic": "Q1: u^2 + 1010v^2 + 2019w^2 + 4x^2 + 5y^2 + 6z^2\n"
             "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n",
    "cap": "Q1: u^2 + 1010v^2 + 2019w^2 + 3028x^2 + 5y^2 + 6z^2\n"
           "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n",
    # Q1 vanishes mod 3.
    "degenerate3": "Q1: 3u^2 + 3v^2\nQ2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n",
    "degenerate-all3": "Q1: 3u^2 + 3v^2 + 3w^2 + 3x^2 + 3y^2 + 3z^2\n"
                       "Q2: u^2 + 2v^2 + 3w^2 + 4x^2 + 5y^2 + 6z^2\n",
    # Past the parser's nesting cap: an input error, not a traceback.
    "deep340": "Q1: " + "(" * 340 + "u^2" + ")" * 340 + "\nQ2: v^2 + w^2\n",
}

_BIG_POINT = ["--prime", str(BIG_PRIME), "--chart", ",".join(map(str, CHART_UI)),
              "--coords", ",".join(map(str, BIG_WITNESS))]

# (argv with a file key for the path, exit code, sha256 of stdout) for each
# subcommand but fano-search, and for analyze on an input error; the
# digests of certificates and of fano-search are pinned above.
PINNED_OUTPUTS = [
    (["charform", "example"], 0,
     "5f325225a107e24030408f4faea708a1769843254eed656ea68445df6a7ed15c"),
    (["charform", "no-witness"], 0,
     "5f325225a107e24030408f4faea708a1769843254eed656ea68445df6a7ed15c"),
    (["charform", "huge"], 0,
     "d1e2ced9decc62e12be1b0ca20cf6e1d0bddb79f7ed89fbfe08cd73e57e3f0bd"),
    (["charform", "non-integral"], 2,
     "a2950c162b73921487b5dfc02ce079b9b4bbef9ec074ea04fb385e48eb767069"),
    (["verify-point", "example", *_BIG_POINT], 0,
     "fc1b5740cae62c3dc5f617944d229fe0398678d9a7af56f8c62ecead99e7f01a"),
    (["verify-point", "example", "--prime", "2", "--chart", "2,3",
      "--coords", "1,1,0,0,1,1,0,0"], 1,
     "24597c9133e733fc702b9fdd68052691c8215658c635afb6d63f267e73fdea80"),
    (["verify-point", "example", "--prime", "3", "--chart", "1,3",
      "--coords", "2,0,0,0,0,0,2,0"], 0,
     "cc9ffb23b51cbfce3da65b3d147ffb960261f8948991e2addc78917aecf764c6"),
    (["verify-point", "example", "--prime", "5", "--chart", "1,2",
      "--coords", "4,4,4,3,2,2,3,3"], 0,
     "d15c1ca857f66c88175127f894fd8ca308e21753b6cc1bbab5bf2a6bb3081d71"),
    (["verify-point", "example", "--prime", "3", "--chart", "1,3",
      "--coords", "1,0,0,0,0,0,0,0"], 1,
     "953176c5bf691058728cac40e883cef272edb367e7380b77098bd54de2121d3a"),
    (["verify-point", "example", "--prime", "3", "--chart", "1,3",
      "--coords", f"2,{'7' * 5000},0,0,0,0,0,0"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify-point", "example", "--prime", "3", "--chart", "1,3",
      "--coords=-1,0,0,0,0,0,2,0"], 0,
     "d37dcd4089663731ef17a58f138b93c19f3429ee0df35fd31729896866cb045a"),
    (["verify-ambient", "example", "--coords", "1,0,0,0,0,0"], 0,
     "d49c0906e75dc0e2656b20d2d3888e1ce4491c85782268e41d218d49c5d89dbe"),
    (["verify-ambient", "example", "--coords", "0,0,0,1,0,1", "--prime", "2"], 0,
     "7a501dab6420702cb51f78f5ee766aad40b2fe52a7af1a6f5329f4f64f0dba14"),
    (["verify-ambient", "example", "--coords", "0,0,0,1,0,0"], 1,
     "90f2cda8da84ce1f07c6a3f7d0c34c787b7994034bbb549d0e4a8fb796136af0"),
    (["reduction", "example", "--prime", "2"], 0,
     "310fff7e34c841f9208f5caa12220682afe5818dee6901b08021e9d55f8f8e66"),
    (["reduction", "example", "--prime", "13"], 0,
     "7e2ded0409fe0ebd5aec3e925ba5c28861e13e7100689b4972c94316631610c8"),
    (["reduction", "example", "--prime", "17"], 0,
     "b7b3d767607cac4d5219cc6b6db2b05f22c896979c2683c1c624ed9481f4e71a"),
    (["reduction", "example", "--prime", str(BIG_PRIME)], 0,
     "c855ab41d44d0cb628079b3f161c07aabc1091b4181aefd08ec325fc48074db5"),
    (["reduction", "conic", "--prime", "1009"], 0,
     "030e455bd87cb30549aa5d94b38c50f68192cba107ad2255d74b899bbd38cc81"),
    (["reduction", "cap", "--prime", "1009"], 2,
     "e74193c7fbe6eea92efb5f724edd63357ff973d9f8ea5daf3e83c32ccb886935"),
    (["reduction", "degenerate3", "--prime", "3"], 2,
     "9e7bba0f343b7e09596e075cefb2023b697ecb8f3cc80cb7c5323402415fa208"),
    (["reduction", "degenerate-all3", "--prime", "3"], 2,
     "9e7bba0f343b7e09596e075cefb2023b697ecb8f3cc80cb7c5323402415fa208"),
    (["analyze", "deep340"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    PINNED_OUTPUTS,
    ids=[f"{argv[0]}-{argv[1]}-{k}" for k, (argv, _, _) in enumerate(PINNED_OUTPUTS)],
)
def test_subcommand_stdout_and_exit_code_are_pinned(tmp_path, argv, exit_code, digest):
    command, key, *options = argv
    path = {"example": EXAMPLE, "no-witness": NO_WITNESS}.get(key)
    if path is None:
        path = tmp_path / f"{key}.txt"
        path.write_text(PINNED_PENCILS[key])
    out, _, code = run_cli([command, str(path), *options])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "/nonexistent/input.txt"],
        ["analyze", EXAMPLE, "--good-primes", "2,3"],
        ["analyze", EXAMPLE, "--search"],
        ["fano-search", EXAMPLE, "--prime", "6"],
        ["fano-search", EXAMPLE, "--prime", "37"],
        ["verify-point", EXAMPLE, "--prime", "3", "--chart", "9,1", "--coords", "1,1,0,0,1,1,0,0"],
        ["verify-point", EXAMPLE, "--prime", "3", "--chart", "2,3", "--coords", "1,2,3"],
        ["verify-ambient", EXAMPLE, "--coords", "0,0,0,0,0,0"],
        ["reduction", EXAMPLE, "--prime", "9"],
        ["reduction", EXAMPLE, "--prime", str(BIG_PRIME), "--method", "exhaustive"],
        ["no-such-subcommand"],
        [],
        ["analyze", EXAMPLE, "--workers", "0"],
        ["fano-search", EXAMPLE, "--prime", "3", "--workers", "0"],
        ["fano-search", EXAMPLE, "--prime", "3", "--workers", "-4"],
        ["analyze", EXAMPLE, "--budget", "5"],
        ["fano-search", EXAMPLE, "--prime", "7", "--seed", "1"],
        ["analyze", EXAMPLE, "--good-primes", "3,3"],
        ["reduction", EXAMPLE, "--prime", "3", "--method", "kernel-guided"],
        ["analyze", EXAMPLE, "--lift-precision", "3"],
        ["reduction", EXAMPLE, "--prime", "+13"],
        ["reduction", EXAMPLE, "--prime", "1_3"],
        ["reduction", EXAMPLE, "--prime", "\u0661\u0663"],
    ],
)
def test_usage_errors_exit_3(argv):
    _, err, code = run_cli(argv)
    assert code == 3
    assert err


HUGE = "7" * 5000


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--coords", ["verify-point", EXAMPLE, "--prime", "3", "--chart", "1,3",
                      "--coords", f"2,{HUGE},0,0,0,0,0,0"]),
        ("--chart", ["verify-point", EXAMPLE, "--prime", "3", "--chart", f"1,{HUGE}",
                     "--coords", "2,0,0,0,0,0,2,0"]),
        ("--chart", ["fano-search", EXAMPLE, "--prime", "3", "--chart", f"{HUGE},2"]),
        ("--coords", ["verify-ambient", EXAMPLE, "--coords", f"1,0,0,0,0,-{HUGE}"]),
        ("--good-primes", ["analyze", EXAMPLE, "--good-primes", f"3,{HUGE}"]),
        ("--prime", ["reduction", EXAMPLE, "--prime", HUGE]),
        ("--workers", ["analyze", EXAMPLE, "--workers", HUGE]),
    ],
)
def test_option_integers_past_the_conversion_limit_exit_3(option, argv):
    out, err, code = run_cli(argv)
    assert (out, code) == ("", 3)
    assert err.startswith(f"error: {option}: integer longer than ")
    assert "set_int_max_str_digits" not in err


def test_input_syntax_error_exits_3(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("Q1: uvw\nQ2: uv\n")
    _, err, code = run_cli(["analyze", str(path)])
    assert code == 3
    assert "line 1" in err


@pytest.mark.parametrize(
    "options",
    [
        ["analyze"],
        ["verify-point", "--prime", "3", "--chart", "2,3", "--coords", "0,0,0,0,0,0,0,0"],
    ],
)
def test_undecodable_input_exits_3_with_line_and_column(tmp_path, options):
    # Line 2 holds 14 characters (16 bytes) before the Latin-1 byte 0xe9.
    path = tmp_path / "latin1.txt"
    path.write_bytes("Q1: uv + wx + yz\n# déjà vu: caf".encode() + b"\xe9\nQ2: uw\n")
    out, err, code = run_cli([options[0], str(path), *options[1:]])
    assert (out, code) == ("", 3)
    assert err == "input error: line 2, column 15: invalid UTF-8 byte 0xe9\n"


# ---------------------------------------------------------------------------
# Canonical JSON and configuration validation
# ---------------------------------------------------------------------------

def test_canonical_json_conventions():
    rendered = canonical_json({"b": 1, "a": [Fraction(1, 2), True, None, -7]})
    assert rendered == '{"a":["1/2",true,null,"-7"],"b":"1"}'
    with pytest.raises(TypeError):
        canonical_json({"x": 1.5})
    with pytest.raises(TypeError):
        canonical_json({1: "x"})
    # A record is a tuple, but has no canonical encoding of its own.
    with pytest.raises(TypeError, match="no canonical JSON encoding"):
        canonical_json({"x": GrassmannChart((0, 1))})


def _seeded_document(rng: random.Random, depth: int = 0):
    """A nested value of the kinds a certificate holds."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        alphabet = 'az09 "\\/\n\t\x00\x1f\x7fé€\U0001f600'
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))
    if kind == 2:
        return rng.choice((0, -1, 7)) * rng.getrandbits(rng.choice((3, 30, 70, 300)))
    if kind == 3:
        # Past the 4,300-digit limit of str(int).
        return rng.choice((1, -1)) * (10 ** rng.randrange(4300, 6000) + rng.getrandbits(64))
    if kind == 4:
        return Fraction(rng.randrange(-10**30, 10**30), rng.choice((1, 3, 2**64, 10**4500 + 1)))
    if kind == 5:
        return rng.randrange(-5, 5)
    items = [_seeded_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {f"k{rng.randrange(50)}{rng.choice(('', 'é', ' '))}": item for item in items}


def test_canonical_json_matches_the_two_pass_writer(analyze_runs, analyze_no_witness):
    rng = random.Random(20261020)
    documents = [_seeded_document(rng) for _ in range(300)]
    documents += [{"doc": _seeded_document(rng, 1), "more": [_seeded_document(rng, 2)]}
                  for _ in range(100)]
    documents += [json.loads(analyze_runs[0][0]), json.loads(analyze_no_witness[0])]
    documents.append(run_pipeline(PipelineConfig(EXAMPLE)))
    for document in documents:
        assert canonical_json(document) == reference_canonical_json(document)
    # A record, a non-string key and a float raise the same TypeError; with
    # two of them the first in insertion order is reported.
    for bad in ({"x": GrassmannChart((0, 1))}, {1: "x"}, {"a": [1, {"b": 1.5}]},
                [{"a": {2: 3}}], {"b": 1.5, 3: "x"}, {3: "x", "b": 1.5},
                (GrassmannChart((1, 2)),), 2.5):
        with pytest.raises(TypeError) as mine:
            canonical_json(bad)
        with pytest.raises(TypeError) as reference:
            reference_canonical_json(bad)
        assert str(mine.value) == str(reference.value), bad


def test_certificate_json_has_no_numeric_leaves(analyze_runs):
    _, (out, _, _) = analyze_runs

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                assert isinstance(key, str)
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)
        else:
            assert value is None or isinstance(value, (str, bool)), value

    walk(json.loads(out))


def test_pipeline_config_validation():
    good = dict(input_path=EXAMPLE)
    with pytest.raises(ValueError):
        PipelineConfig(**good, good_prime_samples=(2, 3))
    with pytest.raises(ValueError):
        PipelineConfig(**good, good_prime_samples=(9,))
    with pytest.raises(ValueError, match="repeated"):
        PipelineConfig(**good, good_prime_samples=(3, 5, 3))
    with pytest.raises(TypeError):
        PipelineConfig(input_path=EXAMPLE, lift_precision=3)
    with pytest.raises(ValueError):
        PipelineConfig(**good, workers=0)
    with pytest.raises(ValueError, match="2 is not usable"):
        PipelineConfig(**good, good_prime_samples=(2,))
    cfg = PipelineConfig(**good, good_prime_samples=[3, 5])
    assert cfg.good_prime_samples == (3, 5)
    with pytest.raises(AttributeError):
        cfg.workers = 2
