"""End-to-end pipeline and CLI: certificates, exit codes, canonical JSON."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from quadpencil import (
    PipelineConfig,
    canonical_json,
    parse_input,
    run_pipeline,
    singular_locus,
)
from quadpencil import pipeline, reduction
from quadpencil.fano import fano_system
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
)

EXAMPLE = str(EXAMPLE_PATH)
NO_WITNESS = str(NO_WITNESS_PATH)

INCOMPLETE_AT_2 = "no smooth Fano point certificate at 2"

# sha256 of `analyze` stdout for the bundled files: any change to a
# certificate byte must be deliberate.
EXAMPLE_SHA256 = "12317e8b2b9cbd9d24bc12d5c05bcf4667e9217e9f42841f467f583a39ce5342"
NO_WITNESS_SHA256 = "7399ea7d95f5ff3547e58298e88ff19906af6f2c07bc195ed58f2cb4c005493d"


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
    assert doc["certificate_version"] == "2"
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
    assert set(doc["config"]) == {
        "good_prime_samples",
        "lift_precision",
    }
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
        assert int(entry["smooth_point_count"]) > 0


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


def test_pipeline_computes_every_locus_kernel_guided(monkeypatch):
    pencil = parse_input(EXAMPLE).pencil
    good_primes = (3, 5, 7, 11, 13)
    expected = {
        p: [list(pt) for pt in singular_locus(pencil, p, method="exhaustive").points]
        for p in good_primes
    }

    def refuse(*_args):
        raise AssertionError("the pipeline ran the exhaustive locus scan")

    monkeypatch.setattr(reduction, "_exhaustive_locus", refuse)
    for path in (EXAMPLE, NO_WITNESS):
        certificate = run_pipeline(PipelineConfig(input_path=path, workers=1))
        good = [
            e for e in certificate.local_certificates if e["kind"] == "good prime"
        ]
        assert [e["place"] for e in good] == [str(p) for p in good_primes]
        for entry in good:
            assert entry["singular_locus_method"] == "kernel-guided"
            assert "(kernel-guided scan)" in entry["justification"]
            assert entry["singular_locus"] == expected[int(entry["place"])]
        loci = [
            r for r in certificate.reduction_reports if r["kind"] == "singular-locus"
        ]
        assert loci
        assert all(r["method"] == "kernel-guided" for r in loci)


def test_pipeline_builds_each_chart_system_once(monkeypatch):
    built = []

    def counting_fano_system(pencil, chart):
        built.append(chart.pivots)
        return fano_system(pencil, chart)

    monkeypatch.setattr(pipeline, "fano_system", counting_fano_system)
    run_pipeline(PipelineConfig(input_path=EXAMPLE))
    # Witnesses at 2 and 149743897 and the lift at 149743897 share chart 2,3
    # (pivots (1, 2)); the searches at 3 and 5 share chart 1,2 (pivots (0, 1)).
    assert sorted(built) == [(0, 1), (1, 2)]
    built.clear()
    run_pipeline(PipelineConfig(input_path=NO_WITNESS))
    assert built == [(0, 1)]


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
    assert not certificate.is_positive
    assert canonical_json(certificate.to_document()) + "\n" == out


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
    assert "t^6" in doc["pretty"]
    assert "f(t) =" in err
    path = tmp_path / "nonintegral.txt"
    path.write_text("Q1: uv\nQ2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n")
    out, _, code = run_cli(["charform", str(path)])
    assert code == 2
    assert "error" in json.loads(out)


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
    # Mod 1009 the member Q1 - Q2 has a 3-dimensional kernel, whose
    # 1009^2 + 1009 + 1 projective points exceed the candidate cap.
    path = tmp_path / "cap.txt"
    path.write_text(
        "Q1: u^2 + 1010v^2 + 2019w^2 + 4x^2 + 5y^2 + 6z^2\n"
        "Q2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n"
    )
    out, err, code = run_cli(["analyze", str(path)])
    assert code == 2
    assert "Traceback" not in err
    doc = json.loads(out)
    assert "reduction analysis failed at 1009" in doc["incomplete_reasons"]
    report = next(r for r in doc["reduction_reports"] if r["prime"] == "1009")
    assert "exceeds the cap (1019091 > 1000000)" in report["error"]

    out, _, code = run_cli(
        ["reduction", str(path), "--prime", "1009", "--method", "kernel-guided"]
    )
    assert code == 2
    assert "exceeds the cap" in json.loads(out)["error"]


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
    ],
)
def test_usage_errors_exit_3(argv):
    _, err, code = run_cli(argv)
    assert code == 3
    assert err


def test_input_syntax_error_exits_3(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("Q1: uvw\nQ2: uv\n")
    _, err, code = run_cli(["analyze", str(path)])
    assert code == 3
    assert "line 1" in err


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
    with pytest.raises(ValueError):
        PipelineConfig(**good, lift_precision=0)
    with pytest.raises(ValueError):
        PipelineConfig(**good, workers=0)
