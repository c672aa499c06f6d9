"""What each command imports: start-up cost is paid per process."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import quadpencil

from conftest import BIG_PRIME, BIG_WITNESS, CHART_UI, EXAMPLE_PATH, NO_WITNESS_PATH, load_qpbench

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# Runs argv through the CLI as `python -m quadpencil.cli` does (or, for
# null, imports the bare package), then prints, as its last line, the exit
# code and the loaded modules.
_PROBE = """
import json, runpy, sys
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    sys.argv = ["quadpencil", *argv]
    try:
        runpy.run_module("quadpencil.cli", run_name="__main__")
    except SystemExit as stop:
        code = stop.code
else:
    import quadpencil
print(json.dumps([code, sorted(sys.modules)]))
"""

# The modules that only some commands run.
HEAVY = {"quadpencil.pipeline", "quadpencil.localcert", "quadpencil.reduction"}

PUBLIC_NAMES = [
    "CensusEntry", "CurveData", "DEGENERATE_VERDICT", "DegenerateReductionError",
    "FANO_CODIMENSION", "FanoPointReport", "FanoSystem", "FanoWitness",
    "GrassmannChart", "LocalPointCertificate", "NUM_PARAMETERS", "NUM_VARIABLES",
    "NonIntegralCharacteristicFormError", "POSITIVE_VERDICT", "ParseError",
    "ParsedInput", "PencilOfQuadrics", "PipelineConfig", "QuadraticForm",
    "SingularLocusReport", "SingularWitness", "VARIABLES",
    "all_charts", "canonical_json", "chart_census",
    "chart_point_rows", "cone_check", "curve_data", "fano_system", "hensel_certify",
    "mod2_degeneracy", "normalize_projective", "parse_form", "parse_input",
    "parse_input_text", "pretty_print", "real_place_report", "run_pipeline",
    "search_smooth_points", "singular_locus", "smoothness_check", "verify_fano_point",
    "verify_projective_point",
]


def loaded_modules(argv) -> tuple[int | None, set[str]]:
    """Exit code and sys.modules of a bare interpreter that ran argv."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize(
    "argv, exit_code, heavy",
    [
        (["analyze", EXAMPLE_PATH], 2, HEAVY),
        (["charform", EXAMPLE_PATH], 0, set()),
        (
            [
                "verify-point", EXAMPLE_PATH, "--prime", str(BIG_PRIME),
                "--chart", ",".join(map(str, CHART_UI)),
                "--coords", ",".join(map(str, BIG_WITNESS)),
            ],
            0,
            set(),
        ),
        (
            ["verify-ambient", EXAMPLE_PATH, "--coords", "1,0,0,0,0,0"],
            0,
            {"quadpencil.localcert"},
        ),
        (["reduction", EXAMPLE_PATH, "--prime", "2"], 0, {"quadpencil.reduction"}),
        (
            ["fano-search", EXAMPLE_PATH, "--prime", "3", "--chart", "2,3"],
            0,
            {"quadpencil.localcert"},
        ),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, exit_code, heavy):
    code, modules = loaded_modules(argv)
    assert code == exit_code
    # hashlib costs about 5 ms per process (its OpenSSL part alone 4 ms).
    assert not {"dataclasses", "hashlib"} & modules
    assert modules & HEAVY == heavy


@pytest.mark.parametrize("path", [EXAMPLE_PATH, NO_WITNESS_PATH])
def test_analyze_bytes_do_not_depend_on_the_hash_seed(path):
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "quadpencil.cli", "analyze", path],
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
            capture_output=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def test_bare_package_import_loads_no_submodule():
    _, modules = loaded_modules(None)
    assert "quadpencil" in modules
    assert not {m for m in modules if m.startswith("quadpencil.")}


def test_public_names_are_pinned_and_star_import_binds_them():
    assert quadpencil.__all__ == PUBLIC_NAMES
    namespace: dict = {}
    exec("from quadpencil import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(quadpencil))
    with pytest.raises(AttributeError):
        quadpencil.no_such_name


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps each (caller module, name) of its span plan
    # by getattr, so a name that a module stops importing breaks traced runs.
    plan = load_qpbench("worker")._span_plan()
    missing = [(module, name) for module, name, *_ in plan
               if not hasattr(importlib.import_module(module), name)]
    assert len(plan) > 30 and missing == []
