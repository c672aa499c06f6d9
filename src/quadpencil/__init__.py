"""Exact-arithmetic local-rationality certification for pencils of quadrics.

The library studies a smooth complete intersection X of two quadrics in
P^5 through its characteristic form f(t) = -det(M1 - t*M2), the genus-2
curve z^2 = f(t), and the Fano variety of lines on X, and certifies local
points at the real place and at every prime — entirely in exact rational
and modular arithmetic, with no floating point anywhere.

Each public name is imported from its submodule on first use, so that a
command loads only the modules it runs.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_EXPORTS = {
    "NUM_VARIABLES": "quadric",
    "VARIABLES": "quadric",
    "QuadraticForm": "quadric",
    "CurveData": "pencil",
    "NonIntegralCharacteristicFormError": "pencil",
    "PencilOfQuadrics": "pencil",
    "curve_data": "pencil",
    "smoothness_check": "pencil",
    "FANO_CODIMENSION": "fano",
    "NUM_PARAMETERS": "fano",
    "FanoPointReport": "fano",
    "FanoSystem": "fano",
    "GrassmannChart": "fano",
    "all_charts": "fano",
    "chart_point_rows": "fano",
    "fano_system": "fano",
    "verify_fano_point": "fano",
    "CensusEntry": "localcert",
    "LocalPointCertificate": "localcert",
    "chart_census": "localcert",
    "hensel_certify": "localcert",
    "real_place_report": "localcert",
    "search_smooth_points": "localcert",
    "verify_projective_point": "localcert",
    "DegenerateReductionError": "reduction",
    "SingularLocusReport": "reduction",
    "cone_check": "reduction",
    "mod2_degeneracy": "reduction",
    "normalize_projective": "reduction",
    "singular_locus": "reduction",
    "FanoWitness": "parsing",
    "ParsedInput": "parsing",
    "ParseError": "parsing",
    "SingularWitness": "parsing",
    "canonical_json": "parsing",
    "parse_form": "parsing",
    "parse_input": "parsing",
    "parse_input_text": "parsing",
    "pretty_print": "parsing",
    "DEGENERATE_VERDICT": "pipeline",
    "POSITIVE_VERDICT": "pipeline",
    "PipelineConfig": "pipeline",
    "run_pipeline": "pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
