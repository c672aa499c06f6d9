"""Input parsing: polynomial syntax, witness lines, and whole input files."""

from __future__ import annotations

import random
import re
import sys

import pytest

from quadpencil import (
    FanoWitness,
    NonIntegralCharacteristicFormError,
    ParseError,
    QuadraticForm,
    SingularWitness,
    parse_form,
    parse_input,
    parse_input_text,
    pretty_print,
)

from conftest import (
    BIG_PRIME,
    BIG_WITNESS,
    CHART_UI,
    F2_WITNESS,
    Q1_COEFFS,
    Q1_TEXT,
    Q2_COEFFS,
    Q2_TEXT,
    SINGULAR_POINT_VERBATIM,
    reference_parse_form,
)
from test_quadric import random_form
from quadpencil.parsing import MAX_NESTING


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _file_with(*extra_lines: str) -> str:
    lines = [f"Q1: {Q1_TEXT}", f"Q2: {Q2_TEXT}", *extra_lines]
    return "\n".join(lines) + "\n"


# Digits that int() refuses to convert.
TOO_LONG = "7" * (sys.get_int_max_str_digits() + 1)


# ---------------------------------------------------------------------------
# Polynomial syntax
# ---------------------------------------------------------------------------

def test_example_forms_parse_to_expected_coefficients():
    assert parse_form(Q1_TEXT).coeffs == Q1_COEFFS
    assert parse_form(Q2_TEXT).coeffs == Q2_COEFFS


def test_parse_pretty_print_roundtrip_on_random_forms():
    rng = random.Random(20260819)
    for _ in range(200):
        q = random_form(rng)
        assert parse_form(pretty_print(q)).coeffs == q.coeffs


def test_pretty_print_is_canonical():
    assert pretty_print(parse_form(Q1_TEXT)) == Q1_TEXT
    assert pretty_print(parse_form(Q2_TEXT)) == Q2_TEXT
    assert pretty_print(QuadraticForm({(0, 0): -1, (1, 2): 3})) == "-u^2 + 3vw"
    assert pretty_print(QuadraticForm({(0, 1): 1, (1, 2): -1})) == "uv - vw"


def test_syntax_variants_are_equivalent():
    expected = {(1, 2): 4}
    for text in ("4vw", "4*v*w", "4 v w", "4*vw", "v*4w", "(2+2)vw", "2vw + 2vw",
                 "4wv", "2wv + 2vw", "w(v + 3v)"):
        assert parse_form(text).coeffs == expected, text


def test_parenthesised_grouping():
    assert parse_form("-(uv + vw) + (x)(x)").coeffs == {
        (0, 1): -1,
        (1, 2): -1,
        (3, 3): 1,
    }
    assert parse_form("2(u+v)w").coeffs == {(0, 2): 2, (1, 2): 2}
    nested = "(" * 100 + "u^2 - (v(w))" + ")" * 100
    assert parse_form(f"x^2 + {nested}").coeffs == {(3, 3): 1, (0, 0): 1, (1, 2): -1}


def test_zero_coefficient_terms_drop_out():
    assert parse_form("0uv + x^2 + 0*y^2").coeffs == {(3, 3): 1}


def test_arbitrary_precision_coefficients():
    c = 123456789012345678901234567890
    q = parse_form(f"{c}uv - {c}x^2")
    assert q.coeffs == {(0, 1): c, (3, 3): -c}
    assert parse_form(pretty_print(q)).coeffs == q.coeffs


def test_unknown_variable_reports_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_form("a^2", line=7)
    err = info.value
    assert err.line == 7
    assert err.column == 1
    assert "unknown variable 'a'" in err.message
    assert str(err).startswith("line 7, column 1:")
    assert issubclass(ParseError, ValueError)


def test_unexpected_character():
    with pytest.raises(ParseError) as info:
        parse_form("u? v")
    assert info.value.column == 2
    assert "unexpected character '?'" in info.value.message
    # '²'.isdigit() is True, but int('²') raises: it is not a digit here.
    with pytest.raises(ParseError) as info:
        parse_form("u² + v^2")
    assert info.value.column == 2
    assert "unexpected character '²'" in info.value.message


def test_exponent_above_two_is_rejected():
    with pytest.raises(ParseError) as info:
        parse_form("u^3")
    assert info.value.column == 3
    assert "exponent 3 exceeds 2" in info.value.message


def test_cubic_product_is_rejected():
    with pytest.raises(ParseError, match="total degree exceeds 2"):
        parse_form("uvw")


def test_wrong_total_degree_is_rejected():
    with pytest.raises(ParseError, match="'u' has total degree 1"):
        parse_form("u + v")
    with pytest.raises(ParseError, match="'5' has total degree 0"):
        parse_form("u^2 + 5")


def test_trailing_operator():
    with pytest.raises(ParseError) as info:
        parse_form("u^2 +")
    assert "unexpected end of expression" in info.value.message
    assert info.value.column == 6


def test_bad_exponent_syntax():
    with pytest.raises(ParseError, match="expected an integer exponent"):
        parse_form("u^x")
    with pytest.raises(ParseError, match="unexpected end of expression"):
        parse_form("u^")


def test_unbalanced_parentheses():
    with pytest.raises(ParseError, match="unexpected end of expression"):
        parse_form("(uv")
    with pytest.raises(ParseError) as info:
        parse_form("uv)")
    assert "unexpected ')'" in info.value.message
    assert info.value.column == 3


@pytest.mark.parametrize("depth", [340, 5000])
def test_deep_parentheses_are_a_parse_error(depth):
    # Past MAX_NESTING levels the form is rejected at its outermost open
    # parenthesis.
    nested = "(" * depth + "u^2" + ")" * depth
    with pytest.raises(ParseError) as info:
        parse_form(f"v^2 + {nested}", line=4)
    assert (info.value.message, info.value.line, info.value.column) == (
        "parentheses nested too deeply", 4, 7)
    with pytest.raises(ParseError, match="^line 2, column 5: parentheses nested too deeply$"):
        parse_input_text(f"Q2: v^2 + w^2\nQ1: {nested}\n")


def _at_depth(frames: int, call):
    """call() from `frames` more Python frames down the stack."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 300, 700])
def test_nesting_cap_does_not_depend_on_the_callers_stack(frames):
    # The cap holds however deep the caller is: the recursive parser kept in
    # conftest rejects 300 levels from about 100 frames below the CLI's depth.
    assert MAX_NESTING == 328
    deepest = "(" * 327 + "u^2 - w(v)" + ")" * 327
    form = _at_depth(frames, lambda: parse_form(f"v^2 + {deepest}"))
    assert form.coeffs == {(1, 1): 1, (0, 0): 1, (1, 2): -1}
    # Two levels stay open around a closed third, then 327 more open.
    too_deep = "((" + "(u^2) + " + "(" * 327 + "v^2" + ")" * 329
    with pytest.raises(ParseError) as info:
        _at_depth(frames, lambda: parse_form(too_deep, line=4))
    assert (info.value.message, info.value.line, info.value.column) == (
        "parentheses nested too deeply", 4, 1)
    with pytest.raises(ParseError, match="^line 1, column 5: parentheses nested too deeply$"):
        _at_depth(frames, lambda: parse_input_text(
            "Q1: " + "(" * 329 + "u^2" + ")" * 329 + "\nQ2: v^2 + w^2\n"))


def _form_outcome(parse, text: str):
    try:
        result = parse(text, line=3)
    except ParseError as error:
        return error.message, error.line, error.column
    return result if isinstance(result, dict) else result.coeffs


def _grouped_form(rng: random.Random) -> str:
    """A random form's terms with random signs, '*', spacing and parentheses."""
    terms = pretty_print(random_form(rng)).replace("- ", "+ -").split(" + ")
    text = ""
    for term in terms:
        if rng.random() < 0.3 and term[0] != "-":
            term = f"{rng.randint(1, 3)}*({term} {rng.choice('+-')} uv)"
        if rng.random() < 0.2:
            depth = rng.randint(1, 30)
            term = "(" * depth + term + ")" * depth
        text += rng.choice((" + ", "+", " - ", "-", " ")) + term if text else term
    return text


def test_parse_errors_match_the_recursive_parser():
    # Random forms with grouping, and mutations of them: deleted, inserted
    # and replaced characters give every kind of ParseError the parser has.
    rng = random.Random(20261020)
    alphabet = "uvwxyz0123456789+-*^() ?a²"
    kinds = set()
    for _ in range(400):
        text = _grouped_form(rng)
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(text) + 1)
            edit = rng.randrange(4)
            if edit == 3:  # cut short
                text = text[:k]
            else:  # deleted, inserted or replaced
                text = text[:k] + rng.choice(alphabet) * (edit > 0) + text[k + (edit != 1):]
        if rng.random() < 0.05:
            text = "3" * (sys.get_int_max_str_digits() + 1) + text
        expected = _form_outcome(reference_parse_form, text)
        assert _form_outcome(parse_form, text) == expected, text
        kinds.add(re.sub(r"'[^']*'|\d+", "", expected[0]) if isinstance(expected, tuple)
                  else "parsed")
    assert len(kinds) >= 12, sorted(kinds)


def test_identically_zero_is_rejected():
    with pytest.raises(ParseError, match="identically zero"):
        parse_form("uv - uv")
    with pytest.raises(ParseError, match="identically zero"):
        parse_form("0uv")


def test_empty_polynomial_is_rejected():
    with pytest.raises(ParseError, match="empty polynomial"):
        parse_form("")
    with pytest.raises(ParseError, match="empty polynomial"):
        parse_form("   ")


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------

def test_full_input_file_with_witnesses_in_any_order():
    text = "\n".join(
        [
            "# leading comment",
            "",
            f"WITNESS: singular p={BIG_PRIME} coords={_csv(SINGULAR_POINT_VERBATIM)}",
            f"Q2: {Q2_TEXT}",
            "# interior comment",
            f"Q1: {Q1_TEXT}",
            f"WITNESS: fano p=2 chart={_csv(CHART_UI)} coords={_csv(F2_WITNESS)}",
            f"WITNESS: fano p={BIG_PRIME} chart={_csv(CHART_UI)} coords={_csv(BIG_WITNESS)}",
        ]
    )
    parsed = parse_input_text(text)
    assert parsed.pencil.q1.coeffs == Q1_COEFFS
    assert parsed.pencil.q2.coeffs == Q2_COEFFS
    assert parsed.fano_witnesses == (
        FanoWitness(prime=2, chart=CHART_UI, coordinates=F2_WITNESS),
        FanoWitness(prime=BIG_PRIME, chart=CHART_UI, coordinates=BIG_WITNESS),
    )
    assert parsed.singular_witnesses == (
        SingularWitness(prime=BIG_PRIME, coordinates=SINGULAR_POINT_VERBATIM),
    )


def test_parse_input_reads_the_example_file(example_path):
    parsed = parse_input(str(example_path))
    assert parsed.pencil.q1.coeffs == Q1_COEFFS
    assert {w.prime for w in parsed.fano_witnesses} == {2, BIG_PRIME}
    assert all(w.chart == CHART_UI for w in parsed.fano_witnesses)
    assert len(parsed.singular_witnesses) == 1


def test_duplicate_and_missing_form_lines():
    with pytest.raises(ParseError) as info:
        parse_input_text("Q1: u^2\nQ1: v^2\nQ2: w^2\n")
    assert "duplicate Q1" in info.value.message
    assert info.value.line == 2
    with pytest.raises(ParseError, match="missing Q2"):
        parse_input_text("Q1: uv\n")


def test_unknown_label_and_missing_colon():
    with pytest.raises(ParseError, match="unknown line label 'Q3'"):
        parse_input_text("Q3: uv\nQ1: uv\nQ2: wx\n")
    with pytest.raises(ParseError, match="expected 'Q1:', 'Q2:', or 'WITNESS:'"):
        parse_input_text("hello world\n")


def test_form_errors_carry_the_file_line_number():
    with pytest.raises(ParseError) as info:
        parse_input_text(f"Q1: {Q1_TEXT}\nQ2: a^2\n")
    assert info.value.line == 2
    assert "unknown variable 'a'" in info.value.message


@pytest.mark.parametrize(
    "witness_line, fragment",
    [
        ("WITNESS: fano p=9 chart=2,3 coords=1,1,0,0,1,1,0,0", "9 is not prime"),
        ("WITNESS: fano p=x chart=2,3 coords=1,1,0,0,1,1,0,0", "bad prime 'x'"),
        (
            "WITNESS: fano p=2 chart=3,2 coords=1,1,0,0,1,1,0,0",
            "chart columns must satisfy 1 <= i < j <= 6",
        ),
        (
            "WITNESS: fano p=2 chart=0,3 coords=1,1,0,0,1,1,0,0",
            "chart columns must satisfy",
        ),
        (
            "WITNESS: fano p=2 chart=5,7 coords=1,1,0,0,1,1,0,0",
            "chart columns must satisfy",
        ),
        (
            "WITNESS: fano p=2 chart=2 coords=1,1,0,0,1,1,0,0",
            "chart needs 2 comma-separated integers, got 1",
        ),
        (
            "WITNESS: fano p=2 chart=2,3 coords=1,1,0,0,1,1,0",
            "coords needs 8 comma-separated integers, got 7",
        ),
        (
            "WITNESS: singular p=5 coords=1,2,3,4,5",
            "coords needs 6 comma-separated integers, got 5",
        ),
        (
            "WITNESS: fano p=2 chart=2,3 coords=1,2,three,4,5,6,7,8",
            "bad integer 'three' in coords",
        ),
        (
            "WITNESS: hessian p=3 coords=1,2,3,4,5,6",
            "unknown witness kind 'hessian'",
        ),
        (
            "WITNESS: fano p=2 chart=2,3 coords=1,1,0,0,1,1,0,0 extra=1",
            "unknown field 'extra='",
        ),
        ("WITNESS: fano p=2 coords=1,1,0,0,1,1,0,0", "missing field 'chart='"),
        (
            "WITNESS: fano p=2 p=3 chart=2,3 coords=1,1,0,0,1,1,0,0",
            "duplicate field 'p'",
        ),
        (
            "WITNESS: fano p=2 chart=2,3 coords",
            "expected key=value, got 'coords'",
        ),
        ("WITNESS:", "empty WITNESS line"),
        (
            "WITNESS: fano p=3 chart=2,3 coords=1,1,0,0,1,1,0,--1",
            "bad integer '--1' in coords",
        ),
        ("WITNESS: fano p=³ chart=2,3 coords=1,1,0,0,1,1,0,0", "bad prime '³'"),
        (
            "WITNESS: fano p=3 chart=²,3 coords=1,1,0,0,1,1,0,0",
            "bad integer '²' in chart",
        ),
    ],
)
def test_witness_line_errors(witness_line, fragment):
    with pytest.raises(ParseError) as info:
        parse_input_text(_file_with(witness_line))
    assert fragment in info.value.message
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text, line, column",
    [
        (f"Q1: u² + v^2\nQ2: {Q2_TEXT}\n", 1, 6),
        (f"Q1: x^2 + u + v^2\nQ2: {Q2_TEXT}\n", 1, 11),
        (f"Q1: x^2 + 3u*v*w\nQ2: {Q2_TEXT}\n", 1, 16),
        (f"Q1: {Q1_TEXT}\n  Q2:  u^2 + v?\n", 2, 15),
        (_file_with("WITNESS: fano p=3 chart=2,3 coords=1,1,0,0,1,1,0,--1"), 3, 50),
        (_file_with("WITNESS: fano p=³ chart=2,3 coords=1,1,0,0,1,1,0,0"), 3, 17),
        (_file_with("  WITNESS:  fano  p=3  chart=2,x coords=1,1,0,0,1,1,0,0"), 3, 32),
        # Integer literals one digit over Python's int-conversion limit.
        (f"Q1: u^2 + {TOO_LONG}v^2\nQ2: {Q2_TEXT}\n", 1, 11),
        (_file_with(f"WITNESS: fano p=3 chart=2,3 coords=1,1,{TOO_LONG},0,1,1,0,0"), 3, 40),
    ],
)
def test_errors_point_at_the_offending_column_of_the_file(text, line, column):
    with pytest.raises(ParseError) as info:
        parse_input_text(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_negative_witness_coordinates_are_preserved():
    parsed = parse_input_text(
        _file_with("WITNESS: fano p=3 chart=1,2 coords=-1,2,0,0,0,0,0,1")
    )
    assert parsed.fano_witnesses[0].coordinates == (-1, 2, 0, 0, 0, 0, 0, 1)


def test_non_integral_pencil_is_reported_at_construction():
    with pytest.raises(NonIntegralCharacteristicFormError):
        parse_input_text("Q1: uv\nQ2: u^2 + v^2 + w^2 + x^2 + y^2 + z^2\n")
