"""Text in and text out: the pencil input file and canonical JSON output.

The accepted polynomial syntax is integer-coefficient arithmetic over the
six variables ``u, v, w, x, y, z``:

* ``^`` denotes powers (``x^2``),
* ``*`` is optional between a coefficient and a monomial (``4*vw`` and
  ``4vw`` are the same),
* juxtaposed variables multiply (``uv`` is ``u*v``),
* every monomial must have total degree exactly 2.

An input *file* consists of two lines ``Q1: <poly>`` and ``Q2: <poly>``
(in either order), plus optional witness lines::

    WITNESS: fano p=<prime> chart=<i>,<j> coords=<a1,...,a8>
    WITNESS: singular p=<prime> coords=<c1,...,c6>

Chart columns in witness lines (and everywhere in the user interface) are
1-based; internally charts are stored as 0-based pivot pairs.

Output documents serialize through :func:`canonical_json`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

from .exactmath import is_probable_prime
from .quadric import NUM_VARIABLES, VARIABLES, QuadraticForm
from .pencil import PencilOfQuadrics

__all__ = [
    "ParseError",
    "FanoWitness",
    "SingularWitness",
    "ParsedInput",
    "parse_form",
    "pretty_print",
    "parse_input",
    "parse_input_text",
    "read_input_text",
    "canonical_json",
]

_VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLES)}


def _is_integer_text(text: str, signed: bool = False) -> bool:
    """True for ASCII decimal digits, after one leading '-' when signed.

    str.isdigit alone also accepts digits such as '²', which int() rejects.
    """
    if signed:
        text = text.removeprefix("-")
    return text.isascii() and text.isdigit()


class ParseError(ValueError):
    """Syntax or semantic error in textual input, with line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _to_int(text: str, line: int, column: int) -> int:
    """int(text) for integer text; past Python's conversion limit, a ParseError."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer literal longer than {limit} digits", line, column) from None


class FanoWitness(NamedTuple):
    """A supplied candidate point on a Fano chart over F_p.

    ``chart`` holds 1-based column indices exactly as written in the
    input file; ``coordinates`` is the 8-tuple of chart parameters.
    """

    prime: int
    chart: tuple[int, int]
    coordinates: tuple[int, ...]


class SingularWitness(NamedTuple):
    """A supplied candidate singular point of a mod-p reduction."""

    prime: int
    coordinates: tuple[int, ...]


class ParsedInput(NamedTuple):
    """The result of parsing an input file: the pencil plus witnesses."""

    pencil: PencilOfQuadrics
    fano_witnesses: tuple[FanoWitness, ...]
    singular_witnesses: tuple[SingularWitness, ...]


# ---------------------------------------------------------------------------
# Polynomial tokenizer / parser
# ---------------------------------------------------------------------------

# A token is a plain tuple (kind, text, column); kind is "int", "var" or the
# operator itself: "+", "-", "*", "^", "(" or ")".
_Token = tuple[str, str, int]

_DIGITS = frozenset("0123456789")


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        i += 1
        # Variables, operators, digits and spaces are disjoint classes, so
        # the order of the tests only changes their speed.
        if ch in _VARIABLE_INDEX:
            tokens.append(("var", ch, i))
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i - 1:j], i))
            i = j
        elif ch.isspace():
            continue
        elif ch.isalpha():
            raise ParseError(f"unknown variable '{ch}'", line, i)
        else:
            raise ParseError(f"unexpected character '{ch}'", line, i)
    return tokens


# The deepest parenthesis nesting a form may have, wherever the parser is
# called from: every form the command line accepted while the parser
# recursed (three Python frames a level) still parses.
MAX_NESTING = 328


def _parse_tokens(
    tokens: list[_Token], line: int, line_length: int
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Parse a sum of degree-2 monomials; the polynomial and each monomial's column.

    Grammar::

        form    := [sign] term (("+" | "-") term)*
        term    := factor (("*")? factor)*
        factor  := INT | VAR ["^" INT] | "(" form ")"

    Parenthesised subexpressions are accepted for grouping of sums; the
    parser multiplies everything out exactly and then checks that each
    surviving monomial has total degree 2.  A polynomial is a dict
    {monomial: coefficient}, where a monomial is the sorted tuple of its
    variables' indices (() for a constant), so its length is its degree,
    which never exceeds 2.  The column of a monomial is that of the first
    term of the outermost sum giving it.

    The descent keeps an explicit stack: an opening parenthesis saves the
    enclosing sum and term, and its closing one restores them with the inner
    sum as the factor.  A parenthesis past MAX_NESTING levels is rejected at
    the outermost parenthesis still open.
    """
    tokens = tokens + [None]  # None marks the end
    end_column = line_length + 1
    pos = 0
    # Per open parenthesis: the enclosing sum's total and columns, the sign,
    # first token, product and multiplication column of the term it is in,
    # and its own column.
    enclosing = []
    total: dict[tuple[int, ...], int] = {}
    columns: dict[tuple[int, ...], int] = {}
    new_term = True
    while True:
        if new_term:
            tok, sign = tokens[pos], 1
            if tok is not None and tok[0] in "+-":
                pos += 1
                sign = -1 if tok[0] == "-" else 1
            start, product, column, new_term = tokens[pos], None, None, False
        # One factor.
        tok = tokens[pos]
        if tok is None:
            raise ParseError("unexpected end of expression", line, end_column)
        pos += 1
        kind, text, at = tok
        if kind == "(":
            if len(enclosing) == MAX_NESTING:
                raise ParseError("parentheses nested too deeply", line, enclosing[0][-1])
            enclosing.append((total, columns, sign, start, product, column, at))
            total, columns, new_term = {}, {}, True
            continue
        if kind == "int":
            factor = {(): _to_int(text, line, at)}
        elif kind == "var":
            exponent = 1
            nxt = tokens[pos]
            if nxt is not None and nxt[0] == "^":
                power = tokens[pos + 1]
                if power is None:
                    raise ParseError("unexpected end of expression", line, end_column)
                pos += 2
                power_kind, power_text, power_column = power
                if power_kind != "int":
                    raise ParseError("expected an integer exponent after '^'", line, power_column)
                exponent = _to_int(power_text, line, power_column)
                if exponent > 2:
                    raise ParseError(
                        f"non-quadratic monomial: exponent {exponent} exceeds 2", line, power_column
                    )
            factor = {(_VARIABLE_INDEX[text],) * exponent: 1}
        else:
            raise ParseError(f"unexpected '{text}'", line, at)
        # The factor is complete: multiply it in, then end the term, the sum
        # and each parenthesis that closes here, until a factor or term follows.
        while True:
            product = factor if product is None else _poly_mul(product, factor, line, column)
            tok = tokens[pos]
            if tok is not None and tok[0] in ("*", "int", "var", "("):
                # explicit or implicit multiplication: 4*vw, 4vw, 2 x z, 3(u+v)...
                if tok[0] == "*":
                    pos += 1
                    tok = tokens[pos]
                column = tok[2] if tok is not None else end_column
                break
            for monomial, coeff in product.items():
                columns.setdefault(monomial, start[2])
                new = total.get(monomial, 0) + sign * coeff
                if new:
                    total[monomial] = new
                else:
                    total.pop(monomial, None)
            if tok is not None and tok[0] in "+-":
                new_term = True
                break
            if not enclosing:
                if tok is not None:
                    raise ParseError(f"unexpected '{tok[1]}'", line, tok[2])
                return total, columns
            if tok is None:
                raise ParseError("unexpected end of expression", line, end_column)
            if tok[0] != ")":
                raise ParseError("expected ')'", line, tok[2])
            pos += 1
            factor = total
            total, columns, sign, start, product, column, _ = enclosing.pop()


def _poly_mul(
    a: dict[tuple[int, ...], int],
    b: dict[tuple[int, ...], int],
    line: int,
    column: int,
) -> dict[tuple[int, ...], int]:
    """a * b, or a ParseError at the column of factor b past degree 2."""
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            monomial = ma + mb
            if len(monomial) == 2 and monomial[0] > monomial[1]:
                monomial = (monomial[1], monomial[0])
            elif len(monomial) > 2:
                raise ParseError(
                    "non-quadratic monomial: total degree exceeds 2", line, column
                )
            new = out.get(monomial, 0) + ca * cb
            if new:
                out[monomial] = new
            else:
                out.pop(monomial, None)
    return out


def parse_form(text: str, line: int = 1) -> QuadraticForm:
    """Parse one quadratic form from polynomial text.

    Raises :class:`ParseError` on syntax errors, unknown variables, and
    monomials whose total degree is not exactly 2 (including a nonzero
    constant or linear part).
    """
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty polynomial", line, 1)
    poly, columns = _parse_tokens(tokens, line, len(text))
    coeffs: dict[tuple[int, int], int] = {}
    for monomial, coeff in poly.items():
        if len(monomial) != 2:
            text = VARIABLES[monomial[0]] if monomial else str(coeff)
            raise ParseError(
                f"non-quadratic monomial: '{text}' has total degree {len(monomial)}",
                line,
                columns[monomial],
            )
        coeffs[monomial] = coeff
    if not coeffs:
        raise ParseError("the polynomial is identically zero", line, 1)
    return QuadraticForm(coeffs)


def _decimal(n: int) -> str:
    """str(n), also for an int past Python's str-conversion digit limit.

    Such an int is written in digits of base 10^k, each short enough for
    str() and zero-padded to k places, most significant first.
    """
    try:
        return str(n)
    except ValueError:
        pass
    k = sys.get_int_max_str_digits() // 2
    base, sign, n = 10**k, "-" if n < 0 else "", abs(n)
    digits = []
    while n:
        n, digit = divmod(n, base)
        digits.append(digit)
    return sign + str(digits.pop()) + "".join(str(d).zfill(k) for d in reversed(digits))


def _join_signed_terms(terms) -> str:
    """Join (coefficient, monomial) pairs as '3t^2 - t + 1'; zero terms dropped.

    A coefficient of magnitude 1 is written only on the constant term, whose
    monomial is "".  Shared by pretty_print and the CLI's rendering of f(t).
    """
    pieces: list[str] = []
    for coeff, monomial in terms:
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        body = monomial if magnitude == 1 and monomial else _decimal(magnitude) + monomial
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def pretty_print(form: QuadraticForm) -> str:
    """Render a form in canonical text: terms sorted by (i, j), ``^`` powers.

    ``parse_form(pretty_print(q))`` always equals ``q``.
    """
    return _join_signed_terms(
        (coeff, f"{VARIABLES[i]}^2" if i == j else f"{VARIABLES[i]}{VARIABLES[j]}")
        for (i, j), coeff in form.monomials()
    )


# ---------------------------------------------------------------------------
# Input-file parser
# ---------------------------------------------------------------------------

def _parse_int_list(
    text: str, expected: int, line: int, column: int, what: str
) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != expected:
        raise ParseError(
            f"{what} needs {expected} comma-separated integers, got {len(parts)}",
            line,
            column,
        )
    values = []
    for part in parts:
        if not _is_integer_text(part, signed=True):
            raise ParseError(f"bad integer '{part}' in {what}", line, column)
        values.append(_to_int(part, line, column))
        column += len(part) + 1
    return tuple(values)


def _parse_witness_fields(
    body: str, line: int, offset: int
) -> dict[str, tuple[str, int]]:
    """Split ``key=value`` fields, keeping each key's column for errors."""
    fields: dict[str, tuple[str, int]] = {}
    for match in re.finditer(r"\S+", body):
        chunk = match.group()
        column = offset + match.start() + 1
        if "=" not in chunk:
            raise ParseError(f"expected key=value, got '{chunk}'", line, column)
        key, value = chunk.split("=", 1)
        if key in fields:
            raise ParseError(f"duplicate field '{key}'", line, column)
        fields[key] = (value, column)
    return fields


def _require_prime(value: str, line: int, column: int) -> int:
    if not _is_integer_text(value):
        raise ParseError(f"bad prime '{value}'", line, column)
    p = _to_int(value, line, column)
    if p < 2 or not is_probable_prime(p):
        raise ParseError(f"{p} is not prime", line, column)
    return p


def _split_label(line_text: str) -> tuple[str, str, int]:
    """Label, payload and the payload's 0-based offset in 'LABEL: payload'."""
    head, _, rest = line_text.partition(":")
    return head.strip(), rest.strip(), len(head) + 1 + len(rest) - len(rest.lstrip())


def _parse_witness_line(line_text: str, line: int) -> FanoWitness | SingularWitness:
    _, body, offset = _split_label(line_text)
    if not body:
        raise ParseError("empty WITNESS line", line, offset + 1)
    kind = body.split()[0]
    fields = _parse_witness_fields(body[len(kind):], line, offset + len(kind))

    def take(name: str) -> tuple[str, int]:
        """The field's value and the value's column."""
        if name not in fields:
            raise ParseError(f"missing field '{name}='", line, offset + 1)
        value, column = fields.pop(name)
        return value, column + len(name) + 1

    if kind not in ("fano", "singular"):
        raise ParseError(
            f"unknown witness kind '{kind}' (expected 'fano' or 'singular')",
            line,
            offset + 1,
        )
    names = ("p", "chart", "coords") if kind == "fano" else ("p", "coords")
    (p_text, p_col), *chart_field, (coords_text, coords_col) = map(take, names)
    if fields:
        extra = sorted(fields)[0]
        raise ParseError(f"unknown field '{extra}='", line, fields[extra][1])
    prime = _require_prime(p_text, line, p_col)
    if kind == "singular":
        return SingularWitness(prime, _parse_int_list(coords_text, 6, line, coords_col, "coords"))
    chart_text, chart_col = chart_field[0]
    i, j = chart = _parse_int_list(chart_text, 2, line, chart_col, "chart")
    if not 1 <= i < j <= NUM_VARIABLES:
        raise ParseError(
            f"chart columns must satisfy 1 <= i < j <= {NUM_VARIABLES}", line, chart_col
        )
    return FanoWitness(prime, chart, _parse_int_list(coords_text, 8, line, coords_col, "coords"))


def _parse_sections(
    text: str,
) -> tuple[dict[str, QuadraticForm], list[FanoWitness], list[SingularWitness]]:
    """Parse the input lines without constructing the pencil."""
    forms: dict[str, QuadraticForm] = {}
    fano_witnesses: list[FanoWitness] = []
    singular_witnesses: list[SingularWitness] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError(
                "expected 'Q1:', 'Q2:', or 'WITNESS:' at the start of the line",
                line_number,
                1,
            )
        label, payload, offset = _split_label(raw)
        if label in ("Q1", "Q2"):
            if label in forms:
                raise ParseError(f"duplicate {label}: line", line_number, 1)
            try:
                forms[label] = parse_form(payload, line_number)
            except ParseError as error:  # report the column in the file line
                raise ParseError(
                    error.message, line_number, error.column + offset
                ) from None
        elif label == "WITNESS":
            witness = _parse_witness_line(raw, line_number)
            if isinstance(witness, FanoWitness):
                fano_witnesses.append(witness)
            else:
                singular_witnesses.append(witness)
        else:
            raise ParseError(
                f"unknown line label '{label}' (expected Q1, Q2, or WITNESS)",
                line_number,
                1,
            )
    for required in ("Q1", "Q2"):
        if required not in forms:
            raise ParseError(f"missing {required}: line", 1, 1)
    return forms, fano_witnesses, singular_witnesses


def parse_input_text(text: str) -> ParsedInput:
    """Parse the two-form input format (plus witnesses) from a string."""
    forms, fano_witnesses, singular_witnesses = _parse_sections(text)
    pencil = PencilOfQuadrics(forms["Q1"], forms["Q2"])
    return ParsedInput(
        pencil=pencil,
        fano_witnesses=tuple(fano_witnesses),
        singular_witnesses=tuple(singular_witnesses),
    )


def read_input_text(path: str) -> str:
    """The UTF-8 text of an input file; an undecodable byte is a ParseError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        # The sentinel keeps a last line to count from when the bad byte
        # starts one; lines are counted as _parse_sections counts them.
        lines = (data[: error.start].decode("utf-8") + "\0").splitlines()
        raise ParseError(
            f"invalid UTF-8 byte 0x{data[error.start]:02x}", len(lines), len(lines[-1])
        ) from None


def parse_input(path: str) -> ParsedInput:
    """Parse an input file by path. See the module docstring for the format."""
    return parse_input_text(read_input_text(path))


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def canonical_json(document) -> str:
    """Serialize a document to canonical JSON in one pass.

    The text is what ``json.dumps(..., sort_keys=True, separators=(",",
    ":"), ensure_ascii=True)`` writes once every int is a decimal string
    and every Fraction a "numerator/denominator" string.  Keys must be
    strings.  Lists and tuples become arrays, but only those exact types:
    records are tuples too, and must not pass as lists.  Any other value
    raises TypeError.  Each dict's items are written in insertion order and
    joined in key order, so the first bad value met is the one reported.
    """
    return _json_text(document)


# str() writes every int of fewer than 641 digits, whatever the conversion
# limit is set to (640 is the least it can be); larger ones go by _decimal.
_PLAIN_INT = 10**640


def _json_text(value) -> str:
    # Strings and short ints, the commonest items, are written in place in
    # the list and dict branches rather than by a call.
    kind = type(value)
    if kind is list or kind is tuple:
        return "[" + ",".join([
            _json_string(item) if type(item) is str
            else f'"{item}"' if type(item) is int and -_PLAIN_INT < item < _PLAIN_INT
            else _json_text(item)
            for item in value
        ]) + "]"
    if isinstance(value, dict):
        items = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string certificate key: {key!r}")
            kind = type(item)
            items[key] = (_json_string(item) if kind is str
                          else f'"{item}"' if kind is int and -_PLAIN_INT < item < _PLAIN_INT
                          else _json_text(item))
        return "{" + ",".join([f"{_json_string(key)}:{items[key]}" for key in sorted(items)]) + "}"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return f'"{_decimal(value)}"'
    if isinstance(value, Fraction):
        return f'"{_decimal(value.numerator)}/{_decimal(value.denominator)}"'
    raise TypeError(f"value {value!r} has no canonical JSON encoding")
