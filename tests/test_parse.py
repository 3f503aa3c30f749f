"""The ideal-file grammar: happy paths and diagnostics."""

import pytest

from monoideal import FieldSpec, ParseError, parse_polynomial, parse_source

from conftest import poly


def test_minimal_file():
    ring, ideals = parse_source("ring QQ[x,y]; I = ideal(x+y);")
    assert ring.variables == ("x", "y")
    assert ring.field == FieldSpec(0)
    assert len(ideals["I"].gens) == 1


def test_char_two_product_expands():
    ring, ideals = parse_source("ring ZZ/2[x,y,z]; I = ideal(x^3, x*y*(x+y+z));")
    assert ring.field.characteristic == 2
    g = ideals["I"].gens[1]
    assert g == poly(ring, "x^2*y + x*y^2 + x*y*z")


def test_composite_characteristic():
    with pytest.raises(ParseError) as exc:
        parse_source("ring ZZ/4[x];")
    assert "prime" in str(exc.value)


def test_unknown_variable_has_position():
    with pytest.raises(ParseError) as exc:
        parse_source("ring QQ[x];\nI = ideal(x + q);")
    err = exc.value
    assert "unknown variable 'q'" in str(err)
    assert err.line == 2


def test_non_decimal_digit_has_position():
    # '²' is a digit to str.isdigit but not to int(); '٣' is decimal and reads as 3
    with pytest.raises(ParseError) as exc:
        parse_source("ring QQ[x,y];\nI = ideal(x^², y);")
    err = exc.value
    assert "unexpected character '²'" in str(err)
    assert (err.line, err.col) == (2, 13)
    ring, ideals = parse_source("ring QQ[x]; I = ideal(x^٣);")
    assert ideals["I"].gens == (poly(ring, "x^3"),)


def test_duplicate_ideal_name():
    with pytest.raises(ParseError) as exc:
        parse_source("ring QQ[x]; I = ideal(x); I = ideal(x^2);")
    assert "duplicate ideal" in str(exc.value)


def test_duplicate_variable():
    with pytest.raises(ParseError):
        parse_source("ring QQ[x,x];")


def test_missing_semicolon():
    with pytest.raises(ParseError) as exc:
        parse_source("ring QQ[x] I = ideal(x);")
    assert "';'" in str(exc.value)


def test_ideal_before_ring():
    with pytest.raises(ParseError):
        parse_source("I = ideal(x); ring QQ[x];")


def test_comments_and_whitespace():
    text = """
    # leading comment
    ring QQ[x,y];   # trailing comment
    I = ideal(
        x^2,   # one generator per line reads fine
        y
    );
    """
    _, ideals = parse_source(text)
    assert len(ideals["I"].gens) == 2


def test_rational_literal_char_zero():
    ring, ideals = parse_source("ring QQ[x]; I = ideal(1/2*x + x);")
    (g,) = ideals["I"].gens
    assert g == poly(ring, "3/2*x")


def test_rational_literal_rejected_mod_p():
    with pytest.raises(ParseError) as exc:
        parse_source("ring ZZ/3[x]; I = ideal(1/6*x);")
    assert "vanishes" in str(exc.value)


def test_rational_literal_invertible_mod_p():
    ring, ideals = parse_source("ring ZZ/5[x]; I = ideal(1/2*x);")
    (g,) = ideals["I"].gens
    assert g == poly(ring, "3*x")


def test_field_override():
    text = "ring QQ[x,y]; I = ideal(x + 2*y);"
    ring, ideals = parse_source(text, field_override=FieldSpec(2))
    assert ring.field.characteristic == 2
    (g,) = ideals["I"].gens
    assert g == poly(ring, "x")


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_source("ring QQ[x]; I = ideal(x^-1);")


def test_division_by_polynomial_rejected():
    with pytest.raises(ParseError):
        parse_source("ring QQ[x]; I = ideal(x/2);")


def test_unary_minus():
    ring, ideals = parse_source("ring QQ[x,y]; I = ideal(-x + y, x - -y);")
    a, b = ideals["I"].gens
    assert a == poly(ring, "y - x")
    assert b == poly(ring, "x + y")


def test_nesting_up_to_the_limit(qq_xy):
    from monoideal.parse import MAX_NESTING

    k = MAX_NESTING
    assert parse_polynomial("(" * k + "x" + ")" * k, qq_xy) == poly(qq_xy, "x")
    assert parse_polynomial("-" * (k + 1) + "y", qq_xy) == poly(qq_xy, "-y")
    with pytest.raises(ParseError, match="nested more than"):
        parse_polynomial("(" * (k + 1) + "x" + ")" * (k + 1), qq_xy)
    with pytest.raises(ParseError, match="nested more than"):
        parse_polynomial("-" * (k + 2) + "y", qq_xy)


def test_zero_generators_dropped():
    _, ideals = parse_source("ring QQ[x]; I = ideal(x - x);")
    assert ideals["I"].is_zero()


def test_parse_polynomial_trailing_garbage(qq_xy):
    with pytest.raises(ParseError):
        parse_polynomial("x + y)", qq_xy)


@pytest.mark.parametrize(
    "text, message",
    [
        ("ring QQ[", "line 1, column 9: expected a variable name, found end of input"),
        ("ring QQ[x]; I =", "line 1, column 16: expected 'ideal', found end of input"),
        (
            "ring QQ[x]; I = ideal(x",
            "line 1, column 24: expected ')' after the generator list, found end of input",
        ),
        (
            "ring QQ[x]; I = ideal(x +",
            "line 1, column 26: expected a polynomial, found end of input",
        ),
    ],
    ids=["variable", "ideal-keyword", "closing-parenthesis", "polynomial"],
)
def test_end_of_input_is_named(text, message):
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, line, col",
    [
        # the end of input lies past the comment's text
        ("ring QQ[x] # no semicolon", 1, 26),
        ("# only a comment", 1, 17),
        ("# only a comment\n", 2, 1),
        # a tab is one column
        ("ring QQ[x];\tI = ideal(\ty +);", 1, 24),
        # '\r' before '\n' is a column of the line it ends
        ("ring QQ[x];\r\nI = ideal(x +);", 2, 14),
    ],
    ids=["after-comment", "comment-only", "comment-newline", "tab", "crlf"],
)
def test_error_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert (exc.value.line, exc.value.col) == (line, col)
