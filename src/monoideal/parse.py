"""Reader for the ideal file format.

A file is a sequence of ';'-terminated statements with '#' line comments:

    ring QQ[x,y,z];            # or  ring ZZ/7[x,y,z];
    I = ideal(x^2 - y*z, x*y + 3);
    J = ideal(x);

Polynomial expressions admit + - * ^ and parentheses over the declared
variables and integer or rational literals (a/b).  Rational literals are
rejected when the denominator vanishes in the ground field.  Parentheses and
unary minus signs may nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

from .errors import ParseError
from .fields import FieldSpec
from .groebner import Ideal
from .poly import RingContext

_SYMBOLS = set("+-*^()[],;=/")

# The expression grammar is parsed by recursive descent; this bound keeps
# the recursion well inside Python's default stack limit.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text):
    toks = []
    # a token's column is its offset past the start of its line, plus 1
    line, line_start = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        start = i
        i += 1
        if ch == "\n":
            line += 1
            line_start = i
        elif ch in " \t\r":
            pass
        elif ch == "#":
            i = text.find("\n", i)
            if i < 0:
                i = n
        elif ch.isdecimal():
            while i < n and text[i].isdecimal():
                i += 1
            toks.append(_Token("INT", int(text[start:i]), line, start - line_start + 1))
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            toks.append(_Token("IDENT", text[start:i], line, start - line_start + 1))
        elif ch in _SYMBOLS:
            toks.append(_Token(ch, ch, line, start - line_start + 1))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start - line_start + 1)
    toks.append(_Token("EOF", None, line, n - line_start + 1))
    return toks


def _shown(tok):
    """How an error message names the token it found."""
    return "end of input" if tok.kind == "EOF" else repr(tok.value)


class _Parser:
    def __init__(self, toks, field_override=None):
        self.toks = toks
        self.pos = 0
        self.ring = None
        self.ideals = {}
        self.field_override = field_override
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {_shown(t)}", t.line, t.col
            )
        return self.advance()

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def nested(self, parse, opener):
        """Run ``parse`` one level deeper, inside the ``opener`` token."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} deep", opener)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    # -- statements -------------------------------------------------------------

    def parse(self):
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "IDENT" and t.value == "ring":
                self.ring_decl()
            elif t.kind == "IDENT":
                self.ideal_decl()
            else:
                self.fail(f"expected a statement, found {_shown(t)}")
            self.expect(";", "';' at the end of the statement")
        if self.ring is None:
            self.fail("input contains no ring declaration")
        return self.ring, self.ideals

    def ring_decl(self):
        t = self.advance()  # 'ring'
        if self.ring is not None:
            self.fail("duplicate ring declaration", t)
        head = self.expect("IDENT", "a coefficient field (QQ or ZZ/p)")
        if head.value == "QQ":
            field = FieldSpec(0)
        elif head.value == "ZZ":
            self.expect("/", "'/' after ZZ")
            ptok = self.expect("INT", "a prime characteristic")
            try:
                field = FieldSpec(ptok.value)
            except ValueError as exc:
                raise ParseError(str(exc), ptok.line, ptok.col) from None
        else:
            self.fail(f"unknown coefficient field {head.value!r}", head)
        if self.field_override is not None:
            field = self.field_override
        self.expect("[", "'[' before the variable list")
        names = [self.expect("IDENT", "a variable name")]
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("IDENT", "a variable name"))
        self.expect("]", "']' after the variable list")
        seen = set()
        for tok in names:
            if tok.value in seen:
                raise ParseError(
                    f"duplicate variable {tok.value!r}", tok.line, tok.col
                )
            seen.add(tok.value)
        self.ring = RingContext(field, tuple(tok.value for tok in names))

    def ideal_decl(self):
        name = self.advance()
        if self.ring is None:
            self.fail("ideals must follow the ring declaration", name)
        if name.value in self.ideals:
            self.fail(f"duplicate ideal name {name.value!r}", name)
        self.expect("=", "'=' after the ideal name")
        kw = self.expect("IDENT", "'ideal'")
        if kw.value != "ideal":
            self.fail("expected 'ideal'", kw)
        self.expect("(", "'(' before the generator list")
        gens = [self.expression()]
        while self.peek().kind == ",":
            self.advance()
            gens.append(self.expression())
        self.expect(")", "')' after the generator list")
        self.ideals[name.value] = Ideal(self.ring, gens)

    # -- expressions -------------------------------------------------------------

    def expression(self):
        t = self.peek()
        if t.kind == "-":
            self.advance()
            value = -self.term()
        else:
            value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek().kind == "-":
            return -self.nested(self.factor, self.advance())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            e = self.expect("INT", "a nonnegative integer exponent")
            return base ** e.value
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "(":
            value = self.nested(self.expression, self.advance())
            self.expect(")", "')'")
            return value
        if t.kind == "INT":
            self.advance()
            num = t.value
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("INT", "an integer denominator")
                try:
                    return self.ring.constant(
                        self.ring.field.of(num, den.value)
                    )
                except ZeroDivisionError as exc:
                    raise ParseError(str(exc), den.line, den.col) from None
            return self.ring.constant(num)
        if t.kind == "IDENT":
            self.advance()
            try:
                return self.ring.variable(t.value)
            except ValueError:
                raise ParseError(
                    f"unknown variable {t.value!r}", t.line, t.col
                ) from None
        self.fail(f"expected a polynomial, found {_shown(t)}")


def parse_source(text, field_override=None):
    """Parse a full ideal file into (ring, {name: Ideal}).

    ``field_override`` replaces the declared coefficient field, re-reducing
    all literals; the declaration must still be well-formed.
    """
    return _Parser(_tokenize(text), field_override).parse()


def parse_polynomial(text, ring):
    """Parse a single polynomial expression in the given ring."""
    p = _Parser(_tokenize(text))
    p.ring = ring
    value = p.expression()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {_shown(t)}", t.line, t.col)
    return value
