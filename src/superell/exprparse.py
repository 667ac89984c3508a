"""Recursive-descent parser for polynomial and curve expressions.

Grammar (whitespace insignificant between tokens)::

    poly  := term (('+' | '-') term)*
    term  := INT ['*'] [ 'x' ['^' UINT] ]  |  'x' ['^' UINT]
    curve := 'y' '^' UINT '=' poly 'mod' UINT

Coefficients are normalized into [0, p) at parse time, so structurally
different spellings of the same polynomial compare equal downstream.
Errors carry the byte offset of the offending token plus the expected
token set.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import compress

from .curve import SuperellipticCurve
from .ff import FieldDescriptor, NonPrimeModulusError, make_field
from .poly import Polynomial

EXPONENT_LIMIT = 10**6


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


_Token = namedtuple("_Token", "kind value offset")

# the token kind of each fixed spelling
_KINDS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET", "=": "EQ", "x": "X", "y": "Y", "mod": "MOD"}
# one match per token: an integer, a word or any other non-space
# character; whitespace between matches is skipped
_SCAN = re.compile(r"(\d+)|([^\W\d_]+)|(\S)")


def _tokenize(src: str):
    tokens = []
    for mo in _SCAN.finditer(src):
        text, i = mo.group(), mo.start()
        if text in _KINDS:
            tokens.append(_Token(_KINDS[text], text, i))
        elif mo.lastindex == 1:
            tokens.append(_Token("INT", int(text), i))
        elif mo.lastindex == 2:
            raise ParseError(f"unknown word {text!r}", i, expected=("x", "y", "mod"))
        else:
            raise ParseError(f"unexpected character {text!r}", i)
    tokens.append(_Token("END", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.kind}", tok.offset, expected=(kind,)
            )
        self.pos += 1
        return tok

    def accept(self, kind):
        if self.tokens[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    # term := INT ['*'] [x-part] | x-part
    def term(self):
        tok = self.peek()
        coeff = 1
        have_any = False
        if tok.kind == "INT":
            coeff = self.take("INT").value
            have_any = True
            self.accept("STAR")
        degree = 0
        if self.peek().kind == "X":
            self.take("X")
            have_any = True
            degree = 1
            if self.accept("CARET"):
                dtok = self.take("INT")
                degree = dtok.value
                if degree > EXPONENT_LIMIT:
                    raise ParseError(
                        f"exponent {degree} exceeds limit {EXPONENT_LIMIT}", dtok.offset
                    )
        if not have_any:
            raise ParseError(
                f"expected a term, found {tok.kind}", tok.offset, expected=("INT", "x")
            )
        return coeff, degree

    def poly_terms(self):
        terms = []
        sign = 1
        if self.accept("MINUS"):
            sign = -1
        elif self.accept("PLUS"):
            sign = 1
        c, d = self.term()
        terms.append((sign * c, d))
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.take(self.peek().kind).kind == "PLUS" else -1
            c, d = self.term()
            terms.append((sign * c, d))
        return terms


def parse_poly(src: str, field: FieldDescriptor) -> Polynomial:
    """Parse a polynomial expression over the given field."""
    if not src.strip():
        raise ParseError("empty polynomial expression", 0, expected=("INT", "x"))
    parser = _Parser(_tokenize(src))
    terms = parser.poly_terms()
    parser.take("END")
    return _terms_to_poly(terms, field)


def _terms_to_poly(terms, field) -> Polynomial:
    top = max(d for _, d in terms)
    coeffs = [0] * (top + 1)
    for c, d in terms:
        coeffs[d] += c
    return Polynomial(field, coeffs)


def parse_curve(src: str) -> SuperellipticCurve:
    """Parse 'y^m = <poly> mod p' into a validated curve over F_p.

    The constructor checks the model: m >= 2, gcd(m, p) = 1 and f
    squarefree of degree >= 1.  Its ``kind`` is a label derived from m
    and f (hyperelliptic, artin-schreier-quotient or general).
    """
    parser = _Parser(_tokenize(src))
    parser.take("Y")
    parser.take("CARET")
    mtok = parser.take("INT")
    m = mtok.value
    parser.take("EQ")
    terms = parser.poly_terms()
    parser.take("MOD")
    ptok = parser.take("INT")
    parser.take("END")
    try:
        field = make_field(ptok.value, 1)
    except NonPrimeModulusError as exc:
        raise ParseError(str(exc), ptok.offset) from exc
    f = _terms_to_poly(terms, field)
    return SuperellipticCurve(m, f)


def render_poly(f: Polynomial) -> str:
    """Canonical string form, reparseable over the same prime field."""
    if f.field.k != 1:
        parts = " + ".join(
            f"{list(c.coeffs)}*x^{d}" for d, c in enumerate(f.coeffs) if not c.is_zero()
        )
        return parts or "0"
    if f.is_zero():
        return "0"
    pieces = []
    for d in reversed(list(compress(range(len(f.residues)), f.residues))):
        c = f.residues[d]
        if d == 0:
            pieces.append(str(c))
        elif d == 1:
            pieces.append("x" if c == 1 else f"{c}*x")
        else:
            pieces.append(f"x^{d}" if c == 1 else f"{c}*x^{d}")
    return " + ".join(pieces)
