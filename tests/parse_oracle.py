"""The token-at-a-time tokenizer and the factor-by-factor recursive-descent
parser that build a Polynomial for every number, variable and power, kept
as the oracle for the folding parser of exoticaffine.polyring.

One difference is intended: a bad character after blanks is reported here
at the first blank, and by the package at the character itself."""

import re

from exoticaffine.linalg import exact_quotient
from exoticaffine.polyring import ParseError, Polynomial, VarSet


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|\+|-|\(|\)|/))")


def _tokenize(text: str) -> list[str]:
    text = text.replace("−", "-").replace("·", "*")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for `3/2*x^2*y - 1` style input."""

    def __init__(self, tokens: list[str], vs: VarSet):
        self.tokens = tokens
        self.pos = 0
        self.vs = vs

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            sign = 1 if op == "+" else -1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            p = p + self.term().scale(sign)
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {tok!r}")
            base = base ** int(tok)
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return p
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise ParseError(f"bad denominator {den!r}")
                return Polynomial.constant(self.vs, exact_quotient(num, int(den)))
            return Polynomial.constant(self.vs, num)
        if tok in self.vs:
            return Polynomial.variable(self.vs, tok)
        raise ParseError(f"unknown token {tok!r} (variables are {self.vs.names})")


def parse_polynomial(text: str, vs: VarSet) -> Polynomial:
    return _Parser(_tokenize(text), vs).parse()
