"""Sparse exact multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent tuples to nonzero exact rationals, tied
to a fixed ordered variable set: an integral coefficient is stored as an int
and any other as a Fraction (linalg.coefficient), so the integer polynomials
that most computations here stay in never pay for Fraction arithmetic.  The
zero polynomial is the empty map.  All operations are pure; values are never
mutated after construction.

Monomial orders (lex, graded lex, weighted with lex tie-break) drive
deterministic printing, division and normal forms.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add, ge, mul, sub

from .linalg import coefficient, exact_quotient

Exponent = tuple[int, ...]
Coefficient = int | Fraction

DEFAULT_STEP_BUDGET = 10**6


class PolyError(Exception):
    """Base class for polynomial-domain errors."""


class VarSetMismatch(PolyError):
    pass


class UnknownVariable(PolyError):
    pass


class MissingImage(PolyError):
    pass


class DivisionByZero(PolyError):
    pass


class NotDivisible(PolyError):
    """Exact division failed; carries the nonzero remainder as witness."""

    def __init__(self, remainder: "Polynomial"):
        super().__init__(f"not exactly divisible; remainder {remainder}")
        self.remainder = remainder


class DimensionMismatch(PolyError):
    pass


class NonTerminatingOrder(PolyError):
    """Reduction exceeded its step budget; the order is not a well-order here."""


class ParseError(PolyError):
    pass


class InvalidVarSet(PolyError, ValueError):
    """Variable names that are repeated or empty."""


class UnknownOrder(PolyError, ValueError):
    """A monomial order kind other than lex, grlex or weighted."""


class NegativeExponent(PolyError, ValueError):
    """A negative exponent, or a negative or missing power."""


class UnknownOperation(PolyError, ValueError):
    """An arithmetic operation other than add, sub, mul or pow."""


def _integral(terms: dict) -> dict:
    """terms with every integral Fraction coefficient stored as its int, in
    place: sums and products of Fractions can come out integral."""
    for e, c in terms.items():
        if type(c) is not int:
            terms[e] = coefficient(c)
    return terms


class VarSet:
    """An ordered tuple of distinct variable names; exponents index into it."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        if len(set(names)) != len(names):
            raise InvalidVarSet(f"duplicate variable names in {names}")
        if any(not n for n in names):
            raise InvalidVarSet("empty variable name")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.names == other.names
        return NotImplemented

    def __hash__(self):
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet(names={self.names!r})"

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} not in variables {self.names}") from None

    def extend(self, extra: Iterable[str]) -> "VarSet":
        """A new VarSet with extra names appended (must be fresh)."""
        return VarSet(self.names + tuple(extra))

    def fresh_name(self, stem: str) -> str:
        """A name based on stem that does not collide with existing names."""
        if stem not in self.names:
            return stem
        k = 1
        while f"{stem}{k}" in self.names:
            k += 1
        return f"{stem}{k}"


def varset(*names: str) -> VarSet:
    return VarSet(tuple(names))


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total multiplicative order on exponent tuples.

    kind is one of "lex", "grlex", "weighted"; weighted orders carry an
    integer weight per variable and break ties by lex.  Weighted orders are
    well-orders only when all weights are nonnegative; normal_form guards
    against the rest with a step budget.
    """

    __slots__ = ("kind", "weights")

    def __init__(self, kind: str, weights: tuple[int, ...] | None = None):
        self.kind = kind
        self.weights = weights

    def key(self, e: Exponent):
        if self.kind == "lex":
            return e
        if self.kind == "grlex":
            return (sum(e), e)
        if self.kind == "weighted":
            w = self.weights
            if w is None or len(w) != len(e):
                raise DimensionMismatch("weight vector does not match exponent length")
            return (sum(map(mul, w, e)), e)
        raise UnknownOrder(f"unknown order kind {self.kind!r}")

    def is_well_order_certain(self) -> bool:
        if self.kind in ("lex", "grlex"):
            return True
        return all(w >= 0 for w in (self.weights or ()))


LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


def weighted_order(weights: Iterable[int]) -> MonomialOrder:
    return MonomialOrder("weighted", tuple(weights))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero coefficient, an int when
    integral and a Fraction otherwise."""

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: dict[Exponent, Coefficient] | None = None):
        self.varset = varset
        self.terms = {} if terms is None else terms

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.varset, self.terms) == (other.varset, other.terms)
        return NotImplemented

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vs: VarSet) -> "Polynomial":
        return Polynomial(vs, {})

    @staticmethod
    def constant(vs: VarSet, c) -> "Polynomial":
        c = coefficient(c)
        if c == 0:
            return Polynomial(vs, {})
        return Polynomial(vs, {(0,) * len(vs): c})

    @staticmethod
    def variable(vs: VarSet, name: str) -> "Polynomial":
        i = vs.index(name)
        e = [0] * len(vs)
        e[i] = 1
        return Polynomial(vs, {tuple(e): 1})

    @staticmethod
    def monomial(vs: VarSet, exponents: Exponent, c=1) -> "Polynomial":
        c = coefficient(c)
        if len(exponents) != len(vs):
            raise DimensionMismatch("exponent vector length does not match varset")
        if any(e < 0 for e in exponents):
            raise NegativeExponent("negative exponent")
        if c == 0:
            return Polynomial(vs, {})
        return Polynomial(vs, {tuple(exponents): c})

    @staticmethod
    def from_terms(vs: VarSet, terms: Mapping[Exponent, Coefficient]) -> "Polynomial":
        clean = {tuple(e): coefficient(c) for e, c in terms.items() if c != 0}
        return Polynomial(vs, clean)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * len(self.varset), 0)

    def degree_in(self, name: str) -> int:
        i = self.varset.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def min_exponent_of(self, name: str) -> int:
        """Smallest exponent of name across monomials (0 for zero poly)."""
        i = self.varset.index(name)
        if not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    def variables_used(self) -> set[str]:
        used = set()
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei:
                    used.add(self.varset.names[i])
        return used

    def leading_monomial(self, order: MonomialOrder = GRLEX) -> Exponent:
        if not self.terms:
            raise DivisionByZero("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = GRLEX) -> Coefficient:
        return self.terms[self.leading_monomial(order)]

    def _check_same_varset(self, other: "Polynomial"):
        if self.varset != other.varset:
            raise VarSetMismatch(
                f"variable sets differ: {self.varset.names} vs {other.varset.names}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_varset(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
                if type(c) is not int:
                    c = coefficient(c)
            out[e] = c
        return Polynomial(self.varset, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.varset, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same_varset(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.varset)
        out: dict[Exponent, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in out:
                    c = out[e] + c1 * c2
                    if c:
                        out[e] = c
                    else:
                        del out[e]
                else:
                    out[e] = c1 * c2
        return Polynomial(self.varset, _integral(out))

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, c) -> "Polynomial":
        c = coefficient(c)
        if c == 0:
            return Polynomial.zero(self.varset)
        return Polynomial(self.varset, _integral({e: c * v for e, v in self.terms.items()}))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise NegativeExponent("negative power of a polynomial")
        result = Polynomial.constant(self.varset, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus / mapping ------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        i = self.varset.index(name)
        # e -> e - unit_i is one-to-one, so no two terms meet and none cancels
        return Polynomial(
            self.varset,
            _integral(
                {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]}
            ),
        )

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Compose with the map sending each used variable to its image.

        Every variable actually occurring in self must have an image; all
        images must share one VarSet, which becomes the result's VarSet.
        """
        used = self.variables_used()
        missing = sorted(used - set(images))
        if missing:
            raise MissingImage(f"no image for variable(s) {missing}")
        if images:
            target = next(iter(images.values())).varset
            for img in images.values():
                if img.varset != target:
                    raise VarSetMismatch("substitution images use different varsets")
        else:
            target = self.varset
        result = Polynomial.zero(target)
        powers: dict[tuple[str, int], Polynomial] = {}

        def power_of(name: str, k: int) -> Polynomial:
            key = (name, k)
            if key not in powers:
                powers[key] = images[name] ** k
            return powers[key]

        for e, c in self.terms.items():
            term = Polynomial.constant(target, c)
            for i, ei in enumerate(e):
                if ei:
                    term = term * power_of(self.varset.names[i], ei)
            result = result + term
        return result

    def rename_into(self, vs: VarSet) -> "Polynomial":
        """Reinterpret in a larger varset containing all used variables."""
        positions = []
        for name in self.varset.names:
            positions.append(vs.index(name) if name in vs else None)
        out: dict[Exponent, Coefficient] = {}
        for e, c in self.terms.items():
            ne = [0] * len(vs)
            for i, ei in enumerate(e):
                if ei:
                    if positions[i] is None:
                        raise UnknownVariable(
                            f"{self.varset.names[i]!r} missing from target varset"
                        )
                    ne[positions[i]] = ei
            out[tuple(ne)] = c  # distinct names have distinct positions: one-to-one
        return Polynomial(vs, out)

    # -- printing ----------------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = GRLEX) -> list[tuple[Exponent, Coefficient]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def to_string(self, order: MonomialOrder = GRLEX) -> str:
        return terms_text(self.varset.names, self.sorted_terms(order))

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r}, vars={self.varset.names})"


def terms_text(names: tuple[str, ...], terms: list[tuple[Exponent, Coefficient]]) -> str:
    """The text of the polynomial whose terms, in print order, are terms."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        size = abs(c)
        if not mono:
            body = str(size)
        elif size == 1:
            body = mono
        else:
            body = f"{size}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# module-level operations


def arith(a: Polynomial, b: Polynomial | None, op: str, n: int | None = None) -> Polynomial:
    """Dispatch add/sub/mul/pow; pow ignores b and uses the exponent n."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "pow":
        if n is None or n < 0:
            raise NegativeExponent("pow needs a non-negative integer exponent")
        return a**n
    raise UnknownOperation(f"unknown op {op!r}")


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient p/d when the division is exact; NotDivisible otherwise.

    The witness remainder reported on failure is computed under gradedlex.
    """
    if d.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    # gradedlex is a well-order: the reduction ends, so it needs no budget
    quotient, remainder = _reduce(p, d, GRLEX, math.inf)
    if remainder:
        raise NotDivisible(Polynomial(p.varset, remainder))
    return Polynomial(p.varset, _integral(quotient))


def normal_form(
    p: Polynomial,
    d: Polynomial,
    order: MonomialOrder = GRLEX,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> Polynomial:
    """Reduce p modulo the principal ideal (d): remainder of full reduction.

    A single polynomial is a Groebner basis of the ideal it generates, so the
    result is the unique canonical form for the fixed (d, order).  A step
    budget converts non-well-orders into NonTerminatingOrder.
    """
    if d.is_zero():
        raise DivisionByZero("normal form modulo the zero polynomial")
    return Polynomial(p.varset, _reduce(p, d, order, step_budget)[1])


def _reduce(p: Polynomial, d: Polynomial, order: MonomialOrder, step_budget, lm=None):
    """Full reduction of p by the nonzero d: (quotient, remainder) as term
    dicts, with p = quotient * d + remainder and no term of the remainder
    divisible by the leading monomial lm of d (taken here when not given).
    Both are unique, since a single polynomial is a Groebner basis.  The
    remainder is returned in stored form (integral coefficients as ints);
    the quotient is put in stored form by exact_divide, its only reader.
    """
    p._check_same_varset(d)
    if lm is None:
        lm = d.leading_monomial(order)
    lc = d.terms[lm]
    quotient: dict[Exponent, Coefficient] = {}
    work = dict(p.terms)
    # the order key of each term of work that lm divides, taken once per term
    reducible = {e: order.key(e) for e in work if all(map(ge, e, lm))}
    steps = 0
    while reducible:
        e = max(reducible, key=reducible.__getitem__)
        steps += 1
        if steps > step_budget:
            raise NonTerminatingOrder(
                f"reduction exceeded {step_budget} steps; order is not a well-order here"
            )
        # work -= (work[e] / lc) x^(e - lm) d in place; the term at e cancels
        shift = tuple(map(sub, e, lm))
        coef = quotient[shift] = exact_quotient(work[e], lc)
        for ed, cd in d.terms.items():
            k = tuple(map(add, shift, ed))
            c = -(coef * cd)
            if k in work:
                c += work[k]
                if not c:
                    del work[k]
                    reducible.pop(k, None)
                    continue
            elif all(map(ge, k, lm)):
                reducible[k] = order.key(k)
            work[k] = c
    return quotient, _integral(work)


def jacobian_matrix(fs: list[Polynomial]) -> list[list[Polynomial]]:
    vs = fs[0].varset
    if any(f.varset != vs for f in fs):
        raise VarSetMismatch("jacobian entries use different varsets")
    return [[f.partial(name) for name in vs.names] for f in fs]


def maximal_minors(rows: list[list[Polynomial]]) -> dict[int, Polynomial]:
    """The nonzero minors of a k x n polynomial matrix on all k rows, keyed by
    the bitmask of their columns, each formed once in one Laplace pass down
    the rows: minor(rows 0..r, S) is the sum over j in S of rows[r][j] times
    minor(rows 0..r-1, S - {j}), negated if S has odd many columns after j."""
    minors = {0: Polynomial.constant(rows[0][0].varset, 1)}
    for row in rows:
        below = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if not (cols >> j & 1 or entry.is_zero()):
                    term = -entry * minor if (cols >> j).bit_count() % 2 else entry * minor
                    key = cols | 1 << j
                    below[key] = below[key] + term if key in below else term
        minors = {cols: minor for cols, minor in below.items() if not minor.is_zero()}
    return minors


def jacobian_det(fs: list[Polynomial]) -> Polynomial:
    """Determinant of the matrix of partials of n polynomials in n variables."""
    if not fs:
        raise DimensionMismatch("empty polynomial list")
    rows = jacobian_matrix(fs)
    vs = fs[0].varset
    if len(fs) != len(vs):
        raise DimensionMismatch(
            f"need {len(vs)} polynomials for variables {vs.names}, got {len(fs)}"
        )
    return maximal_minors(rows).get((1 << len(vs)) - 1, Polynomial.zero(vs))


# ---------------------------------------------------------------------------
# parsing and JSON


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\d+|{_NAME.pattern}|[\^*+\-()/]")
# the first character that starts no token and is not a blank
_BAD_CHARACTER = re.compile(r"[^\s\dA-Za-z_^*+\-()/]")


def _tokenize(text: str) -> list[str]:
    text = text.replace("−", "-").replace("·", "*")
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} at {bad.start()}")
    return _TOKEN.findall(text)


class _Parser:
    """Recursive-descent parser for `3/2*x^2*y - 1` style input.

    The numbers and variables of a product fold into one coefficient and
    exponent list; only a parenthesised factor becomes a Polynomial.
    """

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
        terms = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return Polynomial(self.vs, terms)

    def expr(self) -> dict:
        """Signed terms added into one dict, a term deleted when it cancels."""
        out: dict[Exponent, Coefficient] = {}
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            for e, c in self.term(sign):
                if e in out:
                    c += out[e]
                    if not c:
                        del out[e]
                        continue
                out[e] = c
            if self.peek() not in ("+", "-"):
                return _integral(out)

    def term(self, coef: Coefficient) -> list[tuple[Exponent, Coefficient]]:
        """The terms of coef times a product of factors."""
        names = self.vs.names
        exps = [0] * len(names)
        product = None  # the parenthesised factors, multiplied out
        while True:
            tok = self.take()
            if tok == "(":
                p = Polynomial(self.vs, self.expr())
                if self.take() != ")":
                    raise ParseError("missing closing parenthesis")
                k = self.exponent()
                if k != 1:
                    p = p**k
                product = p if product is None else product * p
            elif tok.isdigit():
                num = int(tok)
                if self.peek() == "/":
                    self.take()
                    den = self.take()
                    if not den.isdigit() or int(den) == 0:
                        raise ParseError(f"bad denominator {den!r}")
                    num = exact_quotient(num, int(den))
                coef *= num ** self.exponent()
            elif tok in names:
                exps[names.index(tok)] += self.exponent()
            else:
                raise ParseError(f"unknown token {tok!r} (variables are {names})")
            if self.peek() != "*":
                break
            self.take()
        if not coef:
            return []
        if product is None:
            return [(tuple(exps), coef)]
        # a shift by exps is one-to-one, and coef is nonzero: nothing cancels
        return [(tuple(map(add, e, exps)), c * coef) for e, c in product.terms.items()]

    def exponent(self) -> int:
        """The product of the ^ chain that follows, 1 if none: a^b^c is (a^b)^c = a^(b*c)."""
        k = 1
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {tok!r}")
            k *= int(tok)
        return k


def parse_polynomial(text: str, vs: VarSet) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, not {type(text).__name__}")
    return _Parser(_tokenize(text), vs).parse()


def poly_to_json(p: Polynomial, order: MonomialOrder = GRLEX) -> dict:
    return {
        "vars": list(p.varset.names),
        "terms": [
            {"c": str(c), "e": list(e)} for e, c in p.sorted_terms(order)
        ],
    }


def readable_varset(names: Iterable[str]) -> VarSet:
    """The VarSet of names read from outside the program.  Each must be a
    name the parser reads, so printed text means one polynomial; VarSet
    itself takes any distinct nonempty names."""
    names = tuple(names)
    for name in names:
        if not _NAME.fullmatch(name):
            raise InvalidVarSet(f"{name!r} is not a variable name [A-Za-z_][A-Za-z_0-9]*")
    return VarSet(names)


def varset_from_json(data) -> VarSet:
    """The {"vars": [names]} that polynomial, weight and ring JSON share."""
    names = data.get("vars") if isinstance(data, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError('JSON needs a "vars" list of variable names')
    return readable_varset(names)


def poly_from_json(data: Mapping) -> Polynomial:
    vs = varset_from_json(data)
    if not isinstance(data.get("terms"), list):
        raise ParseError('polynomial JSON needs a "terms" list')
    terms: dict[Exponent, Coefficient] = {}
    for entry in data["terms"]:
        e = entry.get("e") if isinstance(entry, dict) else None
        if not isinstance(e, list) or any(type(x) is not int for x in e):
            raise ParseError(f"term {entry!r} needs an exponent list e of integers")
        e = tuple(e)
        if len(e) != len(vs):
            raise ParseError("exponent vector length does not match vars")
        if any(x < 0 for x in e):
            raise ParseError("negative exponent in JSON polynomial")
        c = entry.get("c")
        try:
            c = coefficient(c) if type(c) in (int, str) else None
        except (ValueError, ZeroDivisionError):
            c = None
        if c is None:
            raise ParseError(f"term {entry!r} needs a coefficient c, an integer or num/den text")
        if c:
            terms[e] = terms[e] + c if e in terms else c
    return Polynomial(vs, _integral({e: c for e, c in terms.items() if c}))
