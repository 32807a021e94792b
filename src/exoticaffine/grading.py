"""Weight degree functions and the graded structure of hypersurface quotients.

A WeightFunction assigns an integer weight to each variable and induces a
degree function on the polynomial ring.  For a principal-relation quotient
whose weight is appropriate, the canonical normal form computes the induced
quotient degree, and the associated graded ring is the hypersurface cut out
by the principal quasi-homogeneous component of the relation.

The Russell quotient C[x,y,z,t]/(x + x^2 y + z^2 + t^3) with weights
(-1, 2, 0, 0) is wired in as the distinguished instance: its canonical forms
split uniquely as a(x,z,t) + y b(y,z,t) + x y c(y,z,t), and its graded pieces
have the explicit shapes x^{-i} C[z,t], y^r C[z,t], x y^r C[z,t].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .polyring import (
    GRLEX,
    MonomialOrder,
    Polynomial,
    PolyError,
    VarSet,
    VarSetMismatch,
    normal_form,
    parse_polynomial,
    varset,
    weighted_order,
)

NEG_INF = float("-inf")  # sentinel for the degree of 0, never used in arithmetic


class GradingError(PolyError):
    pass


class ZeroPolynomial(GradingError):
    pass


class NotAppropriate(GradingError):
    pass


class UncertifiedGrading(GradingError):
    pass


class DegreeNotStable(GradingError):
    """Canonical form's principal part lies in the graded ideal; the naive
    degree of the representative would overshoot the quotient degree."""


class WrongRing(GradingError):
    pass


@dataclass(frozen=True)
class WeightFunction:
    varset: VarSet
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.varset):
            raise ValueError("one weight per variable required")

    def of(self, name: str) -> int:
        return self.weights[self.varset.index(name)]

    def monomial_weight(self, e: tuple[int, ...]) -> int:
        return sum(w * k for w, k in zip(self.weights, e))


def weight_degree(p: Polynomial, w: WeightFunction):
    """Max weighted exponent sum over monomials; -inf for the zero polynomial."""
    if p.varset != w.varset:
        raise VarSetMismatch("polynomial and weight function use different varsets")
    if p.is_zero():
        return NEG_INF
    return max(w.monomial_weight(e) for e in p.terms)


def quasi_homogeneous_decompose(
    p: Polynomial, w: WeightFunction
) -> tuple[dict[int, Polynomial], Polynomial]:
    """Split into quasi-homogeneous components; also return the principal one."""
    if p.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if p.varset != w.varset:
        raise VarSetMismatch("polynomial and weight function use different varsets")
    buckets: dict[int, dict] = {}
    for e, c in p.terms.items():
        buckets.setdefault(w.monomial_weight(e), {})[e] = c
    components = {
        d: Polynomial.from_terms(p.varset, terms) for d, terms in sorted(buckets.items())
    }
    principal = components[max(components)]
    return components, principal


def principal_part(p: Polynomial, w: WeightFunction) -> Polynomial:
    return quasi_homogeneous_decompose(p, w)[1]


def is_quasi_homogeneous(p: Polynomial, w: WeightFunction) -> bool:
    if p.is_zero():
        return True
    return len({w.monomial_weight(e) for e in p.terms}) == 1


# ---------------------------------------------------------------------------
# appropriateness of a weight for a principal ideal


@dataclass(frozen=True)
class Appropriateness:
    """Outcome of the appropriateness check: Certified / Unverified / Failed."""

    status: str  # "Certified" | "Unverified" | "Failed"
    reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.status == "Failed"

    @property
    def certified(self) -> bool:
        return self.status == "Certified"


def _monomial_gcd_with(m: tuple[int, ...], p: Polynomial) -> tuple[int, ...]:
    """gcd of the monomial x^m with all monomials of p (p nonzero)."""
    mins = [min(e[i] for e in p.terms) for i in range(len(m))]
    return tuple(min(mi, ni) for mi, ni in zip(m, mins))


def _poly_square_root(p: Polynomial) -> Polynomial | None:
    """g with g^2 = p, or None.  Exact greedy extraction under graded lex."""
    if p.is_zero():
        return Polynomial.zero(p.varset)
    lm = p.leading_monomial(GRLEX)
    lc = p.leading_coefficient(GRLEX)
    if any(e % 2 for e in lm) or lc <= 0:
        return None
    num, den = lc.numerator, lc.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    g = Polynomial.monomial(p.varset, tuple(e // 2 for e in lm), Fraction(rn, rd))
    remaining = p - g * g
    steps = 0
    while not remaining.is_zero():
        steps += 1
        if steps > 4 * len(p.terms) + 16:
            return None
        rm = remaining.leading_monomial(GRLEX)
        gl = g.leading_monomial(GRLEX)
        if any(a < b for a, b in zip(rm, gl)):
            return None
        t = Polynomial.monomial(
            p.varset,
            tuple(a - b for a, b in zip(rm, gl)),
            remaining.terms[rm] / (2 * g.terms[gl]),
        )
        g = g + t
        remaining = p - g * g
    return g


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _univariate_coeffs(p: Polynomial, name: str) -> list[Fraction]:
    i = p.varset.index(name)
    deg = p.degree_in(name)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        if any(e[j] for j in range(len(e)) if j != i):
            raise GradingError("polynomial is not univariate in " + name)
        coeffs[e[i]] += c
    return coeffs


def _univariate_irreducible(coeffs: list[Fraction]):
    """True/False for degree <= 3 via rational roots; degree 4 only detects
    perfect squares; otherwise None (undecided)."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    root = _has_rational_root(ints)
    if root:
        return False
    if root is None or deg > 3:
        return None
    return True


# Work caps of the rational-root search: trial-division steps (the square
# roots of the constant and leading coefficients, summed) and candidate
# pairs p/q.  Past either the search answers "undecided" instead of running on.
_TRIAL_DIVISION_LIMIT = 10**6
_CANDIDATE_LIMIT = 10**5


def _has_rational_root(ints: list[int]) -> bool | None:
    """Does sum ints[i] x^i have a rational root?  None (undecided) when the
    search would pass _TRIAL_DIVISION_LIMIT or _CANDIDATE_LIMIT.

    A root in lowest terms is p/q with p | a0 and q | an; it is a root iff
    sum ints[i] p^i q^(n-i) = 0, evaluated in integers by Horner's rule.
    """
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 == 0:
        return True
    if isqrt(a0) + isqrt(an) > _TRIAL_DIVISION_LIMIT:
        return None
    numerators, denominators = _divisors(a0), _divisors(an)
    if len(numerators) * len(denominators) > _CANDIDATE_LIMIT:
        return None
    for p in numerators:
        for q in denominators:
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                acc, qpow = 0, 1
                for c in reversed(ints):
                    acc = acc * num + c * qpow
                    qpow *= q
                if acc == 0:
                    return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _irreducibility_heuristic(pd: Polynomial) -> tuple[bool, str]:
    """Sound-but-incomplete irreducibility certificate for the principal part.

    Branch 1: pd linear in some variable v, pd = A v + B where A is a single
    monomial term coprime (monomial gcd 1) to B, with B nonzero and free of v.
    Such a primitive linear polynomial is irreducible.

    Branch 2: some variable v has all coefficient polynomials (w.r.t. powers
    of v) sharing no common monomial divisor, the coefficient of one v-power
    is a monomial (making the content computation exact), and specializing
    the other variables at two sample points yields a full-degree univariate
    certified irreducible by the rational-root criteria.
    """
    names = pd.varset.names
    for v in names:
        if pd.degree_in(v) == 1:
            i = pd.varset.index(v)
            a_terms = {e: c for e, c in pd.terms.items() if e[i] == 1}
            b_terms = {e: c for e, c in pd.terms.items() if e[i] == 0}
            if not b_terms or len(a_terms) != 1:
                continue
            (ea, _), = a_terms.items()
            ea = tuple(x if j != i else 0 for j, x in enumerate(ea))
            b = Polynomial.from_terms(pd.varset, b_terms)
            if any(_monomial_gcd_with(ea, b)):
                continue
            return True, f"linear in {v} with coprime monomial coefficient"
    for v in names:
        dv = pd.degree_in(v)
        if dv < 2 or dv > 4:
            continue
        i = pd.varset.index(v)
        coeff_polys: dict[int, dict] = {}
        for e, c in pd.terms.items():
            reste = tuple(x if j != i else 0 for j, x in enumerate(e))
            coeff_polys.setdefault(e[i], {})[reste] = c
        coeffs = {k: Polynomial.from_terms(pd.varset, t) for k, t in coeff_polys.items()}
        mono_coeffs = [c for c in coeffs.values() if len(c.terms) == 1]
        if not mono_coeffs:
            continue
        seed = next(iter(mono_coeffs[0].terms))
        g = seed
        for c in coeffs.values():
            g = _monomial_gcd_with(g, c)
        if any(g):
            continue  # nontrivial content, cannot certify
        others = [n for n in names if n != v]
        single = VarSet((v,))
        for sample in ((2, 3, 5), (3, 5, 7)):
            images = {v: Polynomial.variable(single, v)}
            for k, n in enumerate(others):
                images[n] = Polynomial.constant(single, sample[k % len(sample)] + k)
            try:
                spec = pd.substitute(images)
            except PolyError:
                continue
            if spec.is_zero() or spec.degree_in(v) != dv:
                continue
            verdict = _univariate_irreducible(_univariate_coeffs(spec, v))
            if verdict is True:
                return True, f"irreducible univariate specialization in {v}"
    return False, "no certifying pattern matched"


def check_appropriate(p: Polynomial, w: WeightFunction) -> Appropriateness:
    """Conditions for gr to be the quotient by the principal part alone.

    Failed when p has a constant term, the principal part is constant, a
    variable divides the principal part, or it is a perfect square (hence not
    squarefree).  Certified when the irreducibility heuristic fires; anything
    else is Unverified with the unproven condition named.
    """
    if p.is_zero():
        raise ZeroPolynomial("appropriateness of the zero polynomial")
    if p.constant_term() != 0:
        return Appropriateness("Failed", "nonzero constant term (origin not on the variety)")
    _, pd = quasi_homogeneous_decompose(p, w)
    if pd.is_constant():
        return Appropriateness("Failed", "principal part is constant")
    for name in p.varset.names:
        if pd.min_exponent_of(name) >= 1:
            return Appropriateness("Failed", f"variable {name} divides the principal part")
    content_free = pd
    sq = _poly_square_root(pd)
    if sq is not None and not sq.is_constant():
        return Appropriateness("Failed", "principal part is a perfect square")
    ok, why = _irreducibility_heuristic(content_free)
    if ok:
        return Appropriateness("Certified", why)
    return Appropriateness("Unverified", f"irreducibility of the principal part unproven ({why})")


# ---------------------------------------------------------------------------
# quotient rings and their graded shadows


@dataclass(frozen=True)
class QuotientRing:
    """C[ambient]/(relation) with a fixed order choosing the leading monomial."""

    ambient: VarSet
    relation: Polynomial
    order: MonomialOrder

    def __post_init__(self):
        if self.relation.is_zero() or self.relation.is_constant():
            raise GradingError("quotient relation must be a nonzero nonunit")

    def canonical(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.relation, self.order)


@dataclass(frozen=True)
class GradedHypersurface:
    """The associated graded hypersurface: quotient by the principal part."""

    ambient: VarSet
    relation_top: Polynomial
    weight: WeightFunction
    status: Appropriateness
    order: MonomialOrder

    def canonical(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.relation_top, self.order)


RUSSELL_VARS = varset("x", "y", "z", "t")
RUSSELL_RELATION = parse_polynomial("x + x^2*y + z^2 + t^3", RUSSELL_VARS)
RUSSELL_ORDER = weighted_order((1, 3, 0, 0))
RUSSELL_WEIGHTS = WeightFunction(RUSSELL_VARS, (-1, 2, 0, 0))
RUSSELL_TOP = principal_part(RUSSELL_RELATION, RUSSELL_WEIGHTS)  # x^2 y + z^2 + t^3


def russell_quotient() -> QuotientRing:
    """A0 = C[x,y,z,t]/(x + x^2 y + z^2 + t^3), leading monomial x^2 y."""
    return QuotientRing(RUSSELL_VARS, RUSSELL_RELATION, RUSSELL_ORDER)


def is_russell(q: QuotientRing) -> bool:
    return (
        q.ambient == RUSSELL_VARS
        and q.relation == RUSSELL_RELATION
        and q.relation.leading_monomial(q.order) == (2, 1, 0, 0)
    )


def associated_graded_hypersurface(
    p: Polynomial, w: WeightFunction, order: MonomialOrder | None = None
) -> GradedHypersurface:
    status = check_appropriate(p, w)
    if status.failed:
        raise NotAppropriate(f"weight not appropriate: {status.reason}")
    _, pd = quasi_homogeneous_decompose(p, w)
    if order is None:
        order = GRLEX if p.varset != RUSSELL_VARS else RUSSELL_ORDER
    return GradedHypersurface(p.varset, pd, w, status, order)


def quotient_degree(f: Polynomial, q: QuotientRing, w: WeightFunction):
    """Degree of the canonical representative, with a stability guard:
    the canonical form's principal component must avoid the graded ideal."""
    status = check_appropriate(q.relation, w)
    if status.failed:
        raise UncertifiedGrading(f"weight fails appropriateness: {status.reason}")
    graded = GradedHypersurface(q.ambient, principal_part(q.relation, w), w, status, q.order)
    return stable_degree(q.canonical(f), graded)


def stable_degree(nf: Polynomial, graded: GradedHypersurface):
    """Weight degree of the canonical form nf, refused when its principal
    component lies in the graded ideal (relation_top): divisibility is the
    membership test for a principal ideal."""
    if nf.is_zero():
        return NEG_INF
    w = graded.weight
    _, nf_top = quasi_homogeneous_decompose(nf, w)
    if normal_form(nf_top, graded.relation_top).is_zero():
        raise DegreeNotStable(
            "principal part of the canonical form lies in the graded ideal"
        )
    return weight_degree(nf, w)


def canonical_form_decomposition(
    f: Polynomial, q: QuotientRing
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Unique split of the canonical form as a(x,z,t) + y b(y,z,t) + x y c(y,z,t)."""
    if not is_russell(q):
        raise WrongRing("decomposition is specific to the Russell quotient")
    nf = q.canonical(f)
    ix, iy = 0, 1
    a_terms, b_terms, c_terms = {}, {}, {}
    for e, c in nf.terms.items():
        if e[iy] == 0:
            a_terms[e] = c
        elif e[ix] == 0:
            ne = list(e)
            ne[iy] -= 1
            b_terms[tuple(ne)] = c
        else:
            # canonical forms never carry x^2 y, so e[ix] == 1 here
            ne = list(e)
            ne[ix] -= 1
            ne[iy] -= 1
            c_terms[tuple(ne)] = c
    vs = q.ambient
    return (
        Polynomial.from_terms(vs, a_terms),
        Polynomial.from_terms(vs, b_terms),
        Polynomial.from_terms(vs, c_terms),
    )


def russell_graded() -> GradedHypersurface:
    return associated_graded_hypersurface(RUSSELL_RELATION, RUSSELL_WEIGHTS, RUSSELL_ORDER)


def graded_component_membership(fhat: Polynomial, g: GradedHypersurface, i: int) -> bool:
    """Does the canonical form of fhat have the degree-i shape of the graded
    Russell hypersurface?  (x^{-i} C[z,t] for i<=0, y^r C[z,t] for i=2r>0,
    x y^r C[z,t] for i=2r-1>0.)"""
    if g.ambient != RUSSELL_VARS or g.relation_top != RUSSELL_TOP:
        raise WrongRing("membership shapes are specific to the graded Russell ring")
    nf = g.canonical(fhat)
    if nf.is_zero():
        return True
    if not is_quasi_homogeneous(nf, g.weight):
        return False
    if weight_degree(nf, g.weight) != i:
        return False
    ix, iy = 0, 1
    for e in nf.terms:
        if i <= 0:
            if e[iy] != 0 or e[ix] != -i:
                return False
        elif i % 2 == 0:
            if e[ix] != 0 or e[iy] != i // 2:
                return False
        else:
            if e[ix] != 1 or e[iy] != (i + 1) // 2:
                return False
    return True


def gr_of_element(f: Polynomial, q: QuotientRing, w: WeightFunction) -> Polynomial:
    """Image in the associated graded ring: top component of the canonical
    form, reduced modulo the graded relation."""
    deg = quotient_degree(f, q, w)
    if deg == NEG_INF:
        return Polynomial.zero(q.ambient)
    nf = q.canonical(f)
    _, top = quasi_homogeneous_decompose(nf, w)
    _, pd = quasi_homogeneous_decompose(q.relation, w)
    return normal_form(top, pd, q.order)


def filtration_member(f: Polynomial, q: QuotientRing, w: WeightFunction, i: int) -> bool:
    """f in F^i = elements of quotient degree <= i."""
    d = quotient_degree(f, q, w)
    return d == NEG_INF or d <= i
