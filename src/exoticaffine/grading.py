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

from math import gcd

from .linalg import exact_quotient, rank_mod
from .polyring import (
    DEFAULT_STEP_BUDGET,
    GRLEX,
    MonomialOrder,
    Polynomial,
    PolyError,
    VarSet,
    VarSetMismatch,
    _reduce,
    normal_form,
    parse_polynomial,
    varset,
    varset_from_json,
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


class WeightCountMismatch(GradingError, ValueError):
    """A weight vector whose length is not the number of variables."""


class WeightFunction:
    __slots__ = ("varset", "weights")

    def __init__(self, varset: VarSet, weights: tuple[int, ...]):
        self.varset = varset
        self.weights = weights
        if len(weights) != len(varset):
            raise WeightCountMismatch("one weight per variable required")

    def of(self, name: str) -> int:
        return self.weights[self.varset.index(name)]

    def monomial_weight(self, e: tuple[int, ...]) -> int:
        return sum(w * k for w, k in zip(self.weights, e))


def weights_from_json(data) -> WeightFunction:
    """{"vars": [names], "weights": [integers]}."""
    vs = varset_from_json(data)
    weights = data.get("weights")
    if not isinstance(weights, list) or any(type(x) is not int for x in weights):
        raise GradingError('weight JSON needs a "weights" list of integers')
    return WeightFunction(vs, tuple(weights))


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


class Appropriateness:
    """Outcome of the appropriateness check: Certified / Unverified / Failed."""

    __slots__ = ("status", "reason")

    def __init__(self, status: str, reason: str | None = None):
        self.status = status  # "Certified" | "Unverified" | "Failed"
        self.reason = reason

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.status, self.reason) == (other.status, other.reason)
        return NotImplemented

    def __hash__(self):
        return hash((self.status, self.reason))

    def __repr__(self) -> str:
        return f"Appropriateness(status={self.status!r}, reason={self.reason!r})"

    @property
    def failed(self) -> bool:
        return self.status == "Failed"

    @property
    def certified(self) -> bool:
        return self.status == "Certified"


def _poly_square_root(p: Polynomial) -> Polynomial | None:
    """g with g^2 = p / lc(p), or None.  Over C every nonzero constant is a
    square, so p is a square exactly when the monic p / lc(p) is; the root
    of that, leading coefficient 1, is found by exact greedy extraction
    under graded lex, and has rational coefficients when it exists."""
    if p.is_zero():
        return Polynomial.zero(p.varset)
    lm = p.leading_monomial(GRLEX)
    if any(e % 2 for e in lm):
        return None
    p = p.scale(exact_quotient(1, p.terms[lm]))
    g = Polynomial.monomial(p.varset, tuple(e // 2 for e in lm))
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
            exact_quotient(remaining.terms[rm], 2 * g.terms[gl]),
        )
        g = g + t
        remaining = p - g * g
    return g


def _irreducibility_heuristic(pd: Polynomial) -> tuple[bool, str]:
    """Sound-but-incomplete certificate that pd is irreducible over C, for a
    nonconstant pd that no variable divides (check_appropriate fails the
    rest first).

    Rule 1: pd = A v + B for some variable v, with A a single term and B
    nonzero and free of v.  A factor free of v divides A, so it is a
    monomial, and a nonconstant one would be a variable dividing pd.

    Rule 2: the exponent vectors of pd are affinely independent (their
    differences from the first have full rank over Q), so the Newton
    polytope is a simplex with every point a vertex, and the gcd of all
    coordinates of those differences is 1.  By Gao's pyramid criterion
    (S. Gao, J. Algebra 237 (2001) 501-520) the polytope is then integrally
    indecomposable, so by Ostrowski's Newt(fg) = Newt(f) + Newt(g) any
    factorisation has a monomial factor.  The gcd is never taken over
    non-vertex points: x^2 + 2xy + y^2 + 1 = (x + y + i)(x + y - i) would
    pass it through (1, 1).

    Anything else is undecided: x^5 + y^5 + z^5 is irreducible, but its
    simplex has coordinate gcd 5.
    """
    for i, v in enumerate(pd.varset.names):
        linear = [e for e in pd.terms if e[i]]
        if pd.degree_in(v) == 1 and len(linear) == 1 and len(pd.terms) > 1:
            return True, f"linear in {v} with coprime monomial coefficient"
    first, *rest = pd.terms
    diffs = [[a - b for a, b in zip(e, first)] for e in rest]
    cols = [{k: x for k, x in enumerate(d) if x} for d in diffs]
    if rank_mod(cols, None) == len(diffs) and gcd(*(x for d in diffs for x in d)) == 1:
        return True, "Newton polytope is an integrally indecomposable simplex"
    return False, "no certifying pattern matched"


def check_appropriate(p: Polynomial, w: WeightFunction) -> Appropriateness:
    """Conditions for gr to be the quotient by the principal part alone.

    Failed when p has a constant term, the principal part is constant, a
    variable divides the principal part, or it is a perfect square (hence not
    squarefree).  Certified when the principal part is proven irreducible
    over C by one of the two sound rules of _irreducibility_heuristic;
    anything else is Unverified with the unproven condition named.
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
    sq = _poly_square_root(pd)
    if sq is not None and not sq.is_constant():
        return Appropriateness("Failed", "principal part is a perfect square")
    ok, why = _irreducibility_heuristic(pd)
    if ok:
        return Appropriateness("Certified", why)
    return Appropriateness("Unverified", f"irreducibility of the principal part unproven ({why})")


# ---------------------------------------------------------------------------
# quotient rings and their graded shadows


class QuotientRing:
    """C[ambient]/(relation) with a fixed order choosing the leading monomial,
    which is taken once, here, for every canonical form."""

    __slots__ = ("ambient", "relation", "order", "lead")

    def __init__(self, ambient: VarSet, relation: Polynomial, order: MonomialOrder):
        self.ambient = ambient
        self.relation = relation
        self.order = order
        if relation.is_zero() or relation.is_constant():
            raise GradingError("quotient relation must be a nonzero nonunit")
        self.lead = relation.leading_monomial(order)

    def canonical(self, f: Polynomial) -> Polynomial:
        """normal_form(f, relation, order), without re-taking the leading monomial."""
        return _canonical(f, self.relation, self.order, self.lead)


class GradedHypersurface:
    """The associated graded hypersurface: quotient by the principal part."""

    __slots__ = ("ambient", "relation_top", "weight", "status", "order", "lead")

    def __init__(
        self,
        ambient: VarSet,
        relation_top: Polynomial,
        weight: WeightFunction,
        status: Appropriateness,
        order: MonomialOrder,
    ):
        self.ambient = ambient
        self.relation_top = relation_top
        self.weight = weight
        self.status = status
        self.order = order
        self.lead = relation_top.leading_monomial(order)

    def canonical(self, f: Polynomial) -> Polynomial:
        return _canonical(f, self.relation_top, self.order, self.lead)


def _canonical(f: Polynomial, relation: Polynomial, order: MonomialOrder, lead) -> Polynomial:
    return Polynomial(f.varset, _reduce(f, relation, order, DEFAULT_STEP_BUDGET, lead)[1])


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
        and q.lead == (2, 1, 0, 0)
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
    return stable_degree(q.canonical(f), principal_part(q.relation, w), w)


def stable_degree(nf: Polynomial, relation_top: Polynomial, w: WeightFunction):
    """Weight degree of the canonical form nf, refused when its principal
    component lies in the graded ideal (relation_top): divisibility is the
    membership test for a principal ideal."""
    if nf.is_zero():
        return NEG_INF
    _, nf_top = quasi_homogeneous_decompose(nf, w)
    if normal_form(nf_top, relation_top).is_zero():
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
