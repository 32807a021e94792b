"""Weight degrees, quasi-homogeneous structure and the graded Russell quotient."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from exoticaffine import grading
from exoticaffine.grading import (
    NEG_INF,
    Appropriateness,
    DegreeNotStable,
    GradingError,
    NotAppropriate,
    RUSSELL_RELATION,
    RUSSELL_VARS,
    RUSSELL_WEIGHTS,
    WeightCountMismatch,
    WeightFunction,
    WrongRing,
    ZeroPolynomial,
    associated_graded_hypersurface,
    canonical_form_decomposition,
    check_appropriate,
    graded_component_membership,
    gr_of_element,
    principal_part,
    quasi_homogeneous_decompose,
    quotient_degree,
    russell_graded,
    russell_quotient,
    weight_degree,
)
from exoticaffine.polyring import MonomialOrder, Polynomial, normal_form, parse_polynomial, varset

VS = RUSSELL_VARS
W = RUSSELL_WEIGHTS


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def random_poly(vs, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in vs)
        c = Fraction(rng.randint(-4, 4))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial.from_terms(vs, terms)


def random_quasi_homogeneous(vs, w, rng):
    """A quasi-homogeneous polynomial of two or three terms, not a monomial:
    random exponent vectors of one weighted degree, a multiple of every
    weight (so each variable has a pure power there), random coefficients."""
    degree = lcm(*w.weights) * rng.randint(1, 2)
    supports = [
        e for e in itertools.product(*(range(degree // wi + 1) for wi in w.weights))
        if w.monomial_weight(e) == degree
    ]
    terms = rng.sample(supports, min(len(supports), rng.randint(2, 3)))
    return Polynomial.from_terms(vs, {e: Fraction(rng.choice((-3, -1, 1, 2, 5))) for e in terms})


class TestWeightDegree:
    def test_weight_count_mismatch(self):
        assert issubclass(WeightCountMismatch, GradingError)
        assert issubclass(WeightCountMismatch, ValueError)
        with pytest.raises(WeightCountMismatch):
            WeightFunction(VS, (1, 2))

    def test_x_has_degree_minus_one(self):
        assert weight_degree(P("x"), W) == -1

    def test_x2y_degree_zero(self):
        assert weight_degree(P("x^2*y"), W) == 0

    def test_zero_polynomial(self):
        assert weight_degree(Polynomial.zero(VS), W) == NEG_INF

    def test_degree_function_axioms(self):
        rng = random.Random(41)
        for _ in range(50):
            f = random_poly(VS, rng)
            g = random_poly(VS, rng)
            df, dg = weight_degree(f, W), weight_degree(g, W)
            assert weight_degree(f * g, W) == df + dg
            s = f + g
            if not s.is_zero():
                assert weight_degree(s, W) <= max(df, dg)
        assert weight_degree(Polynomial.constant(VS, 1), W) == 0


class TestDecomposition:
    def test_russell_components(self):
        comps, pd = quasi_homogeneous_decompose(RUSSELL_RELATION, W)
        assert set(comps) == {-1, 0}
        assert comps[-1] == P("x")
        assert comps[0] == P("x^2*y + z^2 + t^3")
        assert pd == P("x^2*y + z^2 + t^3")

    def test_quasi_homogeneous_input(self):
        p = P("x^2*y + z^2")
        comps, pd = quasi_homogeneous_decompose(p, W)
        assert comps == {0: p} and pd == p

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            quasi_homogeneous_decompose(Polynomial.zero(VS), W)

    def test_product_principal_parts(self):
        rng = random.Random(43)
        checked = 0
        while checked < 40:
            p = random_poly(VS, rng)
            q = random_poly(VS, rng)
            if p.is_zero() or q.is_zero():
                continue
            checked += 1
            assert principal_part(p * q, W) == principal_part(p, W) * principal_part(q, W)


class TestAppropriateness:
    def test_russell_certified(self):
        status = check_appropriate(RUSSELL_RELATION, W)
        assert status.certified

    def test_constant_term_fails(self):
        status = check_appropriate(P("x + 1"), W)
        assert status.failed and "constant" in status.reason

    def test_variable_divides_fails(self):
        w = WeightFunction(VS, (1, 1, 0, 0))
        status = check_appropriate(P("x + x*y"), w)
        assert status.failed and "divides" in status.reason

    def test_square_fails(self):
        w = WeightFunction(VS, (1, 1, 1, 1))
        # principal part (xy + z^2)^2 is quasi-homogeneous and a perfect square
        status = check_appropriate(P("x + x^2*y^2 + 2*x*y*z^2 + z^4"), w)
        assert status.failed and "square" in status.reason

    def test_opaque_case_unverified(self):
        w = WeightFunction(VS, (1, 1, 1, 1))
        # quintic in every variable it uses: evades every certifying branch
        status = check_appropriate(P("x + x^5 + y^5 + z^5"), w)
        assert status.status == "Unverified"

    def test_newton_simplex_certifies(self):
        w = WeightFunction(VS, (1, 1, 1, 1))
        # principal part x^5+y^5+z^5+xyzt^2 is linear in no variable, but its
        # four exponent vectors are affinely independent and their
        # differences from (5,0,0,0) have coordinate gcd 1 (xyzt^2 gives
        # (-4,1,1,2)): an integrally indecomposable simplex
        status = check_appropriate(P("x + x^5 + y^5 + z^5 + x*y*z*t^2"), w)
        assert status == Appropriateness(
            "Certified", "Newton polytope is an integrally indecomposable simplex"
        )

    def test_x2_plus_c_y2_is_never_certified(self):
        # x^2 + c y^2 = (x + i sqrt(c) y)(x - i sqrt(c) y) over C for every
        # c > 0, square or not, though x^2 + c has no rational root: a
        # certificate over Q is not one over C
        xy = varset("x", "y")
        w = WeightFunction(xy, (1, 1))
        for c in (1, 2, 3, 4, 9, 10, Fraction(1, 4), Fraction(2, 3), 10**40 + 1):
            for lower in ("x", "y", "x + y"):
                p = Polynomial.from_terms(xy, {(2, 0): Fraction(1), (0, 2): Fraction(c)})
                status = check_appropriate(p + parse_polynomial(lower, xy), w)
                assert not status.certified, (c, lower, status)

    def test_products_are_never_certified(self):
        # a product of two quasi-homogeneous factors, neither a monomial, is
        # reducible over C whatever the rules say; Failed (a variable or a
        # square divides it) and Unverified are both allowed
        rng = random.Random(1701)
        certified_factors = 0
        for _ in range(300):
            n = rng.randint(2, 3)
            vs = varset(*"xyz"[:n])
            w = WeightFunction(vs, tuple(rng.randint(1, 4) for _ in range(n)))
            factors = [random_quasi_homogeneous(vs, w, rng) for _ in range(2)]
            certified_factors += sum(check_appropriate(f, w).certified for f in factors)
            status = check_appropriate(factors[0] * factors[1], w)
            assert not status.certified, (factors, status)
        assert certified_factors > 100  # the factors themselves often pass


class TestRootsAndSquares:
    @pytest.mark.parametrize("lead", [1, 2, -1, 7, Fraction(2, 3), Fraction(-5, 4)])
    def test_every_constant_multiple_of_a_square_fails(self, lead):
        # over C every nonzero constant is a square, so c (k x + y)^2 is a
        # square for every c != 0, whatever its sign or size
        xy = WeightFunction(VS, (1, 1, 0, 0))
        k = 123456789012345678901
        pd = P(f"{k}*x + y") ** 2
        status = check_appropriate(pd.scale(lead) + P("x"), xy)
        assert status == Appropriateness("Failed", "principal part is a perfect square")

    def test_seeded_squares_fail(self):
        rng = random.Random(1702)
        for _ in range(100):
            n = rng.randint(2, 3)
            vs = varset(*"xyz"[:n])
            w = WeightFunction(vs, tuple(rng.randint(1, 4) for _ in range(n)))
            g = random_quasi_homogeneous(vs, w, rng)
            c = Fraction(rng.choice((-7, -1, 2, 3, 5)), rng.randint(1, 4))
            status = check_appropriate((g * g).scale(c), w)
            assert status.failed, (c, g, status)

    def test_big_perfect_square_principal_part_fails(self):
        xy = WeightFunction(VS, (1, 1, 0, 0))
        k = 123456789012345678901
        # principal part (k x + y)^2
        status = check_appropriate(P(f"{k * k}*x^2 + {2 * k}*x*y + y^2 + x"), xy)
        assert status == Appropriateness("Failed", "principal part is a perfect square")

    def test_big_coefficient_even_gcd_segment_is_unverified(self):
        # (10^40 + 1) x^2 + y^2 splits over C: the segment from (2,0) to
        # (0,2) has coordinate gcd 2, and the coefficient is never examined
        xy = WeightFunction(VS, (1, 1, 0, 0))
        status = check_appropriate(P(f"{10**40 + 1}*x^2 + y^2 + x"), xy)
        assert status.status == "Unverified"

    def test_coprime_segment_with_large_exponent_certifies(self):
        # x^2 + y^27 at weights (27, 2): the segment from (2,0) to (0,27) has
        # coordinate gcd 1, whatever the size of the exponents
        xy = varset("x", "y")
        status = check_appropriate(
            parse_polynomial("x^2 + y^27", xy), WeightFunction(xy, (27, 2))
        )
        assert status == Appropriateness(
            "Certified", "Newton polytope is an integrally indecomposable simplex"
        )


class TestGradedHypersurface:
    def test_russell_top(self):
        g = associated_graded_hypersurface(RUSSELL_RELATION, W)
        assert g.relation_top == P("x^2*y + z^2 + t^3")
        assert g.status.certified

    def test_quasi_homogeneous_is_its_own_graded(self):
        p = P("x^2*y + z^2 + t^3")
        g = associated_graded_hypersurface(p, W)
        assert g.relation_top == p

    def test_weight_solver_family(self):
        # x + x^2 y^{s0} + z^{s1} + t^{s2}: weights solving
        # 2 w_x + s0 w_y = s1 w_z = s2 w_t > w_x pick out x as lowest part
        wx = -1
        for s0, s1, s2 in [(1, 2, 3), (2, 3, 5), (3, 4, 5)]:
            p = (
                P("x")
                + P("x^2") * P("y") ** s0
                + P("z") ** s1
                + P("t") ** s2
            )
            # the common value: the least multiple of s1*s2 with s0 | common - 2*wx
            common = next(
                k * s1 * s2 for k in range(1, s0 + 1) if (k * s1 * s2 - 2 * wx) % s0 == 0
            )
            w = WeightFunction(VS, (wx, (common - 2 * wx) // s0, common // s1, common // s2))
            g = associated_graded_hypersurface(p, w)
            assert g.relation_top == p - P("x")
            assert g.status.certified, (s0, s1, s2, g.status)
            if s0 > 1:  # (2,3,5): weights (-1,16,10,6); (3,4,5): (-1,14,10,8)
                assert g.status.reason == "Newton polytope is an integrally indecomposable simplex"

    def test_failed_raises(self):
        with pytest.raises(NotAppropriate):
            associated_graded_hypersurface(P("x + 1"), W)


class TestQuotientDegree:
    def test_generator_degrees(self):
        q = russell_quotient()
        assert quotient_degree(P("x"), q, W) == -1
        assert quotient_degree(P("y"), q, W) == 2
        assert quotient_degree(P("z"), q, W) == 0
        assert quotient_degree(P("t"), q, W) == 0

    def test_x2y_degree_via_normal_form(self):
        q = russell_quotient()
        # canonical form of x^2 y is -x - z^2 - t^3, of weight degree 0
        assert q.canonical(P("x^2*y")) == P("0 - x - z^2 - t^3")
        assert quotient_degree(P("x^2*y"), q, W) == 0

    def test_yz_degree_two(self):
        q = russell_quotient()
        assert quotient_degree(P("y*z"), q, W) == 2

    def test_zero(self):
        q = russell_quotient()
        assert quotient_degree(Polynomial.zero(VS), q, W) == NEG_INF

    def test_degree_not_stable_detected(self):
        # C[x,y,z]/(xy + z^2 + x^3) with weights (1,3,2): the principal part
        # xy + z^2 is certified, but the graded-lex leading monomial is x^3,
        # so xy + z^2 is its own canonical form while being congruent to the
        # lower-weight -x^3.  The naive representative degree (4) would
        # overstate d_A (<= 3); the guard must refuse instead.
        from exoticaffine.grading import QuotientRing
        from exoticaffine.polyring import GRLEX

        xyz = varset("x", "y", "z")
        relation = parse_polynomial("x*y + z^2 + x^3", xyz)
        assert relation.leading_monomial(GRLEX) == (3, 0, 0)
        q = QuotientRing(xyz, relation, GRLEX)
        w = WeightFunction(xyz, (1, 3, 2))
        assert check_appropriate(relation, w).certified
        with pytest.raises(DegreeNotStable):
            quotient_degree(parse_polynomial("x*y + z^2", xyz), q, w)

    def test_no_graded_hypersurface_is_built(self, monkeypatch):
        # the degree reads only the principal part and the weight; the
        # appropriateness guard still runs on every call
        def refuse(*args):
            raise AssertionError("quotient_degree built a GradedHypersurface")

        monkeypatch.setattr(grading, "GradedHypersurface", refuse)
        q = russell_quotient()
        assert quotient_degree(P("y*z"), q, W) == 2
        with pytest.raises(grading.UncertifiedGrading):
            quotient_degree(P("y"), grading.QuotientRing(VS, P("x + 1"), q.order), W)

    def test_degree_axioms_on_canonical_elements(self):
        q = russell_quotient()
        rng = random.Random(47)
        count = 0
        while count < 30:
            f = q.canonical(random_poly(VS, rng, max_terms=3, max_exp=2))
            g = q.canonical(random_poly(VS, rng, max_terms=3, max_exp=2))
            if f.is_zero() or g.is_zero():
                continue
            count += 1
            df = quotient_degree(f, q, W)
            dg = quotient_degree(g, q, W)
            assert quotient_degree(f * g, q, W) == df + dg
            if not (f + g).is_zero():
                assert quotient_degree(f + g, q, W) <= max(df, dg)


class TestCanonicalDecomposition:
    def test_single_rewrite(self):
        q = russell_quotient()
        a, b, c = canonical_form_decomposition(P("x^2*y"), q)
        assert a == P("0 - x - z^2 - t^3")
        assert b.is_zero() and c.is_zero()

    def test_already_reduced(self):
        q = russell_quotient()
        a, b, c = canonical_form_decomposition(P("z + t"), q)
        assert a == P("z + t") and b.is_zero() and c.is_zero()

    def test_two_rewrites(self):
        q = russell_quotient()
        a, b, c = canonical_form_decomposition(P("x^3*y^2"), q)
        assert a == P("x + z^2 + t^3")
        assert b.is_zero()
        assert c == P("0 - z^2 - t^3")
        # back-multiplication: a + y b + x y c must equal the canonical form
        rebuilt = a + P("y") * b + P("x*y") * c
        assert rebuilt == q.canonical(P("x^3*y^2"))

    def test_roundtrip_property(self):
        q = russell_quotient()
        rng = random.Random(53)
        for _ in range(25):
            f = random_poly(VS, rng)
            a, b, c = canonical_form_decomposition(f, q)
            rebuilt = a + P("y") * b + P("x*y") * c
            assert q.canonical(rebuilt) == q.canonical(f)
            # stated variable constraints
            assert "y" not in a.variables_used()
            assert "x" not in b.variables_used()
            assert "x" not in c.variables_used()

    def test_wrong_ring(self):
        from exoticaffine.grading import QuotientRing
        from exoticaffine.polyring import GRLEX

        other = QuotientRing(VS, P("x^2 + y^2 - 1"), GRLEX)
        with pytest.raises(WrongRing):
            canonical_form_decomposition(P("x"), other)


class TestGradedMembership:
    def test_paper_shapes(self):
        g = russell_graded()
        assert graded_component_membership(P("x"), g, -1)
        assert graded_component_membership(P("y*z"), g, 2)
        assert not graded_component_membership(P("x*y"), g, 2)
        assert graded_component_membership(P("x*y"), g, 1)

    def test_degree_zero_is_zt_plane(self):
        g = russell_graded()
        assert graded_component_membership(P("z^2 + 3*t"), g, 0)
        assert not graded_component_membership(P("x"), g, 0)

    def test_reduction_lands_in_shape(self):
        g = russell_graded()
        # x^2 y has graded canonical form -z^2 - t^3 in degree 0
        assert graded_component_membership(P("x^2*y"), g, 0)


    def test_russell_principal_part_not_recomputed(self, monkeypatch):
        calls = []
        real = grading.principal_part
        monkeypatch.setattr(grading, "principal_part", lambda *a: calls.append(a) or real(*a))
        g = russell_graded()
        for text, i in [("x", -1), ("y*z", 2), ("x*y", 1), ("z^2 + 3*t", 0)]:
            assert graded_component_membership(P(text), g, i)
        assert calls == []


class TestGr:
    def test_top_component(self):
        q = russell_quotient()
        assert gr_of_element(P("x + z^2"), q, W) == P("z^2")

    def test_reduced_quasi_homogeneous_fixed(self):
        q = russell_quotient()
        f = P("y*z^2")
        assert gr_of_element(f, q, W) == f

    def test_multiplicativity_instance(self):
        q = russell_quotient()
        lhs = gr_of_element(P("x*y"), q, W)
        rhs = gr_of_element(P("x"), q, W) * gr_of_element(P("y"), q, W)
        g = russell_graded()
        assert g.canonical(lhs) == g.canonical(rhs)
        assert lhs == P("x*y")


class TestFiltration:
    def test_membership_monotone(self):
        from exoticaffine.grading import filtration_member

        q = russell_quotient()
        rng = random.Random(59)
        for _ in range(20):
            f = random_poly(VS, rng, max_terms=3, max_exp=2)
            d = quotient_degree(f, q, W)
            if d == NEG_INF:
                continue
            d = int(d)
            assert filtration_member(f, q, W, d)
            assert not filtration_member(f, q, W, d - 1)
            assert filtration_member(f, q, W, d + 3)

    def test_product_degrees_add(self):
        # (f3): product of elements of exact degrees i and j has degree i+j
        q = russell_quotient()
        pairs = [(P("x"), P("y")), (P("y"), P("y*z")), (P("x*y"), P("t"))]
        for f, g in pairs:
            di = quotient_degree(f, q, W)
            dj = quotient_degree(g, q, W)
            assert quotient_degree(f * g, q, W) == di + dj


class TestLeadingMonomialOncePerRing:
    """A ring takes its relation's leading monomial once, when it is built;
    its canonical forms are normal_form's, without re-keying the relation."""

    @pytest.fixture
    def key_calls(self, monkeypatch):
        key = MonomialOrder.key
        calls = []
        monkeypatch.setattr(MonomialOrder, "key", lambda order, e: calls.append(e) or key(order, e))
        return calls

    def test_built_with_one_key_per_relation_term(self, key_calls):
        q = russell_quotient()
        assert key_calls == list(RUSSELL_RELATION.terms)
        assert q.lead == (2, 1, 0, 0)

    @pytest.mark.parametrize("make", [russell_quotient, russell_graded], ids=["quotient", "graded"])
    def test_canonical_forms_do_not_key_the_relation(self, key_calls, make):
        ring = make()
        relation = ring.relation if make is russell_quotient else ring.relation_top
        rng = random.Random(2202)
        fs = [random_poly(VS, rng) for _ in range(25)]
        key_calls.clear()
        want = [normal_form(f, relation, ring.order) for f in fs]
        direct = len(key_calls)
        key_calls.clear()
        assert [ring.canonical(f) for f in fs] == want
        assert len(key_calls) == direct - len(fs) * len(relation.terms)
        # nothing of z^2 + t is divisible by x^2*y: no key at all, however many calls
        key_calls.clear()
        for _ in range(10):
            assert ring.canonical(P("z^2 + t")) == P("z^2 + t")
        assert key_calls == []
