"""Core polynomial arithmetic: examples with independent oracles, ring axioms."""

import ast
import itertools
import math
import random
from fractions import Fraction
from math import comb

import pytest

from exoticaffine import polyring
from exoticaffine.derivations import _primitive, exp_flow, linear_derivation, nilpotency_test
from exoticaffine.polyring import (
    GRLEX,
    LEX,
    DivisionByZero,
    DimensionMismatch,
    InvalidVarSet,
    MissingImage,
    MonomialOrder,
    NegativeExponent,
    NonTerminatingOrder,
    NotDivisible,
    ParseError,
    Polynomial,
    PolyError,
    UnknownOperation,
    UnknownOrder,
    VarSet,
    VarSetMismatch,
    arith,
    exact_divide,
    jacobian_det,
    maximal_minors,
    normal_form,
    parse_polynomial,
    poly_from_json,
    poly_to_json,
    varset,
    weighted_order,
)
import parse_oracle

XYZT = varset("x", "y", "z", "t")
XY = varset("x", "y")


def P(text, vs=XYZT):
    return parse_polynomial(text, vs)


def random_poly(vs, rng, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in vs)
        c = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial.from_terms(vs, terms)


class TestArith:
    def test_difference_of_squares(self):
        assert P("(x-1)*(x+1)") == P("x^2-1")

    def test_cube_of_binomial_matches_binomial_theorem(self):
        # oracle: binomial expansion of (xz+1)^3 built term by term
        xz1 = P("x*z+1")
        cube = arith(xz1, None, "pow", 3)
        expected = Polynomial.zero(XYZT)
        for k in range(4):
            expected = expected + P("x*z") ** k * comb(3, k)
        assert cube == expected
        assert cube == P("x^3*z^3+3*x^2*z^2+3*x*z+1")

    def test_additive_identity(self):
        p = P("x^2*y - 3*t")
        assert arith(Polynomial.zero(XYZT), p, "add") == p

    def test_varset_mismatch(self):
        with pytest.raises(VarSetMismatch):
            arith(P("x"), parse_polynomial("x", XY), "add")


class TestSubstitute:
    def test_hyperbolic_first_step(self):
        # x + x^2 under x -> u*x  gives  u*x + u^2*x^2
        vs = varset("x", "u")
        h = parse_polynomial("x + x^2", varset("x"))
        image = {"x": parse_polynomial("u*x", vs)}
        assert h.substitute(image) == parse_polynomial("u*x + u^2*x^2", vs)

    def test_identity_substitution(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_poly(XYZT, rng)
            images = {n: Polynomial.variable(XYZT, n) for n in XYZT.names}
            assert p.substitute(images) == p

    def test_cuspidal_cubic_parametrization(self):
        # oracle: s^6 - s^6 = 0
        zt = varset("z", "t")
        s = varset("s")
        p = parse_polynomial("z^2 + t^3", zt)
        images = {
            "z": parse_polynomial("s^3", s),
            "t": parse_polynomial("0 - s^2", s),
        }
        assert p.substitute(images).is_zero()

    def test_missing_image(self):
        with pytest.raises(MissingImage):
            P("x+y").substitute({"x": P("x")})

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        vs2 = varset("u", "v")
        for _ in range(15):
            a = random_poly(XY, rng)
            b = random_poly(XY, rng)
            images = {
                "x": random_poly(vs2, rng, max_terms=2, max_exp=2),
                "y": random_poly(vs2, rng, max_terms=2, max_exp=2),
            }
            lhs = (a * b).substitute(images)
            rhs = a.substitute(images) * b.substitute(images)
            assert lhs == rhs
            assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


class TestPartial:
    def test_power_rule(self):
        assert P("x^2*y").partial("x") == P("2*x*y")
        assert P("x + x^2*y + z^2 + t^3").partial("t") == P("3*t^2")
        assert Polynomial.constant(XYZT, Fraction(5, 3)).partial("x").is_zero()

    def test_leibniz(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_poly(XYZT, rng, max_terms=3)
            b = random_poly(XYZT, rng, max_terms=3)
            for v in ("x", "z"):
                assert (a * b).partial(v) == a * b.partial(v) + b * a.partial(v)


class TestExactDivide:
    def test_simple(self):
        assert exact_divide(P("x^2-1"), P("x-1")) == P("x+1")

    def test_hyperbolic_division(self):
        vs = varset("x", "u")
        p = parse_polynomial("u*x + u^2*x^2", vs)
        assert exact_divide(p, parse_polynomial("u", vs)) == parse_polynomial(
            "x + u*x^2", vs
        )

    def test_unit_remainder(self):
        with pytest.raises(NotDivisible) as exc:
            exact_divide(P("x^2+1"), P("x"))
        assert exc.value.remainder == P("1")

    def test_round_trip_property(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_poly(XYZT, rng)
            d = random_poly(XYZT, rng)
            if d.is_zero():
                continue
            assert exact_divide(p * d, d) == p

    def test_matches_leading_term_division(self):
        """exact_divide against the naive leading-term division on seeded
        pairs: the same quotient where p*d + r is divisible, and otherwise
        the same remainder in NotDivisible and in its message."""
        rng = random.Random(1401)
        divisible = 0
        for t in range(300):
            d = random_poly(XYZT, rng)
            if d.is_zero():
                continue
            q = random_poly(XYZT, rng)
            p = q * d + (random_poly(XYZT, rng, max_terms=2) if t % 2 else Polynomial.zero(XYZT))
            want_q, want_r = leading_term_division(p, d)
            if want_r.is_zero():
                divisible += 1
                got = exact_divide(p, d)
                assert got == want_q and list(got.terms) == list(want_q.terms), (p, d)
            else:
                with pytest.raises(NotDivisible) as exc:
                    exact_divide(p, d)
                assert exc.value.remainder == want_r, (p, d)
                assert str(exc.value) == f"not exactly divisible; remainder {want_r}"
        assert 100 < divisible < 250

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero, match="^division by the zero polynomial$"):
            exact_divide(P("x^2+1"), Polynomial.zero(XYZT))


def leading_term_division(p, d):
    """Division by one divisor under gradedlex, one leading term at a time:
    (q, r) with p = q*d + r and no term of r divisible by the leading
    monomial of d.  The oracle for exact_divide."""
    lm = d.leading_monomial(GRLEX)
    lc = d.terms[lm]
    q = r = Polynomial.zero(p.varset)
    work = p
    while not work.is_zero():
        wm = work.leading_monomial(GRLEX)
        if all(a >= b for a, b in zip(wm, lm)):
            shift = tuple(a - b for a, b in zip(wm, lm))
            t = Polynomial.monomial(p.varset, shift, work.terms[wm] / lc)
            q = q + t
            work = work - t * d
        else:
            t = Polynomial.monomial(p.varset, wm, work.terms[wm])
            r = r + t
            work = work - t
    return q, r


def rescanning_reduce(p, d, order):
    """The reduction loop that keys every reducible term again at every
    step: (quotient, remainder, steps, keys taken, reducible terms that
    entered the work).  The oracle for polyring._reduce."""
    lm = d.leading_monomial(order)
    lc = d.terms[lm]

    def divisible(e):
        return all(a >= b for a, b in zip(e, lm))

    quotient, work = {}, dict(p.terms)
    steps, keyed, entered = 0, 0, sum(map(divisible, work))
    while reducible := [e for e in work if divisible(e)]:
        keyed += len(reducible)
        e = max(reducible, key=order.key)
        steps += 1
        shift = tuple(a - b for a, b in zip(e, lm))
        coef = quotient[shift] = Fraction(work[e]) / lc
        for ed, cd in d.terms.items():
            k = tuple(a + b for a, b in zip(shift, ed))
            entered += k not in work and divisible(k)
            c = work.get(k, 0) - coef * cd
            if c:
                work[k] = c
            else:
                del work[k]
    return quotient, work, steps, keyed, entered


class TestJacobian:
    def test_identity(self):
        assert jacobian_det([parse_polynomial("x", XY), parse_polynomial("y", XY)]) == \
            Polynomial.constant(XY, 1)

    def test_row_reduction_forced(self):
        g = parse_polynomial("x^2*y + y^3", XY)
        assert jacobian_det([parse_polynomial("x", XY), g]) == g.partial("y")

    def test_three_by_three_cofactor_oracle(self):
        # oracle: full permutation expansion of det for n=3
        xyz = varset("x", "y", "z")
        fs = [
            parse_polynomial("x", xyz),
            parse_polynomial("y", xyz),
            parse_polynomial("x^2 - y*z", xyz),
        ]
        rows = [[f.partial(v) for v in xyz.names] for f in fs]
        det = Polynomial.zero(xyz)
        for perm, sign in [
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
        ]:
            prod = Polynomial.constant(xyz, sign)
            for i, j in enumerate(perm):
                prod = prod * rows[i][j]
            det = det + prod
        assert jacobian_det(fs) == det
        assert det == parse_polynomial("0 - y", xyz)


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row: the oracle of
    the one-pass minors."""
    if len(rows) == 1:
        return rows[0][0]
    det = Polynomial.zero(rows[0][0].varset)
    for j, entry in enumerate(rows[0]):
        cofactor = entry * cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        det = det - cofactor if j % 2 else det + cofactor
    return det


def seeded_matrices(rows, cols, rng):
    """Polynomial matrices of one shape: dense, sparse, and with a zero row."""
    def matrix(density):
        return [
            [random_poly(XYZT, rng, 3, 2) if rng.random() < density else Polynomial.zero(XYZT)
             for _ in range(cols)]
            for _ in range(rows)
        ]

    dense, sparse, zero_row = matrix(1), matrix(0.35), matrix(1)
    zero_row[rng.randrange(rows)] = [Polynomial.zero(XYZT)] * cols
    return [dense, sparse, zero_row]


class TestMaximalMinors:
    """One Laplace pass against cofactor expansion of each column subset."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_square_determinants(self, n):
        rng = random.Random(f"square {n}")
        for rows in seeded_matrices(n, n, rng) + seeded_matrices(n, n, rng):
            minors = maximal_minors(rows)
            assert set(minors) <= {(1 << n) - 1}
            assert minors.get((1 << n) - 1, Polynomial.zero(XYZT)) == cofactor_det(rows)

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 4), (3, 5), (4, 6), (5, 6)])
    def test_every_maximal_minor(self, k, n):
        rng = random.Random(f"wide {k} {n}")
        for rows in seeded_matrices(k, n, rng):
            minors = maximal_minors(rows)
            for cols in itertools.combinations(range(n), k):
                mask = sum(1 << j for j in cols)
                expect = cofactor_det([[row[j] for j in cols] for row in rows])
                assert minors.get(mask, Polynomial.zero(XYZT)) == expect
                assert mask not in minors or not minors[mask].is_zero()

    def test_jacobian_refusals_keep_class_and_message(self):
        with pytest.raises(DimensionMismatch, match="^empty polynomial list$"):
            jacobian_det([])
        with pytest.raises(VarSetMismatch, match="^jacobian entries use different varsets$"):
            jacobian_det([P("x", XY), P("y")])
        with pytest.raises(
            DimensionMismatch, match=r"^need 2 polynomials for variables \('x', 'y'\), got 1$"
        ):
            jacobian_det([P("x", XY)])


RUSSELL = P("x + x^2*y + z^2 + t^3")
RUSSELL_ORDER = weighted_order((1, 3, 0, 0))


class TestNormalForm:
    def test_single_reduction_step(self):
        r = normal_form(P("x^2*y"), RUSSELL, RUSSELL_ORDER)
        assert r == P("0 - x - z^2 - t^3")
        # membership oracle: p - r must lie in (d)
        exact_divide(P("x^2*y") - r, RUSSELL)

    def test_no_divisible_monomial(self):
        assert normal_form(P("z^5"), RUSSELL, RUSSELL_ORDER) == P("z^5")

    def test_two_reduction_steps(self):
        r = normal_form(P("x^3*y^2"), RUSSELL, RUSSELL_ORDER)
        assert r == P("(x + z^2 + t^3) - x*y*(z^2 + t^3)")
        exact_divide(P("x^3*y^2") - r, RUSSELL)

    def test_idempotence_and_membership(self):
        rng = random.Random(23)
        for _ in range(25):
            p = random_poly(XYZT, rng)
            r = normal_form(p, RUSSELL, RUSSELL_ORDER)
            assert normal_form(r, RUSSELL, RUSSELL_ORDER) == r
            diff = p - r
            if not diff.is_zero():
                exact_divide(diff, RUSSELL)

    def test_congruent_inputs_share_normal_form(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_poly(XYZT, rng)
            q = random_poly(XYZT, rng)
            shifted = p + q * RUSSELL
            assert normal_form(shifted, RUSSELL, RUSSELL_ORDER) == normal_form(
                p, RUSSELL, RUSSELL_ORDER
            )

    def test_leading_monomial_under_russell_order(self):
        assert RUSSELL.leading_monomial(RUSSELL_ORDER) == (2, 1, 0, 0)

    def test_reduction_keys_each_term_once(self, monkeypatch):
        """The same quotient, remainder and step count as the loop that keys
        every reducible term at every step, with one order key per term
        that enters the work (and one per term of d, for its leading
        monomial)."""
        key = MonomialOrder.key
        calls = []
        monkeypatch.setattr(MonomialOrder, "key", lambda order, e: calls.append(e) or key(order, e))
        rng = random.Random(59)
        total_keyed = total_calls = 0
        for order in (LEX, GRLEX, RUSSELL_ORDER):
            for _ in range(12):
                p = random_poly(XYZT, rng, max_terms=8, max_exp=4)
                d = random_poly(XYZT, rng, max_terms=3) + P("x*y")
                want_q, want_r, steps, keyed, entered = rescanning_reduce(p, d, order)
                assert polyring._reduce(p, d, order, math.inf) == (want_q, want_r)
                calls.clear()
                assert normal_form(p, d, order, step_budget=steps).terms == want_r
                assert len(calls) == len(d.terms) + entered
                total_keyed += len(d.terms) + keyed
                total_calls += len(calls)
                if steps:
                    with pytest.raises(NonTerminatingOrder):
                        normal_form(p, d, order, step_budget=steps - 1)
        assert total_calls < total_keyed

    def test_negative_weights_hit_the_budget(self):
        # with weight (x: -1) the leading monomial of x + x^2*y is x, and
        # reducing x grows the degree forever; the budget turns the
        # non-well-order into a clean error
        bad_order = weighted_order((-1, 0, 0, 0))
        with pytest.raises(NonTerminatingOrder):
            normal_form(P("x"), P("x + x^2*y"), bad_order, step_budget=50)


class TestRingAxioms:
    def test_axioms_on_sampled_triples(self):
        rng = random.Random(29)
        for _ in range(20):
            a = random_poly(XYZT, rng)
            b = random_poly(XYZT, rng)
            c = random_poly(XYZT, rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a + b) - b == a


class TestParserAndJson:
    def test_parse_rational_coefficients(self):
        p = P("3/2*x^2*y - 1")
        assert p.terms[(2, 1, 0, 0)] == Fraction(3, 2)
        assert p.terms[(0, 0, 0, 0)] == Fraction(-1)

    def test_unicode_minus(self):
        assert P("x − 1") == P("x - 1")

    def test_json_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_poly(XYZT, rng)
            assert poly_from_json(poly_to_json(p)) == p

    def test_json_format_shape(self):
        data = poly_to_json(P("3/2*x^2*y - 1"))
        assert data["vars"] == ["x", "y", "z", "t"]
        assert {"c": "3/2", "e": [2, 1, 0, 0]} in data["terms"]
        assert {"c": "-1", "e": [0, 0, 0, 0]} in data["terms"]

    def test_print_parse_round_trip(self):
        rng = random.Random(37)
        for _ in range(25):
            p = random_poly(XYZT, rng)
            assert parse_polynomial(p.to_string(), XYZT) == p

    def test_deterministic_printing(self):
        p = P("x + x^2*y + z^2 + t^3")
        assert str(p) == "x^2*y + t^3 + z^2 + x"

    def test_well_order_certification(self):
        assert LEX.is_well_order_certain()
        assert GRLEX.is_well_order_certain()
        assert weighted_order((1, 3, 0, 0)).is_well_order_certain()
        assert not weighted_order((-1, 2, 0, 0)).is_well_order_certain()

    def test_lex_vs_grlex(self):
        p = P("x + y^5")
        assert p.leading_monomial(LEX) == (1, 0, 0, 0)
        assert p.leading_monomial(GRLEX) == (0, 5, 0, 0)


def assert_stored_coefficients(p):
    """Every stored coefficient is a nonzero int, or a Fraction whose
    denominator is greater than 1: never a float, a bool, a zero or an
    integral Fraction."""
    for c in p.terms.values():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1), p.terms


class TestStoredCoefficients:
    """Every stored coefficient is a nonzero int, or a Fraction whose
    denominator is greater than 1.  == compares values, so a float, a bool,
    an integral Fraction or a cancelled zero left in terms would pass unseen."""

    RUSSELL = "x + x^2*y + z^2 + t^3"

    def test_operations_on_sampled_polynomials(self):
        rng = random.Random(43)
        russell = P(self.RUSSELL)
        order = weighted_order((1, 3, 0, 0))
        wider = XYZT.extend(["w"])
        linear = P("2*x + 1")
        for _ in range(30):
            a, b = random_poly(XYZT, rng), random_poly(XYZT, rng)
            results = [
                a + b,
                a - b,
                a * b,
                a ** rng.randint(0, 3),
                a.scale(rng.randint(-2, 2)),
                a.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
                a * rng.randint(-2, 2),
                a.partial(rng.choice(XYZT.names)),
                a.rename_into(wider),
                Polynomial.from_terms(XYZT, {e: int(c * 6) for e, c in a.terms.items()}),
                poly_from_json(poly_to_json(a)),
                normal_form(a * b, russell, order),
                normal_form(a, linear),
                normal_form(a, linear, LEX),
                exact_divide(a * linear, linear),
                exact_divide(a * russell, russell),
            ]
            for p in results:
                assert_stored_coefficients(p)

    def test_cancelling_cases(self):
        a = P("3/2*x^2*y - z + 1")
        order = weighted_order((1, 3, 0, 0))
        json_terms = [
            {"c": "1", "e": [1, 0, 0, 0]},
            {"c": "-1", "e": [1, 0, 0, 0]},
            {"c": "0", "e": [0, 1, 0, 0]},
            {"c": "2", "e": [0, 0, 1, 0]},
        ]
        cases = {
            "(x+1)(x-1)": (P("(x+1)*(x-1)"), P("x^2 - 1")),
            "a - a": (a - a, Polynomial.zero(XYZT)),
            "a + -a": (a + (-a), Polynomial.zero(XYZT)),
            "(x-y)(x+y) + y^2": (P("(x-y)*(x+y)") + P("y^2"), P("x^2")),
            "from_terms with zeros": (
                Polynomial.from_terms(XYZT, {(1, 0, 0, 0): 2, (0, 1, 0, 0): 0}),
                P("2*x"),
            ),
            "json duplicates": (
                poly_from_json({"vars": list(XYZT.names), "terms": json_terms}),
                P("2*z"),
            ),
            "normal form of a multiple": (
                normal_form(P(self.RUSSELL) * P("y*z - 2"), P(self.RUSSELL), order),
                Polynomial.zero(XYZT),
            ),
            "partial of a constant": (P("5").partial("x"), Polynomial.zero(XYZT)),
            "zero power": ((a - a) ** 2, Polynomial.zero(XYZT)),
            "scale by zero": (a.scale(0), Polynomial.zero(XYZT)),
        }
        for name, (p, expected) in cases.items():
            assert p == expected, name
            assert_stored_coefficients(p)

    def test_integral_results_are_ints(self):
        """Fractions that combine to an integer are stored as that int, and
        two ints divide to a Fraction or an int, never to a float."""
        half_x = P("1/2*x")
        cases = {
            "sum": (half_x + half_x, P("x")),
            "product": (half_x * P("2*y"), P("x*y")),
            "square": (P("1/2*x + 1/2") * P("2*x + 2"), P("x^2 + 2*x + 1")),
            "scale": (P("2/3*x").scale(Fraction(3, 2)), P("x")),
            "partial": (P("1/2*x^2").partial("x"), P("x")),
            "parsed quotient": (P("4/2*x"), P("2*x")),
            "constant": (Polynomial.constant(XYZT, Fraction(6, 2)), P("3")),
            "float constant": (Polynomial.constant(XYZT, 0.5), P("1/2")),
            "bool monomial": (Polynomial.monomial(XYZT, (1, 0, 0, 0), True), P("x")),
            "from_terms": (
                Polynomial.from_terms(XYZT, {(0, 1, 0, 0): Fraction(4, 2), (1, 0, 0, 0): "3/6"}),
                P("2*y + 1/2*x"),
            ),
            "json halves": (
                poly_from_json(
                    {"vars": list(XYZT.names), "terms": [{"c": "1/2", "e": [1, 0, 0, 0]}] * 2}
                ),
                P("x"),
            ),
            # 2x + 1 is not monic: x^2 = (x/2 - 1/4)(2x + 1) + 1/4
            "normal form by 2x + 1": (normal_form(P("x^2"), P("2*x + 1")), P("1/4")),
            "quotient by 2x + 1": (exact_divide(P("2*x^2 + 3*x + 1"), P("2*x + 1")), P("x + 1")),
            "rational quotient": (exact_divide(P("x^2 + x"), P("2*x + 2")), P("1/2*x")),
        }
        for name, (p, expected) in cases.items():
            assert p == expected, name
            assert_stored_coefficients(p)

    def test_flows_and_primitive_parts(self):
        # x -> 0, y -> x, z -> y: exp(t delta)(z) = z + t y + t^2 x / 2
        xyz = varset("x", "y", "z")
        d = linear_derivation([[0, 0, 0], [1, 0, 0], [0, 1, 0]], xyz)
        cert = nilpotency_test(d)
        for t, z_image in [
            (Fraction(1, 2), "z + 1/2*y + 1/8*x"),
            (2, "z + 2*y + 2*x"),
            (Fraction(4, 2), "z + 2*y + 2*x"),
        ]:
            flow = exp_flow(d, cert, t)
            assert flow["z"] == parse_polynomial(z_image, xyz), t
            for p in flow.values():
                assert_stored_coefficients(p)
        for p in exp_flow(d, cert).values():
            assert_stored_coefficients(p)
        for text, expected in [
            ("1/2*x - 3/4*y", "2*x - 3*y"),
            ("0 - 4*x + 6", "2*x - 3"),
            ("3/2*x^2 + 9/4", "2*x^2 + 3"),
            ("7", "1"),
        ]:
            p = _primitive(P(text))
            assert p == P(expected), text
            assert_stored_coefficients(p)


class TestErrorClasses:
    """The package's own bad-value errors are both polynomial-domain errors
    and ValueErrors, so either handler catches them."""

    @pytest.mark.parametrize(
        "error, make",
        [
            (InvalidVarSet, lambda: varset("x", "x")),
            (InvalidVarSet, lambda: varset("x", "")),
            (UnknownOrder, lambda: MonomialOrder("revlex").key((1, 0))),
            (NegativeExponent, lambda: Polynomial.monomial(XY, (-1, 0))),
            (NegativeExponent, lambda: P("x", XY) ** -1),
            (NegativeExponent, lambda: arith(P("x", XY), None, "pow", None)),
            (UnknownOperation, lambda: arith(P("x", XY), P("y", XY), "div")),
        ],
    )
    def test_raised_and_caught_as_value_error(self, error, make):
        assert issubclass(error, PolyError) and issubclass(error, ValueError)
        with pytest.raises(error):
            make()


WORDY = set("0123456789٣abcdefghijklmnopqrstuvwxyz_")
MUTATIONS = ("+", "-", "*", "^", "(", ")", "/", "0", "2", "x", "w", "#", "$", ".", "²", "٣", "é", "−", "·")


def random_expression(rng, names, depth=0) -> list[str]:
    """The tokens of a seeded sum of products: sign runs, n and n/d (zero
    denominators too), ^ chains, nested parentheses and an unknown name."""
    tokens = []
    for i in range(rng.randint(1, 3)):
        signs = rng.choice(["", "", "+", "-", "--", "-+-"])
        tokens += signs or (rng.choice("+-") if i else "")
        for j in range(rng.randint(1, 3)):
            if j:
                tokens.append("*")
            r = rng.random()
            if r < 0.15 and depth < 2:
                tokens += ["(", *random_expression(rng, names, depth + 1), ")"]
                links = rng.choice([0, 0, 1])
            elif r < 0.45:
                tokens.append(str(rng.choice([0, 1, 2, 3, 5, 12, 360, 10**20])))
                if rng.random() < 0.3:
                    tokens += ["/", str(rng.choice([1, 2, 3, 4, 6, 0]))]
                links = rng.choice([0, 0, 0, 1, 2])
            else:
                tokens.append(rng.choice(names + ("w",)))
                links = rng.choice([0, 0, 0, 1, 2])
            for _ in range(links):
                tokens += ["^", str(rng.randint(0, 3))]
    return tokens


def random_text(rng, names) -> str:
    """A seeded expression, sometimes mutated by deleting, inserting or
    replacing a token, joined by random blanks (never merging two words)."""
    tokens = random_expression(rng, names)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        i = rng.randrange(len(tokens) + 1)
        kind = rng.randrange(3)
        if kind == 0 and i < len(tokens):
            del tokens[i]
        elif kind == 1 or i == len(tokens):
            tokens.insert(i, rng.choice(MUTATIONS))
        else:
            tokens[i] = rng.choice(MUTATIONS)
    text = rng.choice(["", " ", "\t"])
    for a, b in zip(tokens, tokens[1:] + [""]):
        text += a
        blank = rng.choice(["", "", " ", "  ", "\t", "\xa0"])
        if not blank and b and a[-1] in WORDY and b[0] in WORDY:
            blank = " "
        text += blank if b else rng.choice(["", "", " "])
    return text


def parse_outcome(parse, text, vs):
    """The terms with their coefficient types, or the error class and message."""
    try:
        p = parse(text, vs)
    except PolyError as exc:
        return type(exc), str(exc)
    assert p.varset == vs
    return {e: (c, type(c)) for e, c in p.terms.items()}


def with_position_fix(outcome, text):
    """The oracle's outcome, with a bad character reported at itself, not at
    the blanks in front of it."""
    if isinstance(outcome, dict) or not outcome[1].startswith("unexpected character "):
        return outcome, False
    char, _, pos = outcome[1].removeprefix("unexpected character ").rpartition(" at ")
    pos = int(pos)
    if not ast.literal_eval(char).isspace():
        return outcome, False
    text = text.replace("−", "-").replace("·", "*")
    pos += len(text[pos:]) - len(text[pos:].lstrip())
    return (ParseError, f"unexpected character {text[pos]!r} at {pos}"), True


class TestFoldingParser:
    VARSETS = (XYZT, XYZT, XYZT, varset("x"), varset(), varset("a_1", "x", "y"), varset("1", "x"))

    def test_matches_the_factor_by_factor_oracle(self):
        """On 20k seeded texts: the same terms with the same coefficient
        types, or the same error class and message, except that a bad
        character is named at its own position."""
        rng = random.Random(2201)
        fixed = parsed = 0
        messages = set()
        for _ in range(20000):
            vs = rng.choice(self.VARSETS)
            text = random_text(rng, vs.names or ("x",))
            want, moved = with_position_fix(parse_outcome(parse_oracle.parse_polynomial, text, vs), text)
            assert parse_outcome(parse_polynomial, text, vs) == want, (text, vs)
            fixed += moved
            if isinstance(want, dict):
                parsed += 1
            else:
                messages.add(want[1].split(" ")[0])
        # the sample reaches every error path, the position fix and plain parses
        assert messages == {"unexpected", "trailing", "exponent", "missing", "bad", "unknown"}
        assert fixed > 1000 and parsed > 4000

    def test_bad_character_is_named_at_its_position(self):
        with pytest.raises(ParseError, match=r"^unexpected character '#' at 6$"):
            P("x + 3 #")
        with pytest.raises(ParseError, match=r"^unexpected character '\$' at 1$"):
            P("x$")

    @pytest.mark.parametrize("text", [3, None, ["x"], b"x"])
    def test_non_string_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="must be a string"):
            parse_polynomial(text, XYZT)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x^2^3", "x^6"),
            ("2^2^3", "64"),
            ("3/2^2", "9/4"),
            ("(x+1)^2^2", "(x+1)^4"),
            ("0^0*x", "x"),
            ("2*x*3/4*y - 3/2*y*x", "0"),
            ("x*(y+1)*2*(y-1)^0", "2*x*y + 2*x"),
            ("1/2*x + 1/2*x", "x"),
        ],
    )
    def test_folded_products(self, text, expected):
        p = P(text)
        assert p == parse_oracle.parse_polynomial(expected, XYZT)
        assert_stored_coefficients(p)
