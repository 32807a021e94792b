"""Locally nilpotent derivation calculus on C[x..] and on the Russell quotient."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from exoticaffine import derivations, grading
from exoticaffine.derivations import (
    Derivation,
    InvariantCandidates,
    NotCertifiedNilpotent,
    NotWellDefinedOnQuotient,
    apply,
    compose_flows,
    exp_flow,
    graded_derivation,
    invariant_candidates,
    jacobian_derivation,
    kernel_elements,
    linear_derivation,
    make_derivation,
    nilpotency_test,
    partial_degree,
)
from exoticaffine.grading import (
    NEG_INF,
    QuotientRing,
    RUSSELL_WEIGHTS,
    graded_component_membership,
    quotient_degree,
    russell_graded,
    russell_quotient,
)
from exoticaffine.linalg import reduce_columns_mod
from exoticaffine.polyring import (
    DimensionMismatch,
    Polynomial,
    VarSetMismatch,
    jacobian_det,
    parse_polynomial,
    varset,
)
from gfp_oracle import nullspace_q
from test_polyring import random_poly

VS = varset("x", "y", "z", "t")
W = RUSSELL_WEIGHTS
XYZ = varset("x", "y", "z")
XY = varset("x", "y")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def delta1():
    q = russell_quotient()
    return make_derivation(
        q,
        {
            "x": Polynomial.zero(VS),
            "y": P("0 - 2*z"),
            "z": P("x^2"),
            "t": Polynomial.zero(VS),
        },
    )


def delta2():
    q = russell_quotient()
    return make_derivation(
        q,
        {
            "x": Polynomial.zero(VS),
            "y": P("0 - 3*t^2"),
            "z": Polynomial.zero(VS),
            "t": P("x^2"),
        },
    )


def nagata():
    # x -> z*Delta, y -> 2x*Delta, z -> 0 with Delta = x^2 - y*z
    delta = parse_polynomial("x^2 - y*z", XYZ)
    return make_derivation(
        XYZ,
        {
            "x": parse_polynomial("z", XYZ) * delta,
            "y": parse_polynomial("2*x", XYZ) * delta,
            "z": Polynomial.zero(XYZ),
        },
    )


class TestMakeDerivation:
    def test_delta1_well_defined_leibniz_oracle(self):
        # oracle: expand delta(p0) by summing partial * image explicitly
        d = delta1()
        p0 = P("x + x^2*y + z^2 + t^3")
        total = Polynomial.zero(VS)
        for name in VS.names:
            total = total + p0.partial(name) * d.images[name]
        assert total.is_zero()

    def test_invalid_images_rejected_with_residue(self):
        q = russell_quotient()
        with pytest.raises(NotWellDefinedOnQuotient) as exc:
            make_derivation(
                q,
                {
                    "x": Polynomial.constant(VS, 1),
                    "y": Polynomial.zero(VS),
                    "z": Polynomial.zero(VS),
                    "t": Polynomial.zero(VS),
                },
            )
        assert exc.value.residue == P("1 + 2*x*y")

    def test_free_ring_always_valid(self):
        d = make_derivation(XY, {"x": parse_polynomial("y^5", XY), "y": parse_polynomial("x", XY)})
        assert isinstance(d, Derivation)


class TestLinearDerivation:
    def test_nilpotent_jordan_block(self):
        d = linear_derivation([[0, 1], [0, 0]], XY)
        assert d.images["x"] == parse_polynomial("y", XY)
        assert d.images["y"].is_zero()
        cert = nilpotency_test(d)
        assert cert.nilpotent and cert.orders == {"x": 1, "y": 0}

    def test_euler_not_nilpotent(self):
        d = linear_derivation([[1, 0], [0, 1]], XY)
        cert = nilpotency_test(d)
        assert cert.verdict == "Disproved"
        assert cert.witness == "x"

    @pytest.mark.parametrize("c", [2, -3, Fraction(1, 3), Fraction(-5, 2)])
    def test_disproof_names_the_exact_ratio(self, c):
        # x -> c x: delta(x) is c times x, an exact rational, never a float
        d = linear_derivation([[c, 0], [0, 0]], XY)
        cert = nilpotency_test(d)
        assert cert.verdict == "Disproved" and cert.witness == "x"
        assert cert.evidence == f"delta^1(x) = {c} * delta^0(x)"

    def test_zero_matrix(self):
        d = linear_derivation([[0, 0], [0, 0]], XY)
        assert all(img.is_zero() for img in d.images.values())


class TestJacobianDerivation:
    def test_single_partial(self):
        d = jacobian_derivation([parse_polynomial("x", XY)])
        assert d.images["x"].is_zero()
        assert d.images["y"] == Polynomial.constant(XY, 1)

    def test_cofactor_oracle_three_vars(self):
        fs = [parse_polynomial("x", XYZ), parse_polynomial("x^2 - y*z", XYZ)]
        d = jacobian_derivation(fs)
        assert d.images["x"].is_zero()
        assert d.images["y"] == parse_polynomial("y", XYZ)
        assert d.images["z"] == parse_polynomial("0 - z", XYZ)

    def test_plane_curve_convention(self):
        # fixed sign convention: rows are grad f, grad g in that order
        d = jacobian_derivation([parse_polynomial("x^2 - y^3", XY)])
        assert d.images["x"] == parse_polynomial("3*y^2", XY)
        assert d.images["y"] == parse_polynomial("2*x", XY)

    def test_kernel_contains_the_data(self):
        fs = [parse_polynomial("x", XYZ), parse_polynomial("x^2 - y*z", XYZ)]
        d = jacobian_derivation(fs)
        for f in fs:
            assert apply(d, f).is_zero()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_images_are_determinants_with_a_unit_row(self, n):
        # delta(x_i) is the determinant of the gradients of the f and of x_i
        rng = random.Random(f"jacobian derivation {n}")
        vs = varset(*(f"x{i}" for i in range(n)))
        for _ in range(3):
            fs = [random_poly(vs, rng, 3, 2) for _ in range(n - 1)]
            d = jacobian_derivation(fs)
            for name in vs.names:
                assert d.images[name] == jacobian_det(fs + [Polynomial.variable(vs, name)])

    def test_refusals_keep_class_and_message(self):
        with pytest.raises(DimensionMismatch, match="^need n-1 polynomials$"):
            jacobian_derivation([])
        with pytest.raises(DimensionMismatch, match="^need 2 polynomials in 3 variables, got 1$"):
            jacobian_derivation([P("x", XYZ)])
        with pytest.raises(VarSetMismatch, match="^jacobian entries use different varsets$"):
            jacobian_derivation([P("x", XYZ), P("y", varset("x", "y", "w"))])


class TestApply:
    def test_nagata_kills_delta(self):
        d = nagata()
        assert apply(d, parse_polynomial("x^2 - y*z", XYZ)).is_zero()

    def test_partial_on_unrelated_variable(self):
        d = jacobian_derivation([parse_polynomial("x", XY)])
        assert apply(d, parse_polynomial("x", XY)).is_zero()

    def test_delta1_on_y(self):
        assert apply(delta1(), P("y")) == P("0 - 2*z")

    def test_leibniz_property(self):
        rng = random.Random(61)
        d = delta1()
        for _ in range(10):
            f = P("x") * rng.randint(1, 3) + P("z^2") * rng.randint(0, 2)
            g = P("y") * rng.randint(1, 2) + P("t")
            assert apply(d, f * g) == d.reduce(apply(d, f) * g + f * apply(d, g))


class TestNilpotency:
    def test_exercise_913(self):
        d = make_derivation(XY, {"x": Polynomial.zero(XY), "y": parse_polynomial("x^2", XY)})
        cert = nilpotency_test(d)
        assert cert.orders == {"x": 0, "y": 1}

    def test_delta1_orders(self):
        cert = nilpotency_test(delta1())
        assert cert.orders == {"x": 0, "t": 0, "z": 1, "y": 2}

    def test_delta2_orders(self):
        cert = nilpotency_test(delta2())
        assert cert.orders == {"x": 0, "z": 0, "t": 1, "y": 3}

    def test_inconclusive_on_expanding_orbit(self):
        d = make_derivation(XY, {"x": parse_polynomial("x^2", XY), "y": Polynomial.zero(XY)})
        cert = nilpotency_test(d, bound=12)
        assert cert.verdict == "Inconclusive" and cert.bound == 12

    def test_negative_bound_certifies_nothing(self):
        # with bound < 0 no iterate is examined, so no orbit is known to die
        lin = make_derivation(XY, {"x": parse_polynomial("x", XY), "y": Polynomial.zero(XY)})
        zero = make_derivation(XY, {n: Polynomial.zero(XY) for n in XY.names})
        for d in (lin, zero):
            cert = nilpotency_test(d, bound=-1)
            assert cert.verdict == "Inconclusive" and cert.bound == -1


class TestPartialDegree:
    def test_exercise_913_degrees(self):
        d = make_derivation(XY, {"x": Polynomial.zero(XY), "y": parse_polynomial("x^2", XY)})
        cert = nilpotency_test(d)
        assert partial_degree(d, cert, parse_polynomial("y", XY)) == 1
        assert partial_degree(d, cert, parse_polynomial("x", XY)) == 0

    def test_zero(self):
        d = delta1()
        cert = nilpotency_test(d)
        assert partial_degree(d, cert, Polynomial.zero(VS)) == NEG_INF

    def test_delta1_y_degree(self):
        d = delta1()
        cert = nilpotency_test(d)
        assert partial_degree(d, cert, P("y")) == 2

    def test_additivity_and_max_rule(self):
        d = delta1()
        cert = nilpotency_test(d)
        samples = [P("y"), P("z + t"), P("x*y"), P("y^2"), P("z^2 - t")]
        for f in samples:
            for g in samples:
                df = partial_degree(d, cert, f)
                dg = partial_degree(d, cert, g)
                assert partial_degree(d, cert, d.reduce(f * g)) == df + dg
                s = d.reduce(f + g)
                if not s.is_zero():
                    assert partial_degree(d, cert, s) <= max(df, dg)

    def test_requires_certificate(self):
        d = linear_derivation([[1, 0], [0, 1]], XY)
        cert = nilpotency_test(d)
        with pytest.raises(NotCertifiedNilpotent):
            partial_degree(d, cert, parse_polynomial("x", XY))


class TestExpFlow:
    def test_orbit_bounded_by_certificate(self):
        # the zero derivation's certificate (every order 0) does not describe
        # x -> x: both the degree and the flow refuse instead of running on
        zero = make_derivation(XY, {n: Polynomial.zero(XY) for n in XY.names})
        lin = make_derivation(XY, {"x": parse_polynomial("x", XY), "y": Polynomial.zero(XY)})
        cert = nilpotency_test(zero)
        assert cert.orders == {"x": 0, "y": 0}
        message = "orbit exceeded the certified bound; certificate inconsistent"
        with pytest.raises(derivations.DerivationError, match=message):
            partial_degree(lin, cert, parse_polynomial("x", XY))
        with pytest.raises(derivations.DerivationError, match=message):
            exp_flow(lin, cert, 1)
        with pytest.raises(derivations.DerivationError, match=message):
            exp_flow(lin, cert, "t")

    def test_nagata_triple_at_one(self):
        d = nagata()
        cert = nilpotency_test(d)
        flow = exp_flow(d, cert, Fraction(1))
        delta = parse_polynomial("x^2 - y*z", XYZ)
        assert flow["x"] == parse_polynomial("x", XYZ) + parse_polynomial("z", XYZ) * delta
        assert flow["y"] == (
            parse_polynomial("y", XYZ)
            + parse_polynomial("2*x", XYZ) * delta
            + parse_polynomial("z", XYZ) * delta * delta
        )
        assert flow["z"] == parse_polynomial("z", XYZ)

    def test_zero_derivation_identity(self):
        d = make_derivation(XY, {"x": Polynomial.zero(XY), "y": Polynomial.zero(XY)})
        cert = nilpotency_test(d)
        flow = exp_flow(d, cert, "t")
        ext = flow["x"].varset
        assert flow["x"] == Polynomial.variable(ext, "x")
        assert flow["y"] == Polynomial.variable(ext, "y")

    def test_exercise_913_flow(self):
        d = make_derivation(XY, {"x": Polynomial.zero(XY), "y": parse_polynomial("x^2", XY)})
        cert = nilpotency_test(d)
        flow = exp_flow(d, cert, "t")
        ext = flow["y"].varset
        assert flow["y"] == parse_polynomial("y + t*x^2", ext)

    def test_group_law_symbolic(self):
        d = nagata()
        cert = nilpotency_test(d)
        flow_s = exp_flow(d, cert, "s")
        flow_t = exp_flow(d, cert, "t")
        combined = XYZ.extend(["s", "t"])
        fs = {n: p.rename_into(combined) for n, p in flow_s.items()}
        ft = {n: p.rename_into(combined) for n, p in flow_t.items()}
        composed = compose_flows(fs, ft)
        # exp((s+t) delta): substitute the parameter of the t-flow by s+t
        st = parse_polynomial("s + t", combined)
        target = {}
        for name, img in ft.items():
            images = {v: Polynomial.variable(combined, v) for v in combined.names}
            images["t"] = st
            target[name] = img.substitute(images)
        assert composed == target

    def test_flow_is_algebra_map(self):
        d = nagata()
        cert = nilpotency_test(d)
        flow = exp_flow(d, cert, "t")
        ext = flow["x"].varset
        rng = random.Random(67)
        for _ in range(8):
            f = parse_polynomial("x", XYZ) * rng.randint(1, 3) + parse_polynomial(
                "y*z", XYZ
            ) * rng.randint(0, 2)
            g = parse_polynomial("z", XYZ) + parse_polynomial("x^2", XYZ) * rng.randint(0, 1)
            lhs = (f * g).substitute(flow)
            rhs = f.substitute(flow) * g.substitute(flow)
            assert lhs == rhs

    def test_flow_at_zero_is_identity(self):
        d = nagata()
        cert = nilpotency_test(d)
        flow = exp_flow(d, cert, Fraction(0))
        for name in XYZ.names:
            assert flow[name] == Polynomial.variable(XYZ, name)

    def test_parameter_name_collision_gets_fresh_name(self):
        d = delta1()
        cert = nilpotency_test(d)
        flow = exp_flow(d, cert, "t")  # ring already has a variable t
        ext = flow["y"].varset
        assert len(ext.names) == 5 and ext.names[-1] == "t1"


class TestGradedDerivation:
    def test_delta1_shift_and_images(self):
        d = delta1()
        gd = graded_derivation(d, W)
        assert gd.shift == -2
        assert gd.images["x"].is_zero()
        assert gd.images["y"] == P("0 - 2*z")
        assert gd.images["z"] == P("x^2")
        assert gd.images["t"].is_zero()
        assert gd.apply(P("x^2*y + z^2 + t^3")).is_zero()

    def test_zero_derivation_convention(self):
        q = russell_quotient()
        d = make_derivation(q, {n: Polynomial.zero(VS) for n in VS.names})
        gd = graded_derivation(d, W)
        assert gd.shift == 0
        assert all(img.is_zero() for img in gd.images.values())

    def test_homogeneity_on_graded_pieces(self):
        d = delta1()
        gd = graded_derivation(d, W)
        g = russell_graded()
        samples = {
            -1: P("x"),
            0: P("z^2 + t"),
            2: P("y*z"),
            3: P("x*y^2*t"),
            4: P("y^2"),
        }
        for i, fhat in samples.items():
            assert graded_component_membership(fhat, g, i)
            image = gd.apply(fhat)
            if not image.is_zero():
                assert graded_component_membership(image, g, i + gd.shift)


    def test_weight_checked_once_and_images_reduced_once(self, monkeypatch):
        appropriate, canonical = [], []
        real_check = grading.check_appropriate
        real_canonical = QuotientRing.canonical
        monkeypatch.setattr(
            grading, "check_appropriate", lambda *a: appropriate.append(a) or real_check(*a)
        )
        monkeypatch.setattr(
            QuotientRing, "canonical", lambda q, f: canonical.append(f) or real_canonical(q, f)
        )
        d = delta1()
        canonical.clear()
        gd = graded_derivation(d, W)
        assert gd.shift == -2
        assert len(appropriate) == 1
        # one canonical form per generator and one per nonzero image
        nonzero = [img for img in d.images.values() if not img.is_zero()]
        assert len(canonical) == len(VS.names) + len(nonzero)

    def test_unstable_image_degree_refused(self):
        # on C[x,y,z]/(xy + z^2 + x^3), weights (1,3,2), the derivation
        # (xy + z^2) * (x -> 0, y -> 2z, z -> -x) sends y to 2xyz + 2z^3, its
        # own canonical form, which lies in the graded ideal (xy + z^2)
        from exoticaffine.grading import DegreeNotStable, WeightFunction
        from exoticaffine.polyring import GRLEX

        relation = parse_polynomial("x*y + z^2 + x^3", XYZ)
        q = QuotientRing(XYZ, relation, GRLEX)
        top = parse_polynomial("x*y + z^2", XYZ)
        d = make_derivation(
            q,
            {
                "x": Polynomial.zero(XYZ),
                "y": top * parse_polynomial("2*z", XYZ),
                "z": top * parse_polynomial("0 - x", XYZ),
            },
        )
        with pytest.raises(DegreeNotStable):
            graded_derivation(d, WeightFunction(XYZ, (1, 3, 2)))


class TestKernels:
    def test_partial_y_kernel(self):
        d = make_derivation(XY, {"x": Polynomial.zero(XY), "y": parse_polynomial("x^2", XY)})
        cert = nilpotency_test(d)
        basis = kernel_elements(d, cert, 2)
        assert len(basis) == 3
        assert {str(p) for p in basis} == {"1", "x", "x^2"}

    def test_delta1_kernel_degree_one(self):
        d = delta1()
        cert = nilpotency_test(d)
        basis = kernel_elements(d, cert, 1)
        used = set()
        for p in basis:
            used |= p.variables_used()
        assert "x" in used and "t" in used
        assert "y" not in used and "z" not in used

    def test_delta2_kernel_degree_one(self):
        d = delta2()
        cert = nilpotency_test(d)
        basis = kernel_elements(d, cert, 1)
        used = set()
        for p in basis:
            used |= p.variables_used()
        assert "x" in used and "z" in used

    def test_kernel_product_rule(self):
        d = delta1()
        cert = nilpotency_test(d)
        basis = kernel_elements(d, cert, 2)
        for f in basis:
            for g in basis:
                prod = d.reduce(f * g)
                assert apply(d, prod).is_zero()

    def test_kernel_product_converse_on_family(self):
        # whenever delta(fg) = 0 with fg != 0, both factors are in the kernel
        d = delta1()
        samples = [P("x"), P("t"), P("x*t"), P("y"), P("z"), P("x + t^2")]
        for f in samples:
            for g in samples:
                prod = d.reduce(f * g)
                if prod.is_zero():
                    continue
                if apply(d, prod).is_zero():
                    assert apply(d, f).is_zero() and apply(d, g).is_zero()

    def test_derksen_conclusion_kernels_in_f0(self):
        # Every truncated kernel element has quotient degree <= 0
        q = russell_quotient()
        for d in (delta1(), delta2()):
            cert = nilpotency_test(d)
            for p in kernel_elements(d, cert, 3):
                deg = quotient_degree(p, q, W)
                assert deg == NEG_INF or deg <= 0


class TestInvariantCandidates:
    def test_russell_bound_two(self):
        d1, d2 = delta1(), delta2()
        certs = [nilpotency_test(d1), nilpotency_test(d2)]
        result = invariant_candidates([d1, d2], certs, 2)
        assert isinstance(result, InvariantCandidates)
        assert {str(p) for p in result.ml_basis} == {"1", "x", "x^2"}
        dk_used = set()
        for p in result.dk_generators:
            dk_used |= p.variables_used()
        assert {"x", "z", "t"} <= dk_used
        assert "y" not in dk_used
        assert "upper bound" in result.ml_semantics
        assert "lower bound" in result.dk_semantics

    def test_plane_translations(self):
        dx = make_derivation(XY, {"x": Polynomial.constant(XY, 1), "y": Polynomial.zero(XY)})
        dy = make_derivation(XY, {"x": Polynomial.zero(XY), "y": Polynomial.constant(XY, 1)})
        certs = [nilpotency_test(dx), nilpotency_test(dy)]
        result = invariant_candidates([dx, dy], certs, 2)
        assert [str(p) for p in result.ml_basis] == ["1"]

    def test_single_derivation_is_kernel(self):
        d = delta1()
        cert = nilpotency_test(d)
        result = invariant_candidates([d], [cert], 2)
        assert {str(p) for p in result.ml_basis} == {
            str(p) for p in kernel_elements(d, cert, 2)
        }


# ---------------------------------------------------------------------------
# kernels against the dense route: image rows on the monomials, Gauss-Jordan
# over Fractions, every kernel vector made primitive


def dense_image_rows(d, monos):
    """The matrix of d on the monomials, one dense row per image monomial,
    with Fraction entries whatever type the polynomials store: the dense
    elimination divides, and an int over an int is a float."""
    images = [apply(d, Polynomial.monomial(d.ambient, e)) for e in monos]
    out = sorted({e for img in images for e in img.terms})
    rows = [[Fraction(0)] * len(monos) for _ in out]
    for j, img in enumerate(images):
        for e, c in img.terms.items():
            assert not isinstance(c, float), img
            rows[out.index(e)][j] = Fraction(c)
    return rows


def dense_kernel(rows, monos, vs):
    polys = []
    for v in nullspace_q(rows, len(monos)):
        assert not any(isinstance(x, float) for x in v), v
        p = Polynomial.from_terms(vs, {e: Fraction(x) for e, x in zip(monos, v)})
        p = p.scale(lcm(*(c.denominator for c in p.terms.values())))
        p = p.scale(Fraction(1, gcd(*(c.numerator for c in p.terms.values()))))
        polys.append(-p if p.terms[max(p.terms)] < 0 else p)
    return sorted(polys, key=lambda p: sorted(p.terms))


def dense_invariants(ds, bound):
    monos = derivations._canonical_monomials(ds[0], bound)
    vs = ds[0].ambient
    ml = dense_kernel([row for d in ds for row in dense_image_rows(d, monos)], monos, vs)
    dk = []
    for d in ds:
        for p in dense_kernel(dense_image_rows(d, monos), monos, vs):
            if p not in dk:
                dk.append(p)
    return ml, dk


def random_triangular(rng, vs=XYZ, order=None):
    """The first variable of `order` (vs's own order by default) -> 0 and
    each later one to a random polynomial in the ones before it (x, y, z on
    C[x, y, z]): locally nilpotent."""
    names = order or vs.names

    def poly(names, degree):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * len(vs)
            for _ in range(rng.randint(0, degree)):
                e[vs.index(rng.choice(names))] += 1
            terms[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        return Polynomial.from_terms(vs, terms)

    images = {names[0]: Polynomial.zero(vs)}
    for i in range(1, len(vs)):
        images[names[i]] = poly(names[:i], 2)
    return make_derivation(vs, images)


class TestKernelsAgainstDenseRoute:
    """kernel_elements and invariant_candidates give, element for element and
    in the same order, what dense Gauss-Jordan on the image rows gives."""

    def check(self, ds, bound):
        certs = [nilpotency_test(d) for d in ds]
        ml, dk = dense_invariants(ds, bound)
        result = invariant_candidates(ds, certs, bound)
        assert result.ml_basis == ml
        assert result.dk_generators == dk
        for d, cert in zip(ds, certs):
            monos = derivations._canonical_monomials(d, bound)
            expect = dense_kernel(dense_image_rows(d, monos), monos, d.ambient)
            assert kernel_elements(d, cert, bound) == expect

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_russell_deltas(self, bound):
        self.check([delta1()], bound)
        self.check([delta2()], bound)
        self.check([delta1(), delta2()], bound)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_nagata(self, bound):
        self.check([nagata()], bound)

    def test_seeded_triangular(self):
        rng = random.Random(2013)
        for _ in range(12):
            d1, d2 = random_triangular(rng), random_triangular(rng)
            bound = rng.randint(1, 4)
            self.check([d1], bound)
            self.check([d1, d2], bound)
            self.check([d1, nagata()], bound)

    def test_one_certificate_per_derivation(self):
        d = delta1()
        with pytest.raises(derivations.DerivationError):
            invariant_candidates([d, delta2()], [nilpotency_test(d)], 2)


def stacked_ml_basis(ds, bound):
    """The ML basis by one reduction of the stacked image columns of all the
    derivations, row (k, e) the e-coefficient of the k-th: the oracle of the
    successive kernels."""
    monos = derivations._canonical_monomials(ds[0], bound)
    columns = [derivations._image_columns(d, monos) for d in ds]
    stacked = [
        {(k, e): c for k, cols in enumerate(columns) for e, c in cols[j].items()}
        for j in range(len(monos))
    ]
    reduced, combos, _ = reduce_columns_mod(stacked, None, track=True)
    vectors = [combo for col, combo in zip(reduced, combos) if not col]
    return derivations._polynomials(vectors, monos, ds[0].ambient)


class TestSuccessiveKernels:
    """invariant_candidates cuts the first kernel down by one derivation at a
    time; one stacked reduction and the kernels one by one are the oracle."""

    def check(self, ds, bound):
        certs = [nilpotency_test(d) for d in ds]
        result = invariant_candidates(ds, certs, bound)
        assert result.ml_basis == stacked_ml_basis(ds, bound)
        dk = []
        for d, cert in zip(ds, certs):
            dk += [p for p in kernel_elements(d, cert, bound) if p not in dk]
        assert result.dk_generators == dk

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_russell_deltas(self, bound):
        self.check([delta1(), delta2()], bound)
        self.check([delta2(), delta1()], bound)

    def test_seeded_triangular_families(self):
        rng = random.Random(2024)
        for _ in range(60):
            vs = rng.choice((XYZ, VS))
            ds = []
            for _ in range(rng.randint(2, 3)):
                order = list(vs.names)
                rng.shuffle(order)
                ds.append(random_triangular(rng, vs, order))
            self.check(ds, rng.randint(1, 3))

    def test_one_reduction_per_kernel_then_kernel_sized_ones(self, monkeypatch):
        """k reductions of all image columns, then k - 1 of at most
        dim-kernel columns; one derivation makes one reduction."""
        rng = random.Random(2025)
        d1, d2, d3 = (random_triangular(rng) for _ in range(3))
        bound = 3
        monos = derivations._canonical_monomials(d1, bound)
        dims = [len(stacked_ml_basis(ds, bound)) for ds in ([d1], [d1, d2])]
        certs = [nilpotency_test(d) for d in (d1, d2, d3)]
        counts = []

        def counting(cols, p, track=False):
            counts.append(len(cols))
            return reduce_columns_mod(cols, p, track)

        monkeypatch.setattr(derivations, "reduce_columns_mod", counting)
        invariant_candidates([d1, d2, d3], certs, bound)
        assert counts == [len(monos)] * 3 + dims
        assert dims[0] < len(monos)
        counts.clear()
        russell = [delta1(), delta2()]
        invariant_candidates(russell, [nilpotency_test(d) for d in russell], bound)
        assert len(counts) == 3 and counts[0] == counts[1] > counts[2]
        for run in (lambda: invariant_candidates([d1], certs[:1], bound),
                    lambda: kernel_elements(d1, certs[0], bound)):
            counts.clear()
            run()
            assert counts == [len(monos)]


# ---------------------------------------------------------------------------
# image columns by the Leibniz rule against apply on each monomial


def leibniz_cases():
    rng = random.Random(2014)
    cases = [("delta1", delta1()), ("delta2", delta2()), ("nagata", nagata())]
    cases += [(f"C3 triangular {n}", random_triangular(rng)) for n in range(6)]
    cases += [(f"C4 triangular {n}", random_triangular(rng, VS)) for n in range(6)]
    return cases


class TestImageColumns:
    """_image_columns builds column x_i m from the column of m by the
    Leibniz rule; apply on each monomial is the oracle."""

    @pytest.mark.parametrize("bound", range(6))
    def test_columns_equal_apply_per_monomial(self, bound):
        for name, d in leibniz_cases():
            monos = derivations._canonical_monomials(d, bound)
            expect = [apply(d, Polynomial.monomial(d.ambient, e)).terms for e in monos]
            assert derivations._image_columns(d, monos) == expect, (name, bound)
            if bound == 0:
                assert expect == [{}]

    def test_image_columns_never_call_apply(self, monkeypatch):
        calls = []
        original = derivations.apply

        def counting(d, f):
            calls.append(f)
            return original(d, f)

        cases = leibniz_cases()
        certs = [nilpotency_test(d) for _, d in cases]
        monkeypatch.setattr(derivations, "apply", counting)
        for _, d in cases:
            derivations._image_columns(d, derivations._canonical_monomials(d, 3))
        assert calls == []
        # kernel_elements re-checks each kernel element by apply, once
        for (name, d), cert in zip(cases, certs):
            calls.clear()
            basis = kernel_elements(d, cert, 3)
            assert calls == basis, name

    def test_one_canonical_reduction_per_column(self, monkeypatch):
        calls = []
        original = QuotientRing.canonical

        def counting(self, f):
            calls.append(f)
            return original(self, f)

        for d in (delta1(), delta2()):
            monos = derivations._canonical_monomials(d, 4)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(QuotientRing, "canonical", counting)
                derivations._image_columns(d, monos)
            assert len(calls) == len(monos)
