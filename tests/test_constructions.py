"""Construction factories: modifications, covers, named families, morphisms."""

import random
from fractions import Fraction
from math import comb

import pytest

from exoticaffine.constructions import (
    Hypersurface,
    InvalidParams,
    NonzeroConstantTerm,
    TorusWeights,
    VariableNameCollision,
    affine_modification_equations,
    cyclic_cover_equations,
    family,
    hyperbolic_identity_check,
    hyperbolic_modification,
    koras_russell_weights,
    morphism_into_variety_check,
    quasi_invariance_check,
    russell_morphism_images,
    singular_locus_system,
)
from exoticaffine.polyring import (
    MissingImage,
    Polynomial,
    parse_polynomial,
    varset,
)

X = varset("x")
XY = varset("x", "y")
XYZ = varset("x", "y", "z")
XYZT = varset("x", "y", "z", "t")


def random_h(vs, rng, max_deg=5):
    """Random polynomial with zero constant term."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        while True:
            e = tuple(rng.randint(0, max_deg) for _ in vs)
            if sum(e) > 0 and sum(e) <= max_deg:
                break
        c = Fraction(rng.randint(-5, 5))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial.from_terms(vs, terms)


class TestHyperbolicModification:
    def test_russell_seed(self):
        h = parse_polynomial("x + x^2", X)
        q = hyperbolic_modification(h)
        assert q == parse_polynomial("x + u*x^2", varset("x", "u"))

    def test_plane_curve(self):
        h = parse_polynomial("x^2 - y^3", XY)
        q = hyperbolic_modification(h)
        assert q == parse_polynomial("u*x^2 - u^2*y^3", varset("x", "y", "u"))

    def test_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            hyperbolic_modification(parse_polynomial("x + 1", X))

    def test_identities_on_examples(self):
        assert hyperbolic_identity_check(parse_polynomial("x + x^2", X))
        assert hyperbolic_identity_check(parse_polynomial("x^2 - y^3", XY))

    def test_identities_random_property(self):
        rng = random.Random(71)
        for _ in range(25):
            nvars = rng.randint(1, 3)
            vs = varset(*["x", "y", "z"][:nvars])
            h = random_h(vs, rng)
            if h.is_zero():
                continue
            assert hyperbolic_identity_check(h)


class TestAffineModification:
    def test_russell_as_modification(self):
        zt = varset("x", "z", "t")
        f = parse_polynomial("0 - x^2", zt)
        b1 = parse_polynomial("x + z^2 + t^3", zt)
        system = affine_modification_equations(f, [b1])
        assert len(system.equations) == 1
        eq = system.equations[0]
        expected = parse_polynomial("x + x^2*y + z^2 + t^3", varset("x", "z", "t", "y"))
        assert eq == expected
        assert system.provenance["regular_system"] == "unchecked hypothesis"

    def test_matches_koras_russell_family(self):
        zt = varset("x", "z", "t")
        f = parse_polynomial("0 - x^2", zt)
        b1 = parse_polynomial("x + z^2 + t^3", zt)
        eq = affine_modification_equations(f, [b1]).equations[0]
        kr = family("koras_russell", s1=1, s2=2, s3=3)
        assert eq.rename_into(XYZT) == kr.defining

    def test_simple_template(self):
        f = parse_polynomial("x", XY)
        b = parse_polynomial("y", XY)
        system = affine_modification_equations(f, [b], y_stem="w")
        vs = system.ambient
        assert system.equations[0] == parse_polynomial("x*w - y", vs)

    def test_two_generators(self):
        vs = varset("u", "v", "w")
        f = parse_polynomial("u^2", vs)
        b1 = parse_polynomial("u*v + w", vs)
        b2 = parse_polynomial("w", vs)
        system = affine_modification_equations(f, [b1, b2])
        assert len(system.equations) == 2
        assert "y1" in system.ambient.names and "y2" in system.ambient.names


class TestCyclicCovers:
    def test_free_plane_double_cover(self):
        system = cyclic_cover_equations(XY, [(parse_polynomial("x", XY), 2)])
        assert len(system.equations) == 1
        vs = system.ambient
        assert system.equations[0] == parse_polynomial("z1^2 - x", vs)

    def test_tdp_cover_system(self):
        base = family("tdp", k=3, l=2)
        z = parse_polynomial("z", base.ambient)
        system = cyclic_cover_equations(base, [(z, 5)])
        assert len(system.equations) == 2
        # eliminating z via z = z1^5 recovers the generalized surface
        vs = system.ambient
        images = {n: Polynomial.variable(vs, n) for n in vs.names}
        images["z"] = Polynomial.variable(vs, "z1") ** 5
        lifted = system.equations[0].substitute(images)
        general = family("tdp_general", k=3, l=2, s=5, m=5)
        z1_to_z = {
            "z1": parse_polynomial("z", XYZ),
            "x": parse_polynomial("x", XYZ),
            "y": parse_polynomial("y", XYZ),
        }
        assert lifted.substitute(z1_to_z) == general.defining

    def test_multicyclic_russell_route(self):
        # covers of C^3 along z and z + x + x^2 y; eliminating recovers
        # x + x^2 y + z^{s1} + t^{s2} up to the recorded sign conventions
        c3 = XYZ
        f = parse_polynomial("z", c3)
        g = parse_polynomial("z + x + x^2*y", c3)
        system = cyclic_cover_equations(c3, [(f, 2, "zc"), (g, 3, "tc")])
        vs = system.ambient
        images = {n: Polynomial.variable(vs, n) for n in vs.names}
        images["z"] = Polynomial.variable(vs, "zc") ** 2
        eliminated = system.equations[1].substitute(images)
        # tc^3 = zc^2 + x + x^2 y, the plus-form threefold after sign flips
        expected = parse_polynomial("tc^3 - zc^2 - x - x^2*y", vs)
        assert eliminated == -expected or eliminated == expected

    def test_forced_name_collision(self):
        with pytest.raises(VariableNameCollision):
            cyclic_cover_equations(XY, [(parse_polynomial("x", XY), 2, "y")])


class TestFamilies:
    def test_tdp_32_expansion(self):
        surf = family("tdp", k=3, l=2)
        expected = parse_polynomial(
            "x^3*z^2 + 3*x^2*z - y^2*z + 3*x - 2*y - 1", XYZ
        )
        assert surf.defining == expected

    def test_tdp_multiply_back(self):
        # z * p + z == (xz+1)^k - (yz+1)^l, via an independent binomial oracle
        for k, l in [(3, 2), (5, 2), (5, 3)]:
            surf = family("tdp", k=k, l=l)
            z = parse_polynomial("z", XYZ)
            lhs = z * surf.defining + z
            xz, yz = parse_polynomial("x*z", XYZ), parse_polynomial("y*z", XYZ)
            rhs = Polynomial.zero(XYZ)
            for i in range(k + 1):
                rhs = rhs + xz**i * comb(k, i)
            for i in range(l + 1):
                rhs = rhs - yz**i * comb(l, i)
            assert lhs == rhs

    def test_tdp_general_expansion(self):
        # ((x z^m + 1)^k - (y z^m + 1)^l - z^s) / z^m expanded for small data
        surf = family("tdp_general", k=2, l=2, s=3, m=1)
        xyz = varset("x", "y", "z")
        z = parse_polynomial("z", xyz)
        lhs = z * surf.defining
        rhs = (
            parse_polynomial("(x*z+1)^2", xyz)
            - parse_polynomial("(y*z+1)^2", xyz)
            - parse_polynomial("z^3", xyz)
        )
        assert lhs == rhs

    def test_tdp_parameter_warning(self):
        surf = family("tdp", k=4, l=2)
        assert "warnings" in surf.provenance

    def test_koras_russell_is_russell_cubic(self):
        kr = family("koras_russell", s1=1, s2=2, s3=3)
        assert kr.defining == parse_polynomial("x + x^2*y + z^2 + t^3", XYZT)

    def test_danielewski(self):
        d = family("danielewski", n=1)
        assert d.defining == parse_polynomial("x*y + z^2 - 1", XYZ)

    def test_brieskorn(self):
        b = family("brieskorn", k=2, l=3, s=5)
        assert b.defining == parse_polynomial("x^2 - y^3 - z^5", XYZ)

    def test_ml_suspension(self):
        p = parse_polynomial("x^2 - y^3", XY)
        surf = family("ml_suspension", p=p)
        vs = surf.ambient
        assert surf.defining == parse_polynomial("u*v - x^2 + y^3", vs)

    def test_sathaye_wright(self):
        f = parse_polynomial("x", XY)
        g = parse_polynomial("y^2 - 1", XY)
        surf = family("sathaye_wright", f=f, g=g, n=2)
        vs = surf.ambient
        assert surf.defining == parse_polynomial("x*z^2 + y^2 - 1", vs)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            family("koras_russell", s1=0, s2=2, s3=3)
        with pytest.raises(InvalidParams):
            family("danielewski", n=0)
        with pytest.raises(InvalidParams):
            family("nonesuch")


class TestQuasiInvariance:
    def test_hyperbolic_weight_one(self):
        q = parse_polynomial("x + u*x^2", varset("x", "u"))
        assert quasi_invariance_check(q, TorusWeights({"x": 1, "u": -1})) == 1

    def test_russell_weights(self):
        p0 = parse_polynomial("x + x^2*y + z^2 + t^3", XYZT)
        w = TorusWeights({"x": 6, "y": -6, "z": 3, "t": 2})
        assert quasi_invariance_check(p0, w) == 6

    def test_mixed_weights_rejected(self):
        q = parse_polynomial("x + y", XY)
        assert quasi_invariance_check(q, TorusWeights({"x": 1, "y": 2})) is None

    def test_koras_russell_weight_family(self):
        rng = random.Random(73)
        for _ in range(10):
            s1, s2, s3 = (rng.randint(1, 4) for _ in range(3))
            kr = family("koras_russell", s1=s1, s2=s2, s3=s3)
            w = koras_russell_weights(s1, s2, s3)
            assert quasi_invariance_check(kr.defining, w) == s1 * s2 * s3


class TestMorphismCheck:
    def test_cuspidal_parametrization(self):
        zt = varset("z", "t")
        target = Hypersurface(zt, parse_polynomial("z^2 + t^3", zt))
        s = varset("s")
        images = {
            "z": parse_polynomial("s^3", s),
            "t": parse_polynomial("0 - s^2", s),
        }
        assert morphism_into_variety_check(target, images)

    def test_identity_into_hyperplane_fails(self):
        target = Hypersurface(X, parse_polynomial("x", X))
        assert not morphism_into_variety_check(target, {"x": parse_polynomial("x", X)})

    def test_russell_dominant_morphism(self):
        images = russell_morphism_images()
        target = family("koras_russell", s1=1, s2=2, s3=3)
        assert morphism_into_variety_check(target, images)

    def test_russell_images_match_paper_form(self):
        images = russell_morphism_images()
        uvw = varset("u", "v", "w")
        assert images["x"] == parse_polynomial("0 - u", uvw)
        assert images["z"] == parse_polynomial("u^2*v + 1", uvw)
        assert images["t"] == parse_polynomial("u^2*w + 1/3*u - 1", uvw)
        # the y image times u^2 equals u - z^2 - t^3 (division exactness)
        recon = images["y"] * parse_polynomial("u^2", uvw)
        assert recon == parse_polynomial("u", uvw) - images["z"] ** 2 - images["t"] ** 3

    def test_missing_image(self):
        target = family("danielewski", n=2)
        with pytest.raises(MissingImage):
            morphism_into_variety_check(target, {"x": parse_polynomial("x", XYZ)})


class TestSingularLocus:
    def test_circle(self):
        target = Hypersurface(XY, parse_polynomial("x^2 + y^2 - 1", XY))
        system = singular_locus_system(target)
        assert [str(p) for p in system.equations] == ["x^2 + y^2 - 1", "2*x", "2*y"]

    def test_brieskorn(self):
        system = singular_locus_system(family("brieskorn", k=2, l=3, s=5))
        assert [str(p) for p in system.equations] == [
            "-z^5 - y^3 + x^2",
            "2*x",
            "-3*y^2",
            "-5*z^4",
        ]

    def test_danielewski(self):
        system = singular_locus_system(family("danielewski", n=2))
        assert [str(p) for p in system.equations] == [
            "x^2*y + z^2 - 1",
            "2*x*y",
            "x^2",
            "2*z",
        ]
