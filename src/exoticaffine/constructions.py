"""Factories for the polynomial families behind exotic affine structures.

Hyperbolic and affine modifications, cyclic and multicyclic covering
equations, the named hypersurface families, quasi-invariance of torus
weights, and exact morphism-into-variety checks.  Every factory records its
provenance (construction name, parameters, sign conventions, warnings) so
output polynomials stay auditable.

Sign conventions fixed here: covers emit z_i^{s_i} - q_i; Brieskorn surfaces
use x^k - y^l - z^s; the Koras-Russell family uses the plus form
x + x^2 y^{s1} + z^{s2} + t^{s3}.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd

from .polyring import (
    GRLEX,
    MissingImage,
    Polynomial,
    PolyError,
    VarSet,
    exact_divide,
    parse_polynomial,
    varset,
)


class ConstructionError(PolyError):
    pass


class NonzeroConstantTerm(ConstructionError):
    pass


class InvalidParams(ConstructionError):
    pass


class DivisibilityFailure(ConstructionError):
    """The internal exact division of a family failed; signals a bug."""


class VariableNameCollision(ConstructionError):
    pass


class Hypersurface:
    __slots__ = ("ambient", "defining", "provenance")

    def __init__(self, ambient: VarSet, defining: Polynomial, provenance: dict | None = None):
        self.ambient = ambient
        self.defining = defining
        self.provenance = {} if provenance is None else provenance
        if defining.is_zero():
            raise ConstructionError("defining polynomial must be nonzero")


class VarietySystem:
    __slots__ = ("ambient", "equations", "provenance")

    def __init__(
        self, ambient: VarSet, equations: tuple[Polynomial, ...], provenance: dict | None = None
    ):
        self.ambient = ambient
        self.equations = equations
        self.provenance = {} if provenance is None else provenance
        if not equations:
            raise ConstructionError("a variety system needs at least one equation")


class TorusWeights:
    __slots__ = ("weights",)

    def __init__(self, weights: dict[str, int]):
        self.weights = weights


def _sign_normalize(p: Polynomial) -> Polynomial:
    """Flip the sign so the graded-lex leading coefficient is positive."""
    if p.is_zero():
        return p
    if p.leading_coefficient(GRLEX) < 0:
        return -p
    return p


# ---------------------------------------------------------------------------
# modifications


def hyperbolic_modification(h: Polynomial, u_name: str = "u") -> Polynomial:
    """q(x, u) = h(u x) / u, the hyperbolic modification of h (needs h(0)=0)."""
    if h.constant_term() != 0:
        raise NonzeroConstantTerm("hyperbolic modification needs h(0) = 0")
    name = h.varset.fresh_name(u_name)
    ext = h.varset.extend([name])
    u = Polynomial.variable(ext, name)
    images = {v: Polynomial.variable(ext, v) * u for v in h.varset.names}
    scaled = h.substitute(images)
    return exact_divide(scaled, u)


def hyperbolic_identity_check(h: Polynomial, u_name: str = "u") -> bool:
    """Verify the two differential identities of the hyperbolic modification
    and its quasi-invariance of weight 1 under (x, u) -> (lam x, lam^-1 u):

      u dq/du + q = sum_i x_i dh/dx_i (u x),   dq/dx_i = dh/dx_i (u x).
    """
    q = hyperbolic_modification(h, u_name)
    ext = q.varset
    name = ext.names[-1]
    u = Polynomial.variable(ext, name)
    images = {v: Polynomial.variable(ext, v) * u for v in h.varset.names}
    rhs = Polynomial.zero(ext)
    for v in h.varset.names:
        rhs = rhs + Polynomial.variable(ext, v) * h.partial(v).substitute(images)
    if u * q.partial(name) + q != rhs:
        return False
    for v in h.varset.names:
        if q.partial(v) != h.partial(v).substitute(images):
            return False
    w = {v: 1 for v in h.varset.names}
    w[name] = -1
    return quasi_invariance_check(q, TorusWeights(w)) == 1


def affine_modification_equations(
    f: Polynomial, bs: Sequence[Polynomial], y_stem: str = "y"
) -> VarietySystem:
    """Davis equations f(x) y_j = b_j(x) for a generator system b_0=f, b_1..b_s.

    Regularity of the generator system is not verified; the provenance
    records it as an unchecked hypothesis.
    """
    if f.is_zero():
        raise ConstructionError("f must be nonzero")
    names = []
    vs = f.varset
    for j in range(1, len(bs) + 1):
        name = vs.fresh_name(f"{y_stem}{j}" if len(bs) > 1 else y_stem)
        vs = vs.extend([name])
        names.append(name)
    equations = []
    for name, b in zip(names, bs):
        eq = f.rename_into(vs) * Polynomial.variable(vs, name) - b.rename_into(vs)
        equations.append(_sign_normalize(eq))
    return VarietySystem(
        vs,
        tuple(equations),
        {
            "construction": "affine_modification",
            "regular_system": "unchecked hypothesis",
            "sign": "normalized to positive graded-lex leading coefficient",
        },
    )


def cyclic_cover_equations(
    base: Hypersurface | VarietySystem | VarSet,
    covers: Sequence[tuple],
) -> VarietySystem:
    """Adjoin z_i^{s_i} - q_i over the base; cover variables are fresh.

    covers entries are (q, s) or (q, s, name); auto names are z1, z2, ...
    suffixed past collisions.  A user-forced name colliding with an existing
    variable raises VariableNameCollision.
    """
    if isinstance(base, VarSet):
        ambient = base
        base_eqs: tuple[Polynomial, ...] = ()
    elif isinstance(base, Hypersurface):
        ambient = base.ambient
        base_eqs = (base.defining,)
    else:
        ambient = base.ambient
        base_eqs = base.equations
    vs = ambient
    names = []
    for idx, cover in enumerate(covers, start=1):
        if len(cover) == 3:
            name = cover[2]
            if name in vs:
                raise VariableNameCollision(f"cover variable {name!r} already in use")
        else:
            name = vs.fresh_name(f"z{idx}")
        vs = vs.extend([name])
        names.append(name)
    equations = [eq.rename_into(vs) for eq in base_eqs]
    for cover, name in zip(covers, names):
        q, s = cover[0], cover[1]
        if s < 1:
            raise InvalidParams("branching order must be a positive integer")
        if q.varset != ambient:
            q = q.rename_into(ambient)
        equations.append(Polynomial.variable(vs, name) ** s - q.rename_into(vs))
    return VarietySystem(
        vs,
        tuple(equations),
        {
            "construction": "cyclic_cover",
            "orders": [c[1] for c in covers],
            "sign": "covers use z^s - q",
        },
    )


# ---------------------------------------------------------------------------
# named families


def _tdp_core(k: int, l: int, s: int, m: int) -> Polynomial:
    vs = varset("x", "y", "z")
    x, y, z = (Polynomial.variable(vs, n) for n in "xyz")
    one = Polynomial.constant(vs, 1)
    numerator = (x * z**m + one) ** k - (y * z**m + one) ** l - z**s
    try:
        return exact_divide(numerator, z**m)
    except PolyError as exc:
        raise DivisibilityFailure(f"tom Dieck-Petrie division failed: {exc}") from exc


def _params(key: str, params: dict, *names: str) -> list:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise InvalidParams(f"{key} needs {', '.join(missing)}")
    return [params[n] for n in names]


def family(name: str, **params) -> Hypersurface:
    """Construct a named hypersurface family member.

    Families: tdp(k,l), tdp_general(k,l,s,m), koras_russell(s1,s2,s3),
    brieskorn(k,l,s), danielewski(n), ml_suspension(p), sathaye_wright(f,g,n).
    """
    key = name.lower().replace("-", "_")
    prov: dict = {"family": key, "params": dict(params)}
    if key == "tdp":
        k, l = _params(key, params, "k", "l")
        if k < 1 or l < 1:
            raise InvalidParams("tdp needs k, l >= 1")
        warnings = []
        if not (k > l >= 2):
            warnings.append("parameters outside k > l >= 2")
        if gcd(k, l) != 1:
            warnings.append("k and l are not coprime")
        if warnings:
            prov["warnings"] = warnings
        prov["normalization"] = "emits ((xz+1)^k - (yz+1)^l - z)/z = 0, the p - 1 shift"
        return Hypersurface(varset("x", "y", "z"), _tdp_core(k, l, 1, 1), prov)
    if key == "tdp_general":
        k, l, s, m = _params(key, params, "k", "l", "s", "m")
        if min(k, l, s) < 1 or m < 0 or m > s:
            raise InvalidParams("tdp_general needs k,l,s >= 1 and 0 <= m <= s")
        return Hypersurface(varset("x", "y", "z"), _tdp_core(k, l, s, m), prov)
    if key == "koras_russell":
        s1, s2, s3 = _params(key, params, "s1", "s2", "s3")
        if min(s1, s2, s3) < 1:
            raise InvalidParams("koras_russell needs positive exponents")
        vs = varset("x", "y", "z", "t")
        x, y, z, t = (Polynomial.variable(vs, n) for n in "xyzt")
        p = x + x**2 * y**s1 + z**s2 + t**s3
        prov["sign"] = "plus form x + x^2 y^s1 + z^s2 + t^s3"
        return Hypersurface(vs, p, prov)
    if key == "brieskorn":
        k, l, s = _params(key, params, "k", "l", "s")
        if min(k, l, s) < 1:
            raise InvalidParams("brieskorn needs positive exponents")
        vs = varset("x", "y", "z")
        x, y, z = (Polynomial.variable(vs, n) for n in "xyz")
        prov["sign"] = "x^k - y^l - z^s"
        return Hypersurface(vs, x**k - y**l - z**s, prov)
    if key == "danielewski":
        (n,) = _params(key, params, "n")
        if n < 1:
            raise InvalidParams("danielewski needs n >= 1")
        vs = varset("x", "y", "z")
        x, y, z = (Polynomial.variable(vs, nm) for nm in "xyz")
        return Hypersurface(vs, x**n * y + z**2 - Polynomial.constant(vs, 1), prov)
    if key == "ml_suspension":
        (p,) = _params(key, params, "p")
        vs = p.varset
        u = vs.fresh_name("u")
        vs = vs.extend([u])
        v = vs.fresh_name("v")
        vs = vs.extend([v])
        eq = Polynomial.variable(vs, u) * Polynomial.variable(vs, v) - p.rename_into(vs)
        prov["sign"] = "uv - p"
        return Hypersurface(vs, eq, prov)
    if key == "sathaye_wright":
        f, g, n = _params(key, params, "f", "g", "n")
        if n < 1:
            raise InvalidParams("sathaye_wright needs n >= 1")
        base = f.varset
        zn = base.fresh_name("z")
        vs = base.extend([zn])
        eq = f.rename_into(vs) * Polynomial.variable(vs, zn) ** n + g.rename_into(vs)
        return Hypersurface(vs, eq, prov)
    raise InvalidParams(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# torus weights and morphisms


def quasi_invariance_check(q: Polynomial, w: TorusWeights) -> int | None:
    """The weight d with q(lam^w x) = lam^d q, or None.

    Per-monomial bookkeeping: every monomial must carry the same weighted
    exponent sum.  The zero polynomial returns None (every weight fits)."""
    if q.is_zero():
        return None
    weights = []
    for e in q.terms:
        total = 0
        for i, ei in enumerate(e):
            if ei:
                name = q.varset.names[i]
                if name not in w.weights:
                    return None
                total += ei * w.weights[name]
        weights.append(total)
    return weights[0] if len(set(weights)) == 1 else None


def morphism_into_variety_check(
    target: Hypersurface, images: Mapping[str, Polynomial]
) -> bool:
    """True iff substituting the images into the defining equation gives 0."""
    used = target.defining.variables_used()
    missing = sorted(used - set(images))
    if missing:
        raise MissingImage(f"no image for variable(s) {missing}")
    return target.defining.substitute(images).is_zero()


def russell_morphism_images() -> dict[str, Polynomial]:
    """The explicit dominant morphism C^3 -> Russell cubic:

    x = -u, z = u^2 v + 1, t = u^2 w + u/3 - 1, and y the exact quotient
    (u - z(u,v,w)^2 - t(u,v,w)^3) / u^2 (the division is verified exact).
    """
    vs = varset("u", "v", "w")
    u = Polynomial.variable(vs, "u")
    z = parse_polynomial("u^2*v + 1", vs)
    t = parse_polynomial("u^2*w", vs) + u.scale(Fraction(1, 3)) - Polynomial.constant(vs, 1)
    numerator = u - z**2 - t**3
    y = exact_divide(numerator, u * u)
    return {"x": -u, "y": y, "z": z, "t": t}


def singular_locus_system(x: Hypersurface) -> VarietySystem:
    """Critical-point system: the defining equation plus all its partials.

    No solving is attempted; downstream consumers decide what to do with it.
    """
    eqs = [x.defining] + [x.defining.partial(v) for v in x.ambient.names]
    return VarietySystem(
        x.ambient,
        tuple(eqs),
        {"construction": "singular_locus", "source": x.provenance},
    )


def koras_russell_weights(s1: int, s2: int, s3: int) -> TorusWeights:
    """Hyperbolic torus weights (s1 s2 s3, -s2 s3, s1 s3, s1 s2) on x,y,z,t."""
    return TorusWeights(
        {"x": s1 * s2 * s3, "y": -s2 * s3, "z": s1 * s3, "t": s1 * s2}
    )
