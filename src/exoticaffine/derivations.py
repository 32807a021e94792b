"""Derivation calculus on polynomial rings and principal-relation quotients.

A derivation is stored by its generator images and extended by the Leibniz
rule.  Nilpotency is decided on generators up to a bound and recorded in a
tri-state certificate; everything downstream (degree functions, exponential
flows, graded derivations, truncated kernels and invariant candidates) insists
on a certificate rather than assuming local nilpotency.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .grading import (
    NEG_INF,
    GradedHypersurface,
    QuotientRing,
    WeightFunction,
    associated_graded_hypersurface,
    quasi_homogeneous_decompose,
    stable_degree,
)
from .polyring import (
    DimensionMismatch,
    Polynomial,
    PolyError,
    VarSet,
    VarSetMismatch,
    jacobian_matrix,
    maximal_minors,
)
from .linalg import apply_columns_mod, coefficient, exact_quotient, reduce_columns_mod

DEFAULT_NILPOTENCY_BOUND = 64


class DerivationError(PolyError):
    pass


class NotWellDefinedOnQuotient(DerivationError):
    def __init__(self, residue: Polynomial):
        super().__init__(f"derivation does not kill the relation; residue {residue}")
        self.residue = residue


class NotCertifiedNilpotent(DerivationError):
    pass


class GradedNotWellDefined(DerivationError):
    def __init__(self, residue: Polynomial):
        super().__init__(f"graded derivation does not kill the graded relation; residue {residue}")
        self.residue = residue


class Derivation:
    """Generator images of a derivation on C[vars] or on a quotient ring."""

    __slots__ = ("ring", "images")

    def __init__(self, ring: VarSet | QuotientRing, images: dict[str, Polynomial]):
        self.ring = ring
        self.images = images

    @property
    def ambient(self) -> VarSet:
        return self.ring if isinstance(self.ring, VarSet) else self.ring.ambient

    @property
    def on_quotient(self) -> bool:
        return isinstance(self.ring, QuotientRing)

    def reduce(self, f: Polynomial) -> Polynomial:
        if self.on_quotient:
            return self.ring.canonical(f)
        return f


class NilpotencyCertificate:
    """verdict: NilpotentOnGenerators | Inconclusive | Disproved."""

    __slots__ = ("verdict", "orders", "bound", "witness", "evidence")

    def __init__(
        self,
        verdict: str,
        orders: dict[str, int] | None = None,
        bound: int | None = None,
        witness: str | None = None,
        evidence: str | None = None,
    ):
        self.verdict = verdict
        self.orders = orders
        self.bound = bound
        self.witness = witness
        self.evidence = evidence

    @property
    def nilpotent(self) -> bool:
        return self.verdict == "NilpotentOnGenerators"


def make_derivation(ring: VarSet | QuotientRing, images: Mapping[str, Polynomial]) -> Derivation:
    """Validate coverage of the generators and, on quotients, well-definedness."""
    ambient = ring if isinstance(ring, VarSet) else ring.ambient
    missing = [n for n in ambient.names if n not in images]
    if missing:
        raise DerivationError(f"images missing for generators {missing}")
    imgs = {}
    for name in ambient.names:
        img = images[name]
        if img.varset != ambient:
            raise VarSetMismatch(f"image of {name} lives in the wrong ring")
        imgs[name] = img
    if isinstance(ring, QuotientRing):
        residue = ring.canonical(_leibniz(ambient, imgs, ring.relation))
        if not residue.is_zero():
            raise NotWellDefinedOnQuotient(residue)
        imgs = {n: ring.canonical(p) for n, p in imgs.items()}
    return Derivation(ring, imgs)


def _leibniz(vs: VarSet, images: Mapping[str, Polynomial], f: Polynomial) -> Polynomial:
    """The Leibniz extension of the generator images to f: the sum over
    the generators x of (df/dx) * images[x], without reduction."""
    out = Polynomial.zero(vs)
    for name in vs.names:
        img = images[name]
        if img.is_zero():
            continue
        pf = f.partial(name)
        if not pf.is_zero():
            out = out + pf * img
    return out


def apply(d: Derivation, f: Polynomial) -> Polynomial:
    """Leibniz extension of the generator images; canonical form on quotients."""
    if f.varset != d.ambient:
        raise VarSetMismatch("polynomial lives in a different ring than the derivation")
    return d.reduce(_leibniz(d.ambient, d.images, d.reduce(f)))


def linear_derivation(matrix: Sequence[Sequence], vs: VarSet) -> Derivation:
    """x_i -> (B x)_i for a square rational matrix B."""
    n = len(vs)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"need a {n}x{n} matrix for variables {vs.names}")
    images = {}
    for i, name in enumerate(vs.names):
        img = Polynomial.zero(vs)
        for j, other in enumerate(vs.names):
            c = coefficient(matrix[i][j])
            if c:
                img = img + Polynomial.variable(vs, other).scale(c)
        images[name] = img
    return make_derivation(vs, images)


def jacobian_derivation(fs: Sequence[Polynomial]) -> Derivation:
    """delta(g) = det of the gradients of f_1..f_{n-1}, g, in that row order:
    delta(x_i) = (-1)^(n+i) times the Jacobian minor of the f without column i."""
    if not fs:
        raise DimensionMismatch("need n-1 polynomials")
    vs = fs[0].varset
    n = len(vs)
    if len(fs) != n - 1:
        raise DimensionMismatch(f"need {n - 1} polynomials in {n} variables, got {len(fs)}")
    minors = maximal_minors(jacobian_matrix(fs))
    images = {
        name: minors.get((1 << n) - 1 - (1 << i), Polynomial.zero(vs)).scale((-1) ** (n - 1 - i))
        for i, name in enumerate(vs.names)
    }
    return make_derivation(vs, images)


def nilpotency_test(d: Derivation, bound: int = DEFAULT_NILPOTENCY_BOUND) -> NilpotencyCertificate:
    """Iterate each generator orbit up to the bound.

    NilpotentOnGenerators with exact orders when every orbit dies; Disproved
    when some iterate is a nonzero scalar multiple of an earlier one (the
    orbit then provably never dies); Inconclusive otherwise.
    """
    orders: dict[str, int] = {}
    for name in d.ambient.names:
        seq = [d.reduce(Polynomial.variable(d.ambient, name))]
        for k in range(1, bound + 2):
            nxt = apply(d, seq[-1])
            if nxt.is_zero():
                order = k - 1
                break
            prop = _proportional_to_earlier(nxt, seq)
            if prop is not None:
                i, c = prop
                return NilpotencyCertificate(
                    "Disproved",
                    witness=name,
                    evidence=f"delta^{k}({name}) = {c} * delta^{i}({name})",
                )
            seq.append(nxt)
        else:  # no iterate within the bound died (none is checked if bound < 0)
            return NilpotencyCertificate("Inconclusive", bound=bound)
        orders[name] = order
    return NilpotencyCertificate("NilpotentOnGenerators", orders=orders)


def _proportional_to_earlier(p: Polynomial, seq: list[Polynomial]):
    for i, q in enumerate(seq):
        if q.is_zero() or len(q.terms) != len(p.terms):
            continue
        try:
            e0 = next(iter(p.terms))
        except StopIteration:
            continue
        if e0 not in q.terms:
            continue
        c = exact_quotient(p.terms[e0], q.terms[e0])
        if q.scale(c) == p:
            return i, c
    return None


def _require_nilpotent(cert: NilpotencyCertificate):
    if not cert.nilpotent:
        raise NotCertifiedNilpotent(f"certificate verdict is {cert.verdict}")


def _orbit(d: Derivation, cert: NilpotencyCertificate, f: Polynomial) -> list[Polynomial]:
    """f, delta f, delta^2 f, ... up to the last nonzero iterate (reduced).

    deg_delta of a monomial is bounded by the weighted exponent sum of the
    certified orders (for a generator v, by cert.orders[v]); an orbit that
    outruns that bound means the certificate does not describe d.
    """
    g = d.reduce(f)
    if g.is_zero():
        return []
    names = d.ambient.names
    limit = max(sum(k * cert.orders[names[i]] for i, k in enumerate(e)) for e in g.terms)
    orbit = [g]
    while True:
        nxt = apply(d, orbit[-1])
        if nxt.is_zero():
            return orbit
        orbit.append(nxt)
        if len(orbit) > limit + 2:
            raise DerivationError(
                "orbit exceeded the certified bound; certificate inconsistent"
            )


def partial_degree(d: Derivation, cert: NilpotencyCertificate, f: Polynomial):
    """deg_delta(f): the n with delta^{n+1} f = 0, delta^n f != 0; -inf at 0."""
    _require_nilpotent(cert)
    orbit = _orbit(d, cert, f)
    return len(orbit) - 1 if orbit else NEG_INF


def exp_flow(
    d: Derivation,
    cert: NilpotencyCertificate,
    t: str | int | Fraction = "t",
) -> dict[str, Polynomial]:
    """exp(t*delta) on generators: finite sums sum_i t^i delta^i(v) / i!.

    With a string t the result lives in the ring extended by that (fresh)
    parameter; with a rational t it stays in the ambient ring.
    """
    _require_nilpotent(cert)
    ambient = d.ambient
    symbolic = isinstance(t, str)
    if symbolic:
        pname = ambient.fresh_name(t)
        target = ambient.extend([pname])
        tpoly = Polynomial.variable(target, pname)
    else:
        target = ambient
        tpoly = Polynomial.constant(target, t)
    flow: dict[str, Polynomial] = {}
    for name in ambient.names:
        acc = Polynomial.zero(target)
        tpow = Polynomial.constant(target, 1)  # t^i / i!
        for i, term in enumerate(_orbit(d, cert, Polynomial.variable(ambient, name))):
            if i:
                tpow = tpow * tpoly.scale(Fraction(1, i))
            acc = acc + term.rename_into(target) * tpow
        flow[name] = acc
    return flow


def compose_flows(
    first: Mapping[str, Polynomial], second: Mapping[str, Polynomial]
) -> dict[str, Polynomial]:
    """Substitution composite: v -> second-images applied inside first(v)."""
    out = {}
    for name, img in first.items():
        images = dict(second)
        for extra in img.variables_used() - set(images):
            images[extra] = Polynomial.variable(next(iter(second.values())).varset, extra)
        out[name] = img.substitute(images)
    return out


class GradedDerivation:
    """Homogeneous part of a filtered derivation on the graded hypersurface."""

    __slots__ = ("graded", "images", "shift")

    def __init__(self, graded: GradedHypersurface, images: dict[str, Polynomial], shift: int):
        self.graded = graded
        self.images = images
        self.shift = shift  # k0 = deg of the derivation

    def apply(self, fhat: Polynomial) -> Polynomial:
        return self.graded.canonical(_leibniz(self.graded.ambient, self.images, fhat))


def graded_derivation(
    d: Derivation, w: WeightFunction
) -> GradedDerivation:
    """Associated graded derivation and its degree shift k0.

    k0 = max over generators of deg(delta v) - deg(v); each graded image is
    the degree-(deg v + k0) component of the canonical form of delta v.  The
    result is validated to annihilate the graded relation.
    """
    if not isinstance(d.ring, QuotientRing):
        raise DerivationError("graded derivations are computed on quotient rings here")
    q: QuotientRing = d.ring
    graded = associated_graded_hypersurface(q.relation, w, q.order)
    names = d.ambient.names
    top = graded.relation_top
    degs = {
        name: stable_degree(q.canonical(Polynomial.variable(d.ambient, name)), top, w)
        for name in names
    }
    canonical = {
        name: q.canonical(d.images[name]) for name in names if not d.images[name].is_zero()
    }
    shifts = [stable_degree(nf, top, w) - degs[name] for name, nf in canonical.items()]
    k0 = max(shifts) if shifts else 0
    images = {}
    for name in names:
        if name not in canonical:
            images[name] = Polynomial.zero(d.ambient)
            continue
        comps, _ = quasi_homogeneous_decompose(canonical[name], w)
        images[name] = comps.get(degs[name] + k0, Polynomial.zero(d.ambient))
    gd = GradedDerivation(graded, images, int(k0))
    residue = gd.apply(graded.relation_top)
    if not residue.is_zero():
        raise GradedNotWellDefined(residue)
    return gd


def _canonical_monomials(d: Derivation, degree_bound: int) -> list[tuple[int, ...]]:
    """Monomials of total degree <= bound; on quotients only canonical ones."""
    names = d.ambient.names
    n = len(names)
    lm = None
    if d.on_quotient:
        lm = d.ring.relation.leading_monomial(d.ring.order)
    monos: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == n:
            e = tuple(prefix)
            if lm is None or not all(a >= b for a, b in zip(e, lm)):
                monos.append(e)
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, pos + 1)

    rec([], degree_bound, 0)
    monos.sort()
    return monos


def _image_columns(d: Derivation, monos) -> list[dict]:
    """d on the monomials as sparse columns over Q: column j holds the terms
    of d(monos[j]), its rows keyed by exponent tuple.

    Built by the Leibniz rule d(x_i m) = d(x_i) m + x_i d(m) from the column
    of m, not by apply on each monomial.  The monomials are sorted, so m
    comes before x_i m; the truncation and (on the quotient) the canonical
    monomials, those the leading monomial does not divide, are closed under
    division, so m is among them.  Multiplying by a monomial shifts exponent
    keys.  On a quotient the sum is congruent to d(x_i m) modulo the
    relation, and one canonical reduction per column gives its normal form,
    which is what apply returns.
    """
    vs = d.ambient
    images = [d.images[name].terms for name in vs.names]
    # x_i is, among the variables of the monomial, the one whose image has
    # the fewest terms: d(x_i) m then costs the least
    by_size = sorted(range(len(vs)), key=lambda i: len(images[i]))
    index = {}
    cols = []
    for j, e in enumerate(monos):
        index[e] = j
        i = next((i for i in by_size if e[i]), None)
        if i is None:
            col = Polynomial.zero(vs)
        else:
            m = e[:i] + (e[i] - 1,) + e[i + 1 :]
            x = (0,) * i + (1,) + (0,) * (len(e) - i - 1)
            col = Polynomial(vs, _shifted(images[i], m)) + Polynomial(
                vs, _shifted(cols[index[m]], x)
            )
        cols.append(d.reduce(col).terms)
    return cols


def _shifted(terms: dict, e) -> dict:
    """The terms times the monomial with exponent e: each key shifted by e."""
    return {tuple(map(add, k, e)): c for k, c in terms.items()}


def _kernel_vectors(cols) -> list[dict]:
    """The reduced echelon Q-basis of the kernel of the columns: the tracked
    combination of each column that reduces to zero, in column order."""
    reduced, combos, _ = reduce_columns_mod(cols, None, track=True)
    return [combo for col, combo in zip(reduced, combos) if not col]


def _polynomials(vectors, monos, vs) -> list[Polynomial]:
    """Kernel vectors on the monomials as polynomials, scaled to primitive
    integer coefficients with a positive leading term.  Sorted by terms."""
    polys = [
        _primitive(Polynomial.from_terms(vs, {monos[j]: c for j, c in vec.items()}))
        for vec in vectors
    ]
    return sorted(polys, key=lambda p: sorted(p.terms))


def _primitive(p: Polynomial) -> Polynomial:
    """p scaled to primitive integer coefficients, positive leading term."""
    p = p.scale(lcm(*(c.denominator for c in p.terms.values())))
    g = gcd(*p.terms.values())
    if p.terms[max(p.terms)] < 0:
        g = -g
    return Polynomial(p.varset, {e: c // g for e, c in p.terms.items()})


def _checked(d: Derivation, polys: list[Polynomial]) -> list[Polynomial]:
    """Kernel elements of d, every one re-checked by apply."""
    if any(not apply(d, p).is_zero() for p in polys):
        raise DerivationError("kernel solve produced a non-kernel element")
    return polys


def kernel_elements(
    d: Derivation, cert: NilpotencyCertificate, degree_bound: int
) -> list[Polynomial]:
    """Q-basis of {f : total degree <= bound, delta f = 0}, echelon-reduced.

    Exact linear algebra on the truncated monomial space (canonical-form
    monomials on quotients); every output is re-checked by apply.
    """
    _require_nilpotent(cert)
    monos = _canonical_monomials(d, degree_bound)
    return _checked(d, _polynomials(_kernel_vectors(_image_columns(d, monos)), monos, d.ambient))


class InvariantCandidates:
    """One-sided truncations of the Makar-Limanov and Derksen invariants.

    ml_basis spans the intersection of the given truncated kernels: a
    SUPERSET certificate for the truncated ML invariant (more derivations
    could only shrink it).  dk_generators collects the union of kernel bases:
    a generating set for a SUBALGEBRA of the Derksen invariant (more
    derivations could only enlarge it).
    """

    __slots__ = ("ml_basis", "dk_generators", "degree_bound")
    ml_semantics = "upper bound: superset of the truncated ML invariant"
    dk_semantics = "lower bound: generators of a subalgebra of Dk"

    def __init__(self, ml_basis: list[Polynomial], dk_generators: list[Polynomial], degree_bound):
        self.ml_basis = ml_basis
        self.dk_generators = dk_generators
        self.degree_bound = degree_bound


def invariant_candidates(
    ds: Sequence[Derivation],
    certs: Sequence[NilpotencyCertificate],
    degree_bound: int,
) -> InvariantCandidates:
    if not ds:
        raise DerivationError("need at least one derivation")
    if len(certs) != len(ds):
        raise DerivationError("need one nilpotency certificate per derivation")
    for cert in certs:
        _require_nilpotent(cert)
    base = ds[0]
    for d in ds[1:]:
        if d.ambient != base.ambient or d.on_quotient != base.on_quotient:
            raise VarSetMismatch("derivations act on different rings")
    monos = _canonical_monomials(base, degree_bound)
    columns = [_image_columns(d, monos) for d in ds]
    kernels = [_kernel_vectors(cols) for cols in columns]
    dk: list[Polynomial] = []
    for d, vectors in zip(ds, kernels):
        dk += [p for p in _checked(d, _polynomials(vectors, monos, base.ambient)) if p not in dk]
    # ML, the intersection of the kernels: the zero columns among the next
    # derivation's images of the basis so far combine it into the next basis
    ml = kernels[0]
    for cols in columns[1:]:
        images = [apply_columns_mod(cols, vec, None) for vec in ml]
        ml = [apply_columns_mod(ml, combo, None) for combo in _kernel_vectors(images)]
    return InvariantCandidates(_polynomials(ml, monos, base.ambient), dk, degree_bound)
