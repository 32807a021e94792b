"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Every check is exact (rational or integer arithmetic); the time budgets are
asserted with a monotonic clock.  One PASS/FAIL line per criterion is printed
(visible with pytest -s or on failure).

Criterion 9 as first stated, "pairwise coprimality of (k,l,s) is equivalent
to triviality of the abelianization of G(k,l,s) = <g1,g2,g3 | g1^k = g2^l =
g3^s = g1 g2 g3>", is false.  The abelianization is presented by the matrix
[[k-1,-1,-1],[-1,l-1,-1],[-1,-1,s-1]] of determinant kls - kl - ks - ls, so
it is finite of order N = |kls - kl - ks - ls| when N != 0 and infinite
when N = 0 (on the tested grid only at (2,3,6), where it is Z).  The first
failure in the tested grid is (2,5,7), pairwise coprime with abelianization
Z/11.  The classical statement concerns the commutator subgroup [G,G], the
fundamental group of the Brieskorn link.
test_criterion_09_homology_sphere_equivalence_as_stated runs the stated
equivalence on the whole grid and asserts exactly where it fails; the other
clauses of criterion 9 live in test_criterion_09_groups.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd

from exoticaffine import constructions, derivations, dualgraph, fpgroups, grading
from exoticaffine.grading import NEG_INF
from exoticaffine.linalg import det
from exoticaffine.polyring import Polynomial, parse_polynomial, varset
from exoticaffine.smithhom import (
    cone_complex,
    ensure_regular,
    polygon,
    rotation_action,
    suspension_complex,
    transfer_check,
    verify_smith_sequences,
)

VS = grading.RUSSELL_VARS
W = grading.RUSSELL_WEIGHTS


def P(text, vs=VS):
    return parse_polynomial(text, vs)


@contextmanager
def criterion(number, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number:02d} ({name}): PASS [{elapsed:.2f}s]")


def _russell_derivations():
    q = grading.russell_quotient()
    zero = Polynomial.zero(VS)
    d1 = derivations.make_derivation(
        q, {"x": zero, "y": P("0-2*z"), "z": P("x^2"), "t": zero}
    )
    d2 = derivations.make_derivation(
        q, {"x": zero, "y": P("0-3*t^2"), "z": zero, "t": P("x^2")}
    )
    return q, d1, d2


def test_criterion_01_derksen_pipeline():
    with criterion(1, "Derksen pipeline", budget=1.0):
        g = grading.associated_graded_hypersurface(grading.RUSSELL_RELATION, W)
        assert g.relation_top == P("x^2*y + z^2 + t^3")
        assert g.status.certified
        q = grading.russell_quotient()
        a, b, c = grading.canonical_form_decomposition(P("x^2*y"), q)
        assert a == P("0 - x - z^2 - t^3") and b.is_zero() and c.is_zero()
        graded = grading.russell_graded()
        rng = random.Random(2024)
        for i in range(-3, 6):
            for _ in range(50):
                fhat = _sample_graded_element(rng, graded, i)
                assert grading.graded_component_membership(fhat, graded, i)
                if not graded.canonical(fhat).is_zero():
                    assert not grading.graded_component_membership(fhat, graded, i + 1)


def _sample_graded_element(rng, graded, i):
    """Random member of the degree-i graded piece via its prescribed shape."""
    vs = graded.ambient
    h = Polynomial.zero(vs)
    for _ in range(rng.randint(1, 3)):
        coeff = rng.randint(-3, 3)
        if coeff:
            h = h + Polynomial.monomial(
                vs, (0, 0, rng.randint(0, 2), rng.randint(0, 2)), coeff
            )
    if h.is_zero():
        h = Polynomial.constant(vs, 1)
    if i <= 0:
        lead = Polynomial.monomial(vs, (-i, 0, 0, 0))
    elif i % 2 == 0:
        lead = Polynomial.monomial(vs, (0, i // 2, 0, 0))
    else:
        lead = Polynomial.monomial(vs, (1, (i + 1) // 2, 0, 0))
    return graded.canonical(lead * h)


def test_criterion_02_lnd_instance_suite():
    with criterion(2, "LND instance suite", budget=5.0):
        q, d1, d2 = _russell_derivations()
        cert1 = derivations.nilpotency_test(d1)
        cert2 = derivations.nilpotency_test(d2)
        assert cert1.orders == {"x": 0, "t": 0, "z": 1, "y": 2}
        assert cert2.orders == {"x": 0, "z": 0, "t": 1, "y": 3}
        for d, cert in ((d1, cert1), (d2, cert2)):
            for p in derivations.kernel_elements(d, cert, 3):
                deg = grading.quotient_degree(p, q, W)
                assert deg == NEG_INF or deg <= 0
        result = derivations.invariant_candidates([d1, d2], [cert1, cert2], 2)
        assert {str(p) for p in result.ml_basis} == {"1", "x", "x^2"}
        dk_used = set()
        for p in result.dk_generators:
            dk_used |= p.variables_used()
        assert {"x", "z", "t"} <= dk_used and "y" not in dk_used


def test_criterion_03_nagata_flow():
    with criterion(3, "Nagata flow"):
        xyz = varset("x", "y", "z")
        delta = parse_polynomial("x^2 - y*z", xyz)
        d = derivations.make_derivation(
            xyz,
            {
                "x": parse_polynomial("z", xyz) * delta,
                "y": parse_polynomial("2*x", xyz) * delta,
                "z": Polynomial.zero(xyz),
            },
        )
        cert = derivations.nilpotency_test(d)
        flow = derivations.exp_flow(d, cert, Fraction(1))
        assert flow["x"] == parse_polynomial("x", xyz) + parse_polynomial("z", xyz) * delta
        assert flow["y"] == (
            parse_polynomial("y", xyz)
            + parse_polynomial("2*x", xyz) * delta
            + parse_polynomial("z", xyz) * delta * delta
        )
        assert flow["z"] == parse_polynomial("z", xyz)
        fs = derivations.exp_flow(d, cert, "s")
        ft = derivations.exp_flow(d, cert, "t")
        combined = xyz.extend(["s", "t"])
        fs = {n: p.rename_into(combined) for n, p in fs.items()}
        ft = {n: p.rename_into(combined) for n, p in ft.items()}
        composed = derivations.compose_flows(fs, ft)
        st = parse_polynomial("s + t", combined)
        for name, img in ft.items():
            images = {v: Polynomial.variable(combined, v) for v in combined.names}
            images["t"] = st
            assert composed[name] == img.substitute(images)


def test_criterion_04_hyperbolic_identities():
    with criterion(4, "hyperbolic identities"):
        rng = random.Random(4096)
        names = ("x", "y", "z")
        count = 0
        while count < 100:
            nvars = rng.randint(1, 3)
            vs = varset(*names[:nvars])
            terms = {}
            for _ in range(rng.randint(1, 5)):
                while True:
                    e = tuple(rng.randint(0, 5) for _ in range(nvars))
                    if 0 < sum(e) <= 5:
                        break
                coeff = Fraction(rng.randint(-5, 5))
                if coeff:
                    terms[e] = terms.get(e, Fraction(0)) + coeff
            h = Polynomial.from_terms(vs, terms)
            if h.is_zero():
                continue
            count += 1
            assert constructions.hyperbolic_identity_check(h)


def test_criterion_05_dominant_morphism():
    with criterion(5, "dominant morphism"):
        images = constructions.russell_morphism_images()
        uvw = varset("u", "v", "w")
        u = parse_polynomial("u", uvw)
        # the u^2 division is exact: y * u^2 == u - z^2 - t^3 on the nose
        assert images["y"] * (u * u) == u - images["z"] ** 2 - images["t"] ** 3
        target = constructions.family("koras_russell", s1=1, s2=2, s3=3)
        assert constructions.morphism_into_variety_check(target, images)


def test_criterion_06_dual_graphs():
    with criterion(6, "dual graphs"):
        for n in range(0, 11):
            g = dualgraph.chain_graph([-n, 0])
            assert dualgraph.ramanujam_verdict(g) == "IsomorphicToC2"
        assert dualgraph.ramanujam_verdict(dualgraph.graph({"v1": 1})) == "IsomorphicToC2"
        assert dualgraph.ramanujam_verdict(dualgraph.ramanujam_graph()) == "NotC2"
        rng = random.Random(666)
        for _ in range(500):
            n = rng.randint(1, 12)
            vertices = {f"v{i}": rng.randint(-5, 2) for i in range(n)}
            ids = list(vertices)
            edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
            g = dualgraph.graph(vertices, edges)
            det = abs(dualgraph.intersection_matrix(g).determinant)
            v = ids[rng.randrange(n)]
            outer = dualgraph.blow_up(g, v)
            assert dualgraph.contract(outer, g.fresh_id()) == g
            assert abs(dualgraph.intersection_matrix(outer).determinant) == det
            if edges:
                e = edges[rng.randrange(len(edges))]
                inner = dualgraph.blow_up(g, e)
                assert dualgraph.contract(inner, g.fresh_id()) == g
                assert abs(dualgraph.intersection_matrix(inner).determinant) == det
            for v in ids:
                if vertices[v] != -1 or g.valence(v) > 2:
                    continue
                nbrs = g.neighbors(v)
                if len(nbrs) == 2 and g.has_edge(nbrs[0], nbrs[1]):
                    continue
                contracted = dualgraph.contract(g, v)
                assert (
                    abs(dualgraph.intersection_matrix(contracted).determinant) == det
                )
                break


def test_criterion_07_xt_cross_check():
    with criterion(7, "X_T cross-check"):
        assert fpgroups.xt_exponent(dualgraph.xt_matrix(1, 1, 1, 1, 1, 1, 1, 1)) == 0
        rng = random.Random(777)
        for _ in range(200):
            entries = [rng.randint(0, 5) for _ in range(8)]
            t = dualgraph.xt_matrix(*entries)
            assert abs(fpgroups.xt_exponent(t)) == abs(det(t))


def test_criterion_08_tdp():
    with criterion(8, "tom Dieck-Petrie"):
        xyz = varset("x", "y", "z")
        z = parse_polynomial("z", xyz)
        xz = parse_polynomial("x*z", xyz)
        yz = parse_polynomial("y*z", xyz)
        for k in range(3, 10):
            for l in range(2, k):
                if gcd(k, l) != 1:
                    continue
                surface = constructions.family("tdp", k=k, l=l)
                lhs = z * surface.defining + z
                rhs = Polynomial.zero(xyz)
                for i in range(k + 1):
                    rhs = rhs + xz**i * comb(k, i)
                for i in range(l + 1):
                    rhs = rhs - yz**i * comb(l, i)
                assert lhs == rhs
        for m1 in range(1, 7):
            for n1 in range(1, 7):
                for m2 in range(1, 7):
                    for n2 in range(1, 7):
                        expected = (
                            abs(m1 * n2 + m2 * n1 - m1 * m2) == 1
                            and m1 > n1
                            and m2 > n2
                        )
                        assert dualgraph.tdp_contractibility(m1, n1, m2, n2) == expected


def test_criterion_09_groups():
    with criterion(9, "groups"):
        g235 = fpgroups.named_presentation("gkls", k=2, l=3, s=5)
        assert fpgroups.abelianization(g235).trivial
        b3 = fpgroups.Presentation(("s1", "s2"), ((1, 2, 1, -2, -1, -2),))
        ab = fpgroups.abelianization(b3)
        assert ab.free_rank == 1 and ab.torsion == ()
        assert fpgroups.triangle_classification(2, 3, 5) == "Finite"
        assert fpgroups.triangle_classification(2, 3, 6) == "Nilpotent"
        assert fpgroups.triangle_classification(2, 3, 7) == "ContainsF2"


def test_criterion_09_homology_sphere_equivalence_as_stated():
    """The stated equivalence on 2 <= k < l < s <= 9, and exactly where it fails.

    "homology_sphere_check agrees with triviality of the gkls abelianization"
    is false.  With N = |kls - kl - ks - ls| (the determinant of the relation
    matrix), the abelianization on this grid is Z iff N = 0 (only at (2,3,6),
    the one Nilpotent triangle) and is finite of order N otherwise.  The expected
    values below come from math.gcd and that formula, not from the package.
    Every disagreement is one-sided (coprime, abelianization nontrivial), and
    the disagreements are exactly the pairwise-coprime triples with N != 1:
    16 of them, the least being (2,5,7) with abelianization Z/11.  The
    classical equivalence concerns H1 of the commutator subgroup, which
    needs Reidemeister-Schreier rewriting that the package does not have.
    """
    with criterion(9, "groups: where sphere/abelianization equivalence fails"):
        triples = [
            (k, l, s)
            for k in range(2, 10)
            for l in range(k + 1, 10)
            for s in range(l + 1, 10)
        ]
        assert len(triples) == 56
        order = {(k, l, s): abs(k * l * s - k * l - k * s - l * s) for k, l, s in triples}
        coprime = [(k, l, s) for k, l, s in triples if gcd(k, l) == gcd(k, s) == gcd(l, s) == 1]
        disagreements = []
        trivial = []
        for k, l, s in triples:
            n = order[k, l, s]
            sphere = fpgroups.homology_sphere_check(k, l, s)
            ab = fpgroups.abelianization(fpgroups.named_presentation("gkls", k=k, l=l, s=s))
            assert sphere == ((k, l, s) in coprime), f"homology_sphere_check at ({k},{l},{s})"
            assert (fpgroups.triangle_classification(k, l, s) == "Nilpotent") == (n == 0)
            if n == 0:
                assert (ab.free_rank, ab.torsion) == (1, ()), f"({k},{l},{s}): {ab}"
            else:
                assert ab.free_rank == 0 and ab.order() == n, f"({k},{l},{s}): {ab}"
            if sphere != ab.trivial:
                assert sphere, f"({k},{l},{s}): trivial abelianization, not coprime"
                disagreements.append((k, l, s))
            if ab.trivial:
                trivial.append((k, l, s))
        assert [t for t in triples if order[t] == 0] == [(2, 3, 6)]
        assert disagreements == [t for t in coprime if order[t] != 1]
        assert len(disagreements) == 16 and disagreements[0] == (2, 5, 7)
        g257 = fpgroups.named_presentation("gkls", k=2, l=5, s=7)
        assert fpgroups.abelianization(g257).torsion == (11,)
        assert trivial == [t for t in coprime if order[t] == 1] == [(2, 3, 5), (2, 3, 7)]


def _smith_models():
    disc3 = (cone_complex(polygon(3), "apex"), rotation_action(3, 1, extra_fixed=("apex",)))
    sphere3 = (
        suspension_complex(polygon(3)),
        rotation_action(3, 1, extra_fixed=("north", "south")),
    )
    circle3 = (polygon(6), rotation_action(6, 2))
    disc5 = (cone_complex(polygon(5), "apex"), rotation_action(5, 1, extra_fixed=("apex",)))
    sphere5 = (
        suspension_complex(polygon(5)),
        rotation_action(5, 1, extra_fixed=("north", "south")),
    )
    circle5 = (polygon(10), rotation_action(10, 2))
    return [
        ("disc+Z3", disc3),
        ("sphere+Z3", sphere3),
        ("circle+free Z3", circle3),
        ("disc+Z5", disc5),
        ("sphere+Z5", sphere5),
        ("circle+free Z5", circle5),
    ]


def test_criterion_10_smith_theory():
    with criterion(10, "Smith theory", budget=10.0):
        reports = {}
        for name, (k, a) in _smith_models():
            report = verify_smith_sequences(k, a)
            assert report.all_exact, f"sequence not exact for {name}"
            assert report.special_matches_pair, f"H^sigma mismatch for {name}"
            reports[name] = report
        assert reports["disc+Z3"].prop4_premises
        assert reports["disc+Z3"].prop4_conclusion
        assert reports["disc+Z3"].prop4_implication_holds
        for name, (k, a) in _smith_models()[:3]:
            k2, a2, _ = ensure_regular(k, a)
            transfer = transfer_check(k2, a2, 2)
            assert transfer.chain_level_pi_mu_is_s, name
            assert transfer.mu_is_chain_map, name
            assert transfer.pi_mu_is_s_on_homology, name
            assert transfer.mu_pi_is_sigma_on_homology, name
            assert transfer.action_homologically_trivial, name
            assert transfer.projection_iso_on_homology, name


def test_criterion_11_degree_and_filtration_axioms():
    with criterion(11, "degree/filtration axioms"):
        rng = random.Random(1111)
        # (d1)-(d3) for weight_degree on 1000 random pairs
        assert grading.weight_degree(Polynomial.constant(VS, 1), W) == 0
        assert grading.weight_degree(Polynomial.zero(VS), W) == NEG_INF
        pairs = 0
        while pairs < 1000:
            f = _random_poly(rng)
            g = _random_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            pairs += 1
            df = grading.weight_degree(f, W)
            dg = grading.weight_degree(g, W)
            assert grading.weight_degree(f * g, W) == df + dg
            total = f + g
            if not total.is_zero():
                assert grading.weight_degree(total, W) <= max(df, dg)
        # (d1)-(d3) and (f1)-(f3) for quotient_degree on 200 canonical pairs
        q = grading.russell_quotient()
        pairs = 0
        while pairs < 200:
            f = q.canonical(_random_poly(rng, max_exp=2, max_terms=3))
            g = q.canonical(_random_poly(rng, max_exp=2, max_terms=3))
            if f.is_zero() or g.is_zero():
                continue
            pairs += 1
            df = grading.quotient_degree(f, q, W)
            dg = grading.quotient_degree(g, q, W)
            assert grading.quotient_degree(f * g, q, W) == df + dg
            total = f + g
            if not total.is_zero():
                assert grading.quotient_degree(total, q, W) <= max(df, dg)
            # filtration membership: F^i ascending, product degrees add
            assert grading.filtration_member(f, q, W, int(df))
            assert not grading.filtration_member(f, q, W, int(df) - 1)
            assert grading.filtration_member(f, q, W, int(df) + 2)


def _random_poly(rng, max_exp=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(4))
        c = Fraction(rng.randint(-4, 4))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial.from_terms(VS, terms)
