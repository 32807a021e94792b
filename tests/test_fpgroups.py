"""Smith normal form, abelianization, named presentations, classification."""

import random
from math import gcd

import pytest

from exoticaffine.fpgroups import (
    InvalidParams,
    NotCoprime,
    Presentation,
    WrongShape,
    abelianization,
    bezout_alpha,
    homology_sphere_check,
    named_presentation,
    relator_matrix,
    smith_normal_form,
    snf_diagonal,
    triangle_classification,
    xt_exponent,
)
from exoticaffine import dualgraph, fpgroups, linalg
from exoticaffine.dualgraph import xt_certificate, xt_matrix
from exoticaffine.fpgroups import GroupError, _validate_snf
from exoticaffine.linalg import det, identity
from gfp_oracle import mat_mul


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestSmithNormalForm:
    def test_ramanujam_matrix(self):
        # det = -1 so both invariant factors are 1
        assert snf_diagonal([[3, 2], [-1, -1]]) == [1, 1]

    def test_bezout_row(self):
        for k, l in [(2, 3), (3, 5), (4, 9)]:
            assert snf_diagonal([[k, -l]]) == [1]

    def test_zero_matrix(self):
        assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]

    def test_umv_identity_and_unimodularity(self):
        rng = random.Random(107)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = random_matrix(rng, rows, cols)
            u, s, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == s
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1
            diag = [s[i][i] for i in range(min(rows, cols))]
            for i in range(len(diag)):
                for j in range(len(diag)):
                    if i != j:
                        assert s[i][j] == 0 if j < len(s[i]) else True
            nonzero = [d for d in diag if d]
            assert all(d > 0 for d in nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            # |product of invariant factors| equals |det| for square matrices
            if rows == cols:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det(m))


def rank_deficient_matrix(rng, rows, cols):
    """Entries in [-20, 20]; every third row is a combination of the two
    before it, so rank deficits and zero invariant factors appear."""
    m = []
    for i in range(rows):
        if i % 3 == 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m.append([a * x + b * y for x, y in zip(m[i - 1], m[i - 2])])
        else:
            m.append([rng.randint(-20, 20) for _ in range(cols)])
    return m


def snf_with_inverses(monkeypatch, m):
    """U, S, V and the tracked U^-1, V^-1 that the certificate was given."""
    seen = []

    def capture(*args):
        seen.append(args)
        return _validate_snf(*args)

    monkeypatch.setattr(fpgroups, "_validate_snf", capture)
    u, s, v = smith_normal_form(m)
    [(_, cu, cs, cv, u_inv, v_inv)] = seen
    assert (cu, cs, cv) == (u, s, v)
    return u, s, v, u_inv, v_inv


class TestSnfCertificate:
    def test_tracked_inverses_are_exact(self, monkeypatch):
        """On seeded matrices, rank-deficient ones included, U^-1 and V^-1
        are two-sided integer inverses; Bareiss det is the oracle."""
        rng = random.Random(1601)
        deficient = 0
        for t in range(60):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = (rank_deficient_matrix if t % 2 else random_matrix)(rng, rows, cols)
            u, s, v, u_inv, v_inv = snf_with_inverses(monkeypatch, m)
            for x, x_inv in ((u, u_inv), (v, v_inv)):
                n = len(x)
                assert mat_mul(x, x_inv) == mat_mul(x_inv, x) == identity(n), m
                assert abs(det(x)) == 1 and det(x) * det(x_inv) == 1, m
            deficient += any(s[i][i] == 0 for i in range(min(rows, cols)))
        assert deficient

    def test_no_determinant(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "det", lambda m: calls.append(m))
        rng = random.Random(1602)
        for _ in range(10):
            smith_normal_form(rank_deficient_matrix(rng, 6, 5))
        assert calls == []

    def test_non_unimodular_transform_refused(self):
        # U = diag(1, 2) has det 2: U M V = S holds, but no integer U^-1 exists
        m = s = [[1, 0], [0, 0]]
        u = [[1, 0], [0, 2]]
        for u_inv in (identity(2), [[1, 0], [0, 0]], u):
            with pytest.raises(GroupError, match="not unimodular"):
                _validate_snf(m, u, s, identity(2), u_inv, identity(2))

    def test_inverse_wrong_in_one_entry_refused(self, monkeypatch):
        m = rank_deficient_matrix(random.Random(1603), 5, 4)
        u, s, v, u_inv, v_inv = snf_with_inverses(monkeypatch, m)
        _validate_snf(m, u, s, v, u_inv, v_inv)
        for which in (4, 5):
            for i, j in ((0, 0), (3, 2), (2, 3)):
                args = [m, u, s, v, [list(r) for r in u_inv], [list(r) for r in v_inv]]
                args[which][i][j] += 1
                with pytest.raises(GroupError, match="not unimodular"):
                    _validate_snf(*args)

    def test_off_diagonal_s_refused(self):
        upper = [[1, 1], [0, 1]]
        with pytest.raises(GroupError, match="not diagonal"):
            _validate_snf(upper, identity(2), upper, identity(2), identity(2), identity(2))

    def test_negative_diagonal_refused(self):
        # homology would drop the -2 from the torsion without a word
        m = [[-2, 0], [0, 0]]
        with pytest.raises(GroupError, match="negative"):
            _validate_snf(m, identity(2), m, identity(2), identity(2), identity(2))

    def test_wrong_product_refused(self):
        m = [[2, 0], [0, 3]]
        with pytest.raises(GroupError, match="U\\*M\\*V = S"):
            _validate_snf(m, identity(2), [[1, 0], [0, 6]], identity(2), identity(2), identity(2))

    @pytest.mark.parametrize(
        "matrix",
        [[[1, 2], [3]], [["a"]], 5, [[1.5, 2]], [[True, 2], [3, 4]], [1, 2], None, "12"],
        ids=["ragged", "string", "scalar", "float", "bool", "flat", "none", "text"],
    )
    def test_malformed_matrix_is_wrong_shape(self, matrix):
        with pytest.raises(WrongShape):
            smith_normal_form(matrix)

    def test_empty_shapes(self):
        assert smith_normal_form([]) == ([], [], [])
        assert smith_normal_form([[]]) == ([[1]], [[]], [])
        assert smith_normal_form(((2, 4), (6, 8))) == smith_normal_form([[2, 4], [6, 8]])


class TestAbelianization:
    def test_braid_group_b3(self):
        b3 = Presentation(("s1", "s2"), ((1, 2, 1, -2, -1, -2),))
        assert relator_matrix(b3) == [[1, -1]]
        ab = abelianization(b3)
        assert ab.free_rank == 1 and ab.torsion == ()

    def test_brieskorn_235_trivial(self):
        g = named_presentation("gkls", k=2, l=3, s=5)
        assert relator_matrix(g) == [[1, -1, -1], [-1, 2, -1], [-1, -1, 4]]
        # oracle: cofactor expansion gives det -1
        assert det(relator_matrix(g)) == -1
        assert abelianization(g).trivial

    def test_free_group(self):
        free = Presentation(("a", "b"), ())
        ab = abelianization(free)
        assert ab.free_rank == 2 and ab.torsion == ()

    def test_cyclic(self):
        zn = Presentation(("a",), ((1, 1, 1, 1),))
        ab = abelianization(zn)
        assert ab.free_rank == 0 and ab.torsion == (4,)
        assert ab.order() == 4

    def test_tietze_consequence_invariance(self):
        # adding a product of conjugates of existing relators preserves H1
        rng = random.Random(109)
        for _ in range(20):
            gens = ("a", "b", "c")
            relators = []
            for _ in range(rng.randint(1, 3)):
                word = tuple(
                    rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(1, 5))
                )
                relators.append(word)
            p = Presentation(gens, tuple(relators))
            conjugator = tuple(rng.choice([1, -1, 2, -2]) for _ in range(2))
            r1 = relators[rng.randrange(len(relators))]
            r2 = relators[rng.randrange(len(relators))]
            consequence = (
                conjugator + r1 + tuple(-x for x in reversed(conjugator)) + r2
            )
            p2 = Presentation(gens, tuple(relators) + (consequence,))
            assert abelianization(p) == abelianization(p2)


class TestNamedPresentations:
    def test_bkl(self):
        p = named_presentation("bkl", k=2, l=3)
        assert p.generators == ("a", "b")
        assert p.relators == ((1, 1, -2, -2, -2),)
        assert p.spell(p.relators[0]) == "a^2*b^-3"

    def test_bkls_237(self):
        p = named_presentation("bkls", k=2, l=3, s=7)
        assert p.relators[0] == (1, 1, -2, -2, -2)
        # alpha = a^q b^p with p = -1, q = 1
        assert p.relators[1] == (1, -2) * 7

    def test_bkls_needs_coprime(self):
        with pytest.raises(NotCoprime):
            named_presentation("bkls", k=4, l=6, s=5)

    def test_gkls_shape(self):
        p = named_presentation("gkls", k=2, l=3, s=7)
        assert p.generators == ("g1", "g2", "g3")
        assert p.relators[0] == (1, 1, -3, -2, -1)

    def test_tkls(self):
        p = named_presentation("tkls", k=2, l=3, s=5)
        assert len(p.relators) == 6
        assert p.relators[0] == (1, 1)
        assert p.relators[3] == (1, 2, 1, 2)
        # abelianization of the (2,3,5) triangle group is trivial: the three
        # involutions are forced equal and then killed by odd product orders
        ab = abelianization(p)
        assert ab.order() in (1, 2, 4)

    def test_b3quot(self):
        p = named_presentation("b3quot", s=5)
        assert p.relators[0] == (1, 2, 1, -2, -1, -2)
        assert p.relators[1] == (1,) * 5
        ab = abelianization(p)
        assert ab.free_rank == 0 and ab.torsion == (5,)

    def test_xtquot_all_ones(self):
        p = named_presentation("xtquot", t=xt_matrix(1, 1, 1, 1, 1, 1, 1, 1))
        assert len(p.relators) == 8  # 4 commutators + 4 covering relators
        commutators = p.relators[:4]
        for word in commutators:
            assert len(word) == 4 and sum(word) == 0
        assert p.relators[4] == (1, 3)

    def test_xtquot_h1_matches_det(self):
        rng = random.Random(113)
        for _ in range(25):
            entries = [rng.randint(0, 4) for _ in range(8)]
            t = xt_matrix(*entries)
            p = named_presentation("xtquot", t=t)
            ab = abelianization(p)
            if abs(det(t)) == 1:
                assert ab.trivial
            else:
                assert not ab.trivial


class TestBezout:
    def test_example_23(self):
        p, q, word = bezout_alpha(2, 3)
        assert (p, q) == (-1, 1)
        assert word == (1, -2)

    def test_one_n(self):
        p, q, word = bezout_alpha(1, 5)
        assert (p, q) == (1, 0)
        assert word == (2,)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            bezout_alpha(4, 6)

    def test_minimal_p_property(self):
        rng = random.Random(127)
        for _ in range(30):
            k = rng.randint(1, 20)
            l = rng.randint(1, 20)
            if gcd(k, l) != 1:
                continue
            p, q, _ = bezout_alpha(k, l)
            assert k * p + l * q == 1
            assert abs(p) <= l // 2 or l == 1

    def test_old_extended_euclid_route_is_the_oracle(self):
        pairs = 0
        for k in range(1, 200):
            for l in range(1, 200):
                if gcd(k, l) != 1:
                    continue
                pairs += 1
                p, q, _ = bezout_alpha(k, l)
                assert (p, q) == _old_bezout(k, l)
        assert pairs == 24303

    @pytest.mark.parametrize("k, l", [(1, 0), (0, 3), (0, 0), (-3, 5), (2, -1)])
    def test_non_positive_refused(self, k, l):
        with pytest.raises(InvalidParams, match="parameters must be positive integers"):
            bezout_alpha(k, l)

    def test_abelianization_order_is_s(self):
        # H1 of B_{k,l,s} has order s: SNF of [[k,-l],[s q, s p]]
        for k, l, s in [(2, 3, 7), (3, 4, 5), (2, 5, 9)]:
            p = named_presentation("bkls", k=k, l=l, s=s)
            ab = abelianization(p)
            assert ab.order() == s


class TestTriangleClassification:
    def test_paper_triples(self):
        assert triangle_classification(2, 3, 5) == "Finite"
        assert triangle_classification(2, 3, 6) == "Nilpotent"
        assert triangle_classification(2, 3, 7) == "ContainsF2"

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            triangle_classification(1, 3, 5)


class TestHomologySphere:
    def test_examples(self):
        assert homology_sphere_check(2, 3, 5)
        assert not homology_sphere_check(2, 3, 4)
        assert homology_sphere_check(2, 3, 7)

    def test_matches_pairwise_coprimality(self):
        for k in range(2, 10):
            for l in range(k + 1, 10):
                for s in range(l + 1, 10):
                    expected = (
                        gcd(k, l) == 1 and gcd(k, s) == 1 and gcd(l, s) == 1
                    )
                    assert homology_sphere_check(k, l, s) == expected

    def test_trivial_abelianization_implies_coprime(self):
        # one-sided: a perfect central extension forces pairwise coprimality
        from exoticaffine.fpgroups import gkls_abelianization_order

        for k in range(2, 10):
            for l in range(k + 1, 10):
                for s in range(l + 1, 10):
                    g = named_presentation("gkls", k=k, l=l, s=s)
                    ab = abelianization(g)
                    assert (ab.order() or 0) == gkls_abelianization_order(k, l, s)
                    if ab.trivial:
                        assert homology_sphere_check(k, l, s)

    def test_equivalence_on_23s_family(self):
        # within (2,3,s) the two notions coincide: |s - 6| = 1 iff coprime...
        # iff s in {5, 7}; for s in {5, 7} both hold, for 4 and 9 both fail
        for s in (4, 5, 7, 9):
            g = named_presentation("gkls", k=2, l=3, s=s)
            assert abelianization(g).trivial == homology_sphere_check(2, 3, s) == (
                s in (5, 7)
            )

    def test_known_counterexample_to_spec_equivalence(self):
        # (2,5,7) is pairwise coprime yet the central extension is not
        # perfect: H1 = Z/11.  The homology-sphere statement concerns the
        # commutator subgroup (the manifold group), not this extension.
        g = named_presentation("gkls", k=2, l=5, s=7)
        ab = abelianization(g)
        assert homology_sphere_check(2, 5, 7)
        assert ab.free_rank == 0 and ab.torsion == (11,)


def _old_bezout(k, l):
    """(p, q) by the extended Euclidean algorithm and a float rounding, the
    route bezout_alpha took before it read p off pow(k, -1, l)."""
    old_r, r = k, l
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    p0 = -old_x if old_r < 0 else old_x
    t = round(-p0 / l)
    p = min((p0 + (t + d) * l for d in (-1, 0, 1)), key=lambda c: (abs(c), -c))
    return p, (1 - k * p) // l


class TestXtExponent:
    def test_all_ones(self):
        assert xt_exponent(xt_matrix(1, 1, 1, 1, 1, 1, 1, 1)) == 0

    def test_spec_instance(self):
        assert xt_exponent(xt_matrix(2, 1, 1, 1, 1, 1, 1, 1)) == 1

    def test_second_instance(self):
        assert xt_exponent(xt_matrix(1, 1, 2, 1, 1, 2, 1, 1)) == 0

    def test_matches_determinant(self):
        rng = random.Random(131)
        for _ in range(60):
            entries = [rng.randint(0, 5) for _ in range(8)]
            t = xt_matrix(*entries)
            assert abs(xt_exponent(t)) == abs(det(t))

    def test_cross_check_with_certificate(self):
        rng = random.Random(137)
        for _ in range(30):
            entries = [rng.randint(0, 5) for _ in range(8)]
            t = xt_matrix(*entries)
            cert = xt_certificate(t)
            assert (abs(xt_exponent(t)) == 1) == (cert.verdict == "Acyclic")

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            xt_exponent([[1, 1], [1, 1]])

    def test_exactly_minus_the_certificate_determinant(self):
        rng = random.Random(139)
        for _ in range(200):
            m00, n00, m10, n10, m01, n01, m11, n11 = (rng.randint(0, 9) for _ in range(8))
            t = xt_matrix(m00, n00, m10, n10, m01, n01, m11, n11)
            delta = m00 * n10 * m11 * n01 - m01 * n11 * m10 * n00
            assert xt_exponent(t) == -xt_certificate(t).determinant == delta
            assert xt_certificate(t).determinant == det(t)

    def test_one_covering_matrix_check(self):
        # a negative entry and an off-pattern entry: the sign is checked first
        t = [[1, 5, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, -1]]
        calls = [
            (dualgraph.WrongShape, lambda: xt_certificate(t)),
            (WrongShape, lambda: xt_exponent(t)),
            (WrongShape, lambda: named_presentation("xtquot", t=t)),
        ]
        for cls, call in calls:
            with pytest.raises(cls) as info:
                call()
            assert type(info.value) is cls
            assert str(info.value) == "entries must be non-negative integers"
        off_pattern = xt_matrix(1, 1, 1, 1, 1, 1, 1, 1)
        off_pattern[0][1] = 1
        for call in (xt_exponent, lambda t: named_presentation("xtquot", t=t)):
            with pytest.raises(WrongShape, match=r"entry \(0,1\) must be zero in this shape"):
                call(off_pattern)
