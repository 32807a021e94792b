"""Simplicial homology, cyclic actions, Smith operators, transfer, sequences."""

import dataclasses
import itertools
import random
from math import lcm

import pytest

from exoticaffine import cli, fpgroups, linalg, smithhom
from exoticaffine.fpgroups import AbelianGroup
from exoticaffine.linalg import identity, mat_vec
from exoticaffine.smithhom import (
    BadPrime,
    CyclicAction,
    NotAComplex,
    NotASimplex,
    NotPrime,
    NotRegular,
    SimplicialComplex,
    SmithError,
    action_from_json,
    action_to_json,
    barycentric_subdivide,
    chain_complex,
    chain_map_from_vertex_map,
    check_regularity,
    complex_from_json,
    complex_to_json,
    cone_complex,
    ensure_regular,
    operator_power,
    orbit_complex,
    polygon,
    relative_homology_dims,
    rotation_action,
    simplicial_homology,
    smith_operators,
    special_smith_homology,
    suspension_complex,
    transfer_check,
    trivial_action,
    verify_smith_sequences,
)
from gfp_oracle import dense, mat_mul, rref_mod, solve_many_mod, sparse_columns
import smith_oracle


def disc(n=3, p_order=None):
    """Cone over the n-gon with the rotation fixing the apex."""
    base = polygon(n)
    k = cone_complex(base, "apex")
    a = rotation_action(n, 1, extra_fixed=("apex",))
    return k, a


def sphere(n=3):
    base = polygon(n)
    k = suspension_complex(base)
    a = rotation_action(n, 1, extra_fixed=("north", "south"))
    return k, a


def free_circle(p):
    """A (2p)-gon with the free rotation by 2: order p."""
    return polygon(2 * p), rotation_action(2 * p, 2)


def power_map(a, k):
    """The whole vertex permutation of the k-th power of the generator."""
    out = {v: v for v in a.perm}
    for _ in range(k % a.order):
        out = {v: a.perm[out[v]] for v in out}
    return out


class TestComplexes:
    def test_downward_closure(self):
        k = SimplicialComplex.build([("a", "b", "c")])
        assert k.n_simplices(0) == 3
        assert k.n_simplices(1) == 3
        assert k.n_simplices(2) == 1

    def test_euler_characteristic(self):
        assert polygon(6).euler_characteristic() == 0
        assert cone_complex(polygon(5), "o").euler_characteristic() == 1
        assert suspension_complex(polygon(4)).euler_characteristic() == 2

    def test_json_round_trip(self):
        k = cone_complex(polygon(4), "o")
        assert complex_from_json(complex_to_json(k)) == k

    def test_index_matches_tuple_index(self):
        for name, (k, _) in operator_models().items():
            for level in k.simplices:
                for s in level:
                    assert k.index(s) == level.index(s), (name, s)
            for missing in (("zz",), ("apex", "zz"), k.simplices[-1][0] + ("zz",)):
                with pytest.raises(ValueError):
                    k.index(missing)

    def test_missing_simplex_is_a_smith_error(self):
        assert issubclass(NotASimplex, SmithError) and issubclass(NotASimplex, ValueError)
        k = polygon(4)
        with pytest.raises(NotASimplex, match="is not a simplex of the complex"):
            k.index(("zz",))


class TestHomology:
    def test_circle_over_z(self):
        h = simplicial_homology(polygon(3))
        assert h[0] == AbelianGroup(1, ())
        assert h[1] == AbelianGroup(1, ())

    def test_sphere_over_z(self):
        h = simplicial_homology(suspension_complex(polygon(3)))
        assert h[0] == AbelianGroup(1, ())
        assert h[1] == AbelianGroup(0, ())
        assert h[2] == AbelianGroup(1, ())

    def test_disc_mod_three(self):
        dims = simplicial_homology(cone_complex(polygon(3), "o"), 3)
        assert dims == [1, 0, 0]

    def test_projective_plane_torsion(self):
        # minimal 6-vertex triangulation of RP^2 (antipodal icosahedron):
        # every edge of K6 lies in exactly two of the ten triangles
        faces = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
        rp2 = SimplicialComplex.build([tuple(str(v) for v in s) for s in faces])
        assert rp2.euler_characteristic() == 1
        h = simplicial_homology(rp2)
        assert h[0] == AbelianGroup(1, ())
        assert h[1] == AbelianGroup(0, (2,))
        assert h[2] == AbelianGroup(0, ())
        assert simplicial_homology(rp2, 2) == [1, 1, 1]
        assert simplicial_homology(rp2, 3) == [1, 0, 0]

    def test_boundary_squared_validated(self):
        from exoticaffine.smithhom import ChainComplex

        with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
            ChainComplex("Z", (1, 1, 1), ([], [{0: 1}], [{0: 1}]))
        # boundary^2 = 1 + 2 = 3: zero mod 3 only
        boundaries = ([], [{0: 1}, {0: 1}], [{0: 1, 1: 2}])
        for coefficients in ("Z", 5):
            with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
                ChainComplex(coefficients, (1, 2, 1), boundaries)
        ChainComplex(3, (1, 2, 1), boundaries)

    def test_corrupted_sparse_boundary_refused(self, monkeypatch):
        original = smithhom.boundary_columns

        def corrupted(k, dim, rows=None):
            cols = original(k, dim, rows)
            if dim == 2:
                i, x = next(iter(cols[0].items()))
                cols[0][i] = 2 * x
            return cols

        monkeypatch.setattr(smithhom, "boundary_columns", corrupted)
        k, a = sphere()
        for coefficients in ("Z", 3):
            with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
                simplicial_homology(k, coefficients)
        with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
            verify_smith_sequences(k, a)
        # the orbit-shift complex forms the columns of its representatives
        # through boundary_columns too, and checks them itself
        with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
            smithhom._orbit_shift_complex(k, a)

    def test_nonprime_rejected(self):
        with pytest.raises(NotPrime):
            chain_complex(polygon(3), 4)


class TestSubdivision:
    def test_triangle_becomes_hexagon(self):
        k, _ = barycentric_subdivide(polygon(3))
        assert k.n_simplices(0) == 6
        assert k.n_simplices(1) == 6

    def test_point(self):
        k = SimplicialComplex.build([("pt",)])
        k2, _ = barycentric_subdivide(k)
        assert k2.n_simplices(0) == 1

    def test_homology_preserved(self):
        for base in (polygon(3), cone_complex(polygon(3), "o"), suspension_complex(polygon(3))):
            sub, _ = barycentric_subdivide(base)
            assert simplicial_homology(sub) == simplicial_homology(base)

    def test_action_extends(self):
        k, a = disc()
        k2, a2 = barycentric_subdivide(k, a)
        # one round gives a valid simplicial action (validated inside the
        # checker); full regularity for the disc arrives with the second
        violations = check_regularity(k2, a2)
        assert all(v.startswith("R4") for v in violations)
        _, _, rounds = ensure_regular(k, a)
        assert rounds == 2

    def test_square_z2_regular_after_two(self):
        k = polygon(4)
        a = rotation_action(4, 2)
        assert check_regularity(k, a)  # the 2-gon quotient is not simplicial
        k1, a1 = barycentric_subdivide(k, a)
        k2, a2 = barycentric_subdivide(k1, a1)
        assert not check_regularity(k2, a2)

    def test_size_predicted(self):
        """The CLI's cap counts the simplices a round makes, before it runs:
        on seeded complexes of dimension up to 3, a 4-simplex, the models
        and the empty complex."""
        rng = random.Random(2907)
        complexes = [_random_complex(rng) for _ in range(20)] + [
            SimplicialComplex.build([tuple("abcde")]),
            disc(5)[0],
            sphere(3)[0],
            SimplicialComplex.build([]),
        ]
        assert {k.dimension for k in complexes} >= {0, 1, 2, 3, 4}
        for k in complexes:
            sub, _ = barycentric_subdivide(k)
            assert cli._subdivided_size(k) == sum(map(len, sub.simplices)), k
        tetrahedron = SimplicialComplex.build([tuple("abcd")])
        assert cli._subdivided_size(tetrahedron) == 4 * 1 + 6 * 3 + 4 * 13 + 1 * 75


class TestRegularity:
    def test_hexagon_rotation_needs_subdivision(self):
        k, a = free_circle(3)
        violations = check_regularity(k, a)
        assert any(v.startswith("R4") for v in violations)
        k2, a2, rounds = ensure_regular(k, a)
        assert rounds == 1

    def test_disc_needs_subdivision_for_quotient(self):
        k, a = disc()
        violations = check_regularity(k, a)
        assert any(v.startswith("R3") for v in violations)

    def test_trivial_action_regular(self):
        k = cone_complex(polygon(3), "o")
        assert check_regularity(k, trivial_action(k, 3)) == []

    def test_r1_violation(self):
        # edge swapped by the order-2 rotation of the 2-gon boundary... use
        # the segment with endpoints exchanged: the edge is setwise invariant
        k = SimplicialComplex.build([("a", "b")])
        a = CyclicAction(2, {"a": "b", "b": "a"})
        violations = check_regularity(k, a)
        assert any(v.startswith("R1") for v in violations)

    def test_json(self):
        a = rotation_action(3, 1)
        assert action_from_json(action_to_json(a)) == a

    def test_order_is_checked_unreduced(self):
        # an involution of the 4-cycle declared with order 3
        k = polygon(4)
        involution = {"p0": "p2", "p2": "p0", "p1": "p3", "p3": "p1"}
        with pytest.raises(SmithError, match="generator does not have order dividing 3"):
            smithhom.validate_action(k, CyclicAction(3, involution))
        for order in (2, 4):  # its order and a multiple of it
            smithhom.validate_action(k, CyclicAction(order, involution))
        for order in (0, -3):
            with pytest.raises(SmithError, match=f"group order {order} is not positive"):
                CyclicAction(order, involution)

    def test_ensure_regular_refusal_names_violations(self):
        k, a = disc()
        with pytest.raises(NotRegular) as err:
            ensure_regular(k, a, max_rounds=0)
        assert err.value.violations == check_regularity(k, a)
        assert str(err.value) == f"action is not regular: {err.value.violations}"


class TestSmithOperators:
    def test_free_rotation_identities(self):
        k, a = free_circle(3)
        ops = smith_operators(k, a)  # identity checks run inside
        assert ops.p == 3

    def test_trivial_action_gives_zero_operators(self):
        k = cone_complex(polygon(3), "o")
        ops = smith_operators(k, trivial_action(k, 3))
        for d in range(k.dimension + 1):
            assert all(all(x == 0 for x in row) for row in dense(ops.sigma[d]))
            assert all(all(x == 0 for x in row) for row in dense(ops.tau[d]))

    def test_sigma_is_tau_power_p5(self):
        k, a = free_circle(5)
        ops = smith_operators(k, a)
        sigma = operator_power(ops, 4)
        assert tuple(tuple(tuple(r) for r in dense(m)) for m in sigma) == tuple(
            tuple(tuple(r) for r in dense(m)) for m in ops.sigma
        )

    def test_nonprime_rejected(self):
        k = polygon(8)
        a = rotation_action(8, 2)  # order 4
        with pytest.raises(NotPrime):
            smith_operators(k, a)

    def test_orbit_shift_complex_builds_no_operators(self, monkeypatch):
        """The orbit-shift complex, and with it the sequences and special
        homology, builds no sigma or tau column: it runs the identity check
        of the walk once per dimension and refuses what (R1)-(R2) refuse."""
        checked = []
        check = smithhom._check_operator_identities

        def refuse(*args):
            raise AssertionError("Smith operator columns built")

        def counting(p, t):
            checked.append(p)
            return check(p, t)

        monkeypatch.setattr(smithhom, "smith_operators", refuse)
        monkeypatch.setattr(smithhom, "SmithOperators", refuse)
        monkeypatch.setattr(smithhom, "_check_operator_identities", counting)
        k, a = sphere(5)
        cx = smithhom._orbit_shift_complex(k, a)
        assert cx.p == 5 and checked == [5] * (k.dimension + 1)
        assert special_smith_homology(*disc(3), 2) == [0, 0, 0]
        assert verify_smith_sequences(*free_circle(3)).all_exact
        k = SimplicialComplex.build([("a", "b")])
        with pytest.raises(NotRegular, match="R1"):
            smithhom._orbit_shift_complex(k, CyclicAction(2, {"a": "b", "b": "a"}))


class TestSpecialHomology:
    def test_trivial_action_tau_kills_everything(self):
        k = cone_complex(polygon(3), "o")
        dims = special_smith_homology(k, trivial_action(k, 3), 1)
        assert all(d == 0 for d in dims)

    def test_disc_sigma_matches_pair(self):
        k, a = disc()
        # H^sigma(Y) = H(X, pt) = 0 for the disc with fixed center
        ksub, asub, _ = ensure_regular(k, a)
        dims = special_smith_homology(ksub, asub, 2)
        x, vrep = orbit_complex(ksub, asub)
        fixed_image = {vrep[v] for v in ksub.vertices() if asub.perm[v] == v}
        pair = relative_homology_dims(x, fixed_image, chain_complex(x, 3))
        assert dims == pair
        assert all(d == 0 for d in dims)

    def test_sphere_sigma_matches_pair(self):
        k, a = sphere()
        ksub, asub, _ = ensure_regular(k, a)
        dims = special_smith_homology(ksub, asub, 2)
        x, vrep = orbit_complex(ksub, asub)
        fixed_image = {vrep[v] for v in ksub.vertices() if asub.perm[v] == v}
        pair = relative_homology_dims(x, fixed_image, chain_complex(x, 3))
        assert dims == pair


class TestOrbitComplex:
    def test_refuses_nonregular(self):
        k, a = free_circle(3)
        with pytest.raises(NotRegular):
            orbit_complex(k, a)

    def test_hexagon_quotient_after_subdivision(self):
        k, a = free_circle(3)
        k2, a2, _ = ensure_regular(k, a)
        x, _ = orbit_complex(k2, a2)
        # quotient of the subdivided hexagon (12-gon) is a 4-cycle: a circle
        assert x.euler_characteristic() == 0
        h = simplicial_homology(x)
        assert h[0] == AbelianGroup(1, ()) and h[1] == AbelianGroup(1, ())
        assert k2.euler_characteristic() == 3 * x.euler_characteristic()

    def test_disc_quotient_contractible(self):
        k, a = disc()
        k2, a2, _ = ensure_regular(k, a)
        x, _ = orbit_complex(k2, a2)
        h = simplicial_homology(x)
        assert h[0] == AbelianGroup(1, ())
        assert all(g == AbelianGroup(0, ()) for g in h[1:])

    def test_trivial_action_identity_quotient(self):
        k = cone_complex(polygon(3), "o")
        x, vrep = orbit_complex(k, trivial_action(k, 5))
        assert x == k
        assert all(vrep[v] == v for v in k.vertices())


class TestTransfer:
    def test_hexagon_rotation_q2(self):
        k, a = free_circle(3)
        k2, a2, _ = ensure_regular(k, a)
        report = transfer_check(k2, a2, 2)
        assert report.all_identities_hold
        assert report.action_homologically_trivial
        assert report.projection_iso_on_homology
        assert report.homology_dims_y == [1, 1]
        assert report.homology_dims_x == [1, 1]

    def test_disc_q2(self):
        k, a = disc()
        k2, a2, _ = ensure_regular(k, a)
        report = transfer_check(k2, a2, 2)
        assert report.all_identities_hold
        assert report.projection_iso_on_homology
        assert report.homology_dims_y == [1, 0, 0]

    def test_sphere_q2(self):
        k, a = sphere()
        k2, a2, _ = ensure_regular(k, a)
        report = transfer_check(k2, a2, 2)
        assert report.all_identities_hold
        assert report.projection_iso_on_homology
        assert report.homology_dims_y == [1, 0, 1]
        assert report.homology_dims_x == [1, 0, 1]

    def test_bad_prime(self):
        k, a = free_circle(3)
        k2, a2, _ = ensure_regular(k, a)
        with pytest.raises(BadPrime):
            transfer_check(k2, a2, 3)

    def test_refuses_nonregular(self):
        k, a = free_circle(3)
        with pytest.raises(NotRegular):
            transfer_check(k, a, 2)


class TestSmithSequences:
    def test_disc_z3(self):
        k, a = disc()
        report = verify_smith_sequences(k, a)
        assert report.all_exact
        assert report.special_matches_pair
        assert report.prop4_premises and report.prop4_conclusion
        assert report.prop4_implication_holds

    def test_sphere_z3(self):
        k, a = sphere()
        report = verify_smith_sequences(k, a)
        assert report.all_exact
        assert report.special_matches_pair
        # sphere is not acyclic: premises fail, implication vacuous
        assert not report.prop4_premises
        assert report.prop4_implication_holds

    def test_hexagon_free_z3(self):
        k, a = free_circle(3)
        report = verify_smith_sequences(k, a)
        assert report.all_exact
        assert report.special_matches_pair
        assert not report.prop4_premises

    def test_p5_family(self):
        for k, a in (disc(5), sphere(5), free_circle(5)):
            report = verify_smith_sequences(k, a)
            assert report.p == 5
            assert report.all_exact
            assert report.special_matches_pair
            assert report.prop4_implication_holds

    def test_p2_interval_with_reflection(self):
        # segment subdivided once: reflection fixes the midpoint (p = 2)
        seg = SimplicialComplex.build([("a", "b")])
        seg1, act1 = barycentric_subdivide(
            seg, CyclicAction(2, {"a": "b", "b": "a"})
        )
        assert not check_regularity(seg1, act1)
        report = verify_smith_sequences(seg1, act1)
        assert report.p == 2
        assert report.all_exact and report.special_matches_pair
        assert report.prop4_premises and report.prop4_conclusion

    def test_p2_circle_with_antipody(self):
        # square boundary with rotation by 2: free Z2 on the circle
        k = polygon(4)
        a = rotation_action(4, 2)
        report = verify_smith_sequences(k, a)
        assert report.p == 2
        assert report.all_exact and report.special_matches_pair
        assert not report.prop4_premises
        k2, a2, _ = ensure_regular(k, a)
        transfer = transfer_check(k2, a2, 3)
        assert transfer.all_identities_hold
        assert transfer.projection_iso_on_homology

    def test_trivial_action_sequences(self):
        # sigma = tau = 0: the rho sequences collapse onto the fixed part
        k = cone_complex(polygon(4), "o")
        report = verify_smith_sequences(k, trivial_action(k, 5))
        assert report.p == 5
        assert report.all_exact
        assert report.special_matches_pair
        assert report.prop4_premises and report.prop4_conclusion

    def test_two_component_free_action(self):
        # simultaneous rotation of two disjoint triangles: free Z3 on two
        # circles; exercises multi-component complexes end to end
        simplices = [("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                     ("b0", "b1"), ("b1", "b2"), ("b0", "b2")]
        k = SimplicialComplex.build(simplices)
        perm = {"a0": "a1", "a1": "a2", "a2": "a0",
                "b0": "b1", "b1": "b2", "b2": "b0"}
        a = CyclicAction(3, perm)
        report = verify_smith_sequences(k, a)
        assert report.all_exact and report.special_matches_pair
        k2, a2, _ = ensure_regular(k, a)
        x, _ = orbit_complex(k2, a2)
        assert k2.euler_characteristic() == 3 * x.euler_characteristic()
        transfer = transfer_check(k2, a2, 2)
        assert transfer.all_identities_hold

    def test_composite_order_rejected(self):
        k = polygon(8)
        a = rotation_action(8, 2)  # order 4
        with pytest.raises(NotPrime):
            verify_smith_sequences(k, a)

    def test_euler_multiplicativity_free_actions(self):
        for p in (3, 5):
            k, a = free_circle(p)
            k2, a2, _ = ensure_regular(k, a)
            x, _ = orbit_complex(k2, a2)
            assert k2.euler_characteristic() == p * x.euler_characteristic()


def record_quotients(monkeypatch) -> list:
    """The quotients that smithhom.orbit_complex returns from now on, with
    SimplicialComplex.build refused: orbit_complex builds the quotient from
    one image per orbit, and nothing else closes a complex under faces."""
    quotients, orbit_complex = [], smithhom.orbit_complex

    def recording(k, a):
        x, vrep = orbit_complex(k, a)
        quotients.append(x)
        return x, vrep

    def refuse(simplices):
        raise AssertionError("a complex closed under faces")

    monkeypatch.setattr(smithhom, "orbit_complex", recording)
    monkeypatch.setattr(SimplicialComplex, "build", staticmethod(refuse))
    return quotients


class TestLongExactSequence:
    """The one long-exact-sequence checker on coordinate sets of the
    orbit-shift complex, on sequences that are not exact."""

    def test_zero_into_whole_complex(self):
        cx = smithhom._orbit_shift_complex(*sphere())
        p = cx.p
        zero, whole = cx.levels(p), cx.levels(0, fixed=True)
        assert all(len(r) == 0 for r in zero)
        # 0 -> 0 -> C(Y) -> C(Y) -> 0 with q = tau^0 = 1 is exact, with
        # q = tau^p = 0 not
        assert smithhom._les_exact(cx, zero, whole, whole, 0)
        assert not smithhom._les_exact(cx, zero, whole, whole, p)

    @pytest.mark.parametrize(
        "k, a", [sphere(), free_circle(3)], ids=["sphere:3", "circle:3"]
    )
    def test_rho_ladder_needs_rhobar(self, k, a):
        cx = smithhom._orbit_shift_complex(k, a)
        p = cx.p
        whole = cx.levels(0, fixed=True)
        fixed = cx.levels(p, fixed=True)  # C(Y^w) alone
        for j in range(1, p):
            rho_c = cx.levels(j)
            full = cx.levels(p - j, fixed=True)
            # 0 -> rhobar C + C(Y^w) -> C(Y) -> rho C -> 0 is exact; with
            # rhobar C dropped, C(Y^w) alone is not the kernel of rho
            assert smithhom._les_exact(cx, full, whole, rho_c, j)
            assert not smithhom._les_exact(cx, fixed, whole, rho_c, j)

    def test_open_coordinate_set_refused(self):
        # level 0 alone is not a subcomplex: the boundary of u_0 = e has
        # entries on higher levels wherever a face is t^m of its orbit's e
        cx = smithhom._orbit_shift_complex(*sphere())
        bottom = tuple(range(r.stop - f, r.stop) for r, (_, f) in zip(cx.levels(0), cx.counts))
        with pytest.raises(SmithError, match="not closed under the boundary"):
            cx.homology(bottom)

    def test_each_subcomplex_built_once(self, monkeypatch):
        """One homology basis per subcomplex: C(Y), im tau^j for j = 1..p and
        rhobar C + C(Y^w) for j = 1..p-1, 2p in all; and all of them from
        one tracked reduction per dimension."""
        k, a = sphere(5)
        built, reductions = [], []
        homology_of, reduce_columns = smithhom._homology_of, smithhom.reduce_columns_mod

        def counting(coords, *args):
            built.append(coords)
            return homology_of(coords, *args)

        def counting_reductions(cols, p, track=False):
            # the Betti numbers of single sets reduce untracked, with clearing
            if track:
                reductions.append(cols)
            return reduce_columns(cols, p, track)

        monkeypatch.setattr(smithhom, "_homology_of", counting)
        monkeypatch.setattr(smithhom, "reduce_columns_mod", counting_reductions)
        report = verify_smith_sequences(k, a)
        assert report.all_exact and report.subdivisions_for_quotient
        assert len(built) == len(set(built)) == 2 * a.order
        assert len(reductions) == k.dimension + 1

    @pytest.mark.parametrize(
        "model", [disc(3), sphere(5), free_circle(3)], ids=["disc:3", "sphere:5", "circle:3"]
    )
    def test_only_the_quotient_is_built(self, monkeypatch, model):
        """The sequences build one complex, the quotient (orbit_complex, with
        no closure under faces by SimplicialComplex.build), and take the
        homology of no other complex through simplicial_homology: H(Y) and
        H(Y^w) are read off the orbit-shift complex."""
        quotients, homologies = record_quotients(monkeypatch), []
        simplicial_homology = smithhom.simplicial_homology

        def counting_homology(k, coefficients="Z"):
            homologies.append(k)
            return simplicial_homology(k, coefficients)

        monkeypatch.setattr(smithhom, "simplicial_homology", counting_homology)
        assert verify_smith_sequences(*model).all_exact
        assert len(quotients) == 1
        assert len(homologies) <= 1 and all(k is quotients[0] for k in homologies)

    @pytest.mark.parametrize(
        "model", [disc(3), sphere(5), free_circle(3)], ids=["disc:3", "sphere:5", "circle:3"]
    )
    def test_quotient_chain_complex_formed_once(self, monkeypatch, model):
        """The pair homology and the Prop. 4 premise read one GF(p) chain
        complex of the quotient."""
        quotients, chained = record_quotients(monkeypatch), []
        chain_complex = smithhom.chain_complex

        def counting_chain_complex(k, coefficients="Z"):
            chained.append(k)
            return chain_complex(k, coefficients)

        monkeypatch.setattr(smithhom, "chain_complex", counting_chain_complex)
        assert verify_smith_sequences(*model).all_exact
        assert sum(k is quotients[0] for k in chained) == 1

    def test_classes_match_the_solver(self):
        """classify_many on every orbit-shift subcomplex of sphere:5 against
        solving on the reps and the boundary basis, non-cycles included."""
        cx = smithhom._orbit_shift_complex(*sphere(5))
        p = cx.p
        subcomplexes = [cx.levels(j, fixed=True) for j in range(p + 1)]
        subcomplexes += [cx.levels(j) for j in range(1, p + 1)]
        rng = random.Random(1404)
        refused = 0
        for coords in subcomplexes:
            h = cx.homology(coords)
            for d, rows in enumerate(coords):
                label = (coords, d)
                refused += smith_oracle.assert_classes_match_solver(h, d, rows, rng, label)
        assert refused

    def test_classes_need_no_reduction(self, monkeypatch):
        """classify_many reads classes off the echelon basis _homology_of
        built: no column reduction and no solve inside it, in the Smith
        sequences of sphere:5 or the transfer of the repaired sphere:3."""
        assert not hasattr(linalg, "solve_columns_mod")
        assert not hasattr(smithhom, "solve_columns_mod")
        inside, classified, reductions = [], [], []
        classify = smithhom._HomologyBasis.classify_many

        def tracked(self, d, vecs):
            classified.append(d)
            inside.append(d)
            try:
                return classify(self, d, vecs)
            finally:
                inside.pop()

        def counting(reduce):
            def wrapper(*args, **kwargs):
                if inside:
                    reductions.append(args)
                return reduce(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(smithhom._HomologyBasis, "classify_many", tracked)
        for module in (linalg, smithhom):
            monkeypatch.setattr(module, "reduce_columns_mod", counting(module.reduce_columns_mod))
        assert verify_smith_sequences(*sphere(5)).all_exact
        after_sequences = len(classified)
        kq, aq, _ = ensure_regular(*sphere(3))
        assert transfer_check(kq, aq, 2).all_identities_hold
        assert 0 < after_sequences < len(classified)
        assert reductions == []


# ---------------------------------------------------------------------------
# homology bases over GF(p) against the dense oracle


def count_dense_calls(monkeypatch) -> list:
    """Count every call of the dense mat_mul_rows and mat_vec, wherever
    smithhom, fpgroups or linalg bind them; returns the list of names."""
    calls = []
    for name in ("mat_mul_rows", "mat_vec"):
        original = getattr(linalg, name)

        def counting(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        for module in (linalg, smithhom, fpgroups):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def assert_snf_certificate_counted(calls, c):
    """The counter fires on the dense products behind Z homology: the
    certificate of each nonzero boundary's Smith normal form, three row-wise
    products, U U^-1 and V V^-1 against I and U M against S V^-1."""
    nonzero = sum(1 for b in c.boundaries if any(b))
    assert nonzero
    smithhom.homology(c)
    assert calls == ["mat_mul_rows"] * (3 * nonzero)


def dense_nullspace(matrix, n, p):
    """Right nullspace over GF(p) read off the reduced row echelon form."""
    if not matrix or not matrix[0]:
        return identity(n)
    red, pivots = rref_mod(matrix, p)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][free] % p
        basis.append(v)
    return basis


def dense_homology_basis(dims, boundaries, p):
    """(reps, boundary bases, cycles) per dimension by dense elimination:
    cycles from a nullspace, boundaries from the rref pivot columns, and a
    cycle is a new class when it is a pivot column of [boundary basis | cycles]."""
    top = len(dims) - 1
    reps, bnds, all_cycles = [], [], []
    for d in range(top + 1):
        n = dims[d]
        cycles = dense_nullspace(boundaries[d], n, p) if d >= 1 else identity(n)
        bnd = []
        if d + 1 <= top and boundaries[d + 1] and boundaries[d + 1][0]:
            up = boundaries[d + 1]
            bnd = [[row[j] % p for row in up] for j in rref_mod(up, p)[1]]
        _, pivots = rref_mod(list(zip(*bnd, *cycles)), p)
        reps.append([cycles[j - len(bnd)] for j in pivots if j >= len(bnd)])
        bnds.append(bnd)
        all_cycles.append(cycles)
    return reps, bnds, all_cycles


def _rp2():
    faces = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return SimplicialComplex.build([tuple(str(v) for v in s) for s in faces])


def _random_complex(rng):
    """Downward closure of a few random simplices on seven vertices."""
    verts = [f"v{i}" for i in range(7)]
    return SimplicialComplex.build(
        rng.sample(verts, rng.randint(1, 4)) for _ in range(rng.randint(1, 9))
    )


def _dense_chain_complex(rng, p):
    """C_2 -> C_1 -> C_0 with a dense random d_1 and d_2 made of random
    combinations of a basis of ker d_1, so that d_1 d_2 = 0."""
    n0, n1, n2 = rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 6)
    d1 = [[rng.randint(0, p - 1) for _ in range(n1)] for _ in range(n0)]
    kernel = dense_nullspace(d1, n1, p)
    cols = []
    for _ in range(n2):
        coeffs = [rng.randint(0, p - 1) for _ in kernel]
        cols.append([sum(c * v[i] for c, v in zip(coeffs, kernel)) % p for i in range(n1)])
    d2 = [[col[i] for col in cols] for i in range(n1)]
    return [n0, n1, n2], [[], d1, d2]


def _model_complexes():
    """RP^2, the disc, sphere and circle models at p = 3, 5, and the regular
    subdivisions of the p = 3 ones (those at p = 5 make the oracle slow)."""
    out = {"rp2": _rp2()}
    for name, (k, a) in {
        "disc:3": disc(3), "sphere:3": sphere(3), "circle:3": free_circle(3),
        "disc:5": disc(5), "sphere:5": sphere(5), "circle:5": free_circle(5),
    }.items():
        out[name] = k
        if name.endswith(":3"):
            kq, _, rounds = ensure_regular(k, a)
            out[f"{name} subdivided x{rounds}"] = kq
    return out


def _assert_homology_basis(dims, sparse, p, label):
    """Check the homology basis of the sparse boundary columns against the
    dense one; return it."""
    h = smithhom._homology_basis(dims, sparse, p)
    boundaries = [[]] + [dense(b, dims[d - 1]) for d, b in enumerate(sparse) if d >= 1]
    reps_o, bnds_o, cycles_o = dense_homology_basis(dims, boundaries, p)
    assert h.dims == [len(r) for r in reps_o], label
    for d, n in enumerate(dims):
        reps, bnd = (
            [list(col) for col in zip(*dense(cols, n))]
            for cols in (h.reps[d], h.boundary_basis[d])
        )
        assert len(bnd) == len(bnds_o[d]), (label, d)
        if bnd:  # the boundary basis lies in the image of the next boundary
            assert None not in solve_many_mod(boundaries[d + 1], bnd, p), (label, d)
        cols = reps + bnd
        if d >= 1:  # every rep (and boundary) is a cycle
            for col in cols:
                assert all(x % p == 0 for x in mat_vec(boundaries[d], col)), (label, d)
        # reps and boundary basis are independent cycles, as many as a basis
        # of the cycles has, so they span the cycles
        assert len(cols) == len(cycles_o[d]), (label, d)
        if cols:
            matrix = [[col[i] for col in cols] for i in range(n)]
            assert len(rref_mod(matrix, p)[1]) == len(cols), (label, d)
    return h


class TestHomologyBasis:
    """The sparse column reduction against the dense three-elimination one."""

    def test_models_and_subdivisions(self):
        for name, k in _model_complexes().items():
            for p in (3,) if "subdivided" in name else (2, 3, 5):
                c = chain_complex(k, p)
                h = _assert_homology_basis(list(c.dims), c.boundaries, p, (name, p))
                assert h.dims == simplicial_homology(k, p), (name, p)

    def test_random_complexes(self):
        rng = random.Random(3001)
        for t in range(60):
            k = _random_complex(rng)
            p = (2, 3, 5)[t % 3]
            c = chain_complex(k, p)
            _assert_homology_basis(list(c.dims), c.boundaries, p, (k, p))

    def test_dense_chain_complexes(self):
        rng = random.Random(3002)
        for t in range(90):
            p = (2, 3, 5)[t % 3]
            dims, boundaries = _dense_chain_complex(rng, p)
            sparse = [sparse_columns(b, p, n) for b, n in zip(boundaries, dims)]
            _assert_homology_basis(dims, sparse, p, (boundaries, p))

    def test_no_dense_elimination(self, monkeypatch):
        """The Smith sequences, the transfer and the chain complex with its
        homology over GF(p) and over Z run on sparse columns only: no dense
        product and no dense mat-vec."""
        calls = count_dense_calls(monkeypatch)
        assert verify_smith_sequences(*sphere(5)).all_exact
        kq, aq, _ = ensure_regular(*sphere(3))
        assert transfer_check(kq, aq, 2).all_identities_hold
        assert smithhom.homology(chain_complex(kq, 3)) == [1, 0, 1]
        k, _ = sphere(5)
        c = chain_complex(k)  # boundary^2 = 0 checked over Z
        assert calls == []
        assert_snf_certificate_counted(calls, c)


# ---------------------------------------------------------------------------
# Smith operators and the transfer against the dense oracles


def mat_mod(matrix, p):
    return [[x % p for x in row] for row in matrix]


def verify_operator_identities(ops):
    """The dense oracle: sigma*tau = tau*sigma = 0 and sigma = tau^(p-1) by
    n x n products, one dimension after another."""
    p = ops.p
    for sig, ta in zip(ops.sigma, ops.tau):
        sig, ta = dense(sig), dense(ta)
        if any(x % p for row in mat_mul(sig, ta) for x in row):
            raise SmithError("sigma * tau != 0")
        if any(x % p for row in mat_mul(ta, sig) for x in row):
            raise SmithError("tau * sigma != 0")
        power = identity(len(sig))
        for _ in range(p - 1):
            power = mat_mod(mat_mul(ta, power), p)
        if power != mat_mod(sig, p):
            raise SmithError("sigma != tau^(p-1)")


def dense_operators(p, ts):
    """sigma and tau from the signed permutations t, built entry by entry as
    dense matrices (sigma by walking each orbit p steps, tau = 1 - t), then
    given as sparse columns."""
    sigma, tau = [], []
    for t in ts:
        n = len(t)
        acc = [[0] * n for _ in range(n)]
        for j in range(n):
            i, c = j, 1
            for _ in range(p):
                acc[i][j] = (acc[i][j] + c) % p
                i, sign = t[i]
                c *= sign
        ta = identity(n)
        for j, (i, sign) in enumerate(t):
            ta[i][j] = (ta[i][j] - sign) % p
        sigma.append(sparse_columns(acc, p, n))
        tau.append(sparse_columns(ta, p, n))
    return smithhom.SmithOperators(p, tuple(sigma), tuple(tau), tuple(ts))


def verdict(check, *args):
    """The SmithError message a check raises, or None when it accepts."""
    try:
        check(*args)
    except SmithError as exc:
        return str(exc)
    return None


def sparse_check(ops):
    """The sparse-product oracle, dimension by dimension."""
    for sig, ta in zip(ops.sigma, ops.tau):
        smith_oracle.check_operator_identities(ops.p, sig, ta)


def walk_check(p, ts):
    """The orbit-walk check of smithhom, dimension by dimension."""
    for t in ts:
        smithhom._check_operator_identities(p, t)


def operator_models(subdivided_primes=(2, 3, 5, 7)):
    """disc, sphere and circle at p = 2, 3, 5, 7 (the 4-gon turned by 2
    stands in for the 2-gon), with the regular subdivisions at the primes
    asked for."""
    out = {}
    for p in (2, 3, 5, 7):
        n, step = (p, 1) if p > 2 else (4, 2)
        base = polygon(n)
        models = {
            f"disc:{p}": (cone_complex(base, "apex"), rotation_action(n, step, extra_fixed=("apex",))),
            f"sphere:{p}": (
                suspension_complex(base),
                rotation_action(n, step, extra_fixed=("north", "south")),
            ),
            f"circle:{p}": free_circle(p),
        }
        for name, (k, a) in models.items():
            assert a.order == p
            out[name] = (k, a)
            if p in subdivided_primes:
                kq, aq, rounds = ensure_regular(k, a)
                out[f"{name} subdivided x{rounds}"] = (kq, aq)
    return out


def random_action(rng, p):
    """p copies of a random complex on five vertices, permuted cyclically by
    the generator, and coned off at a fixed apex half the time: a regular
    action whose fixed set is empty or the apex."""
    base = [rng.sample(range(5), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
    simplices = [tuple(f"v{v}.{i}" for v in s) for s in base for i in range(p)]
    perm = {f"v{v}.{i}": f"v{v}.{(i + 1) % p}" for s in base for v in s for i in range(p)}
    if rng.random() < 0.5:
        simplices = [s + ("apex",) for s in simplices]
        perm["apex"] = "apex"
    return SimplicialComplex.build(simplices), CyclicAction(p, perm)


def relabelled(rng, k, a):
    """k and a with the vertices renamed in a random order, so that t sends
    some simplices to minus a simplex (an orientation-reversing step)."""
    vertices = sorted(k.vertices())
    order = rng.sample(range(len(vertices)), len(vertices))
    names = {v: f"w{i:03d}" for v, i in zip(vertices, order)}
    simplices = [[names[v] for v in s] for s in k.all_simplices()]
    perm = {names[v]: names[w] for v, w in a.perm.items()}
    return SimplicialComplex.build(simplices), CyclicAction(a.order, perm)


def free_column(t):
    """A simplex that t moves."""
    return next(j for j, (i, _) in enumerate(t) if i != j)


def corrupt_entry(matrices, d, i, j, p):
    """The matrices with entry (i, j) of dimension d raised by one."""
    m = dense(matrices[d])
    m[i][j] = (m[i][j] + 1) % p
    return matrices[:d] + (sparse_columns(m, p, len(m)),) + matrices[d + 1 :]


class TestOperatorOracle:
    """The sparse operator checks and tau powers against dense products."""

    def test_sparse_check_accepts_what_the_oracle_accepts(self):
        for name, (k, a) in operator_models().items():
            ops = smith_operators(k, a)  # the sparse check runs inside
            assert verdict(verify_operator_identities, ops) is None, name
            assert verdict(sparse_check, ops) is None, name
            assert dense_operators(ops.p, ops.t) == ops, name

    def test_corrupted_sigma_and_tau_columns(self):
        """One entry raised by one, on a moved simplex m or a fixed one f.
        Every corruption is refused, with the oracle's message; each of the
        three identities is the first to fail on some of them."""
        messages = set()
        for name, (k, a) in operator_models(subdivided_primes=(3,)).items():
            ops = smith_operators(k, a)
            for d, t in enumerate(ops.t):
                m = free_column(t)
                cells = {"sigma": [(m, m)], "tau": [(m, m)]}
                fixed = [j for j, (i, _) in enumerate(t) if i == j]
                if fixed:
                    f = fixed[0]
                    cells["sigma"] += [(m, f), (f, f)]
                    cells["tau"] += [(f, m), (f, f)]
                for field, entries in cells.items():
                    for i, j in entries:
                        columns = {"sigma": ops.sigma, "tau": ops.tau}
                        columns[field] = corrupt_entry(columns[field], d, i, j, ops.p)
                        bad = smithhom.SmithOperators(ops.p, t=ops.t, **columns)
                        expected = verdict(verify_operator_identities, bad)
                        assert expected is not None, (name, field, d, i, j)
                        assert verdict(sparse_check, bad) == expected, (name, field, d, i, j)
                        messages.add(expected)
        assert messages == {"sigma * tau != 0", "tau * sigma != 0", "sigma != tau^(p-1)"}

    def test_corrupted_generator(self, monkeypatch):
        """One flipped sign in t makes t^p = -1 on that orbit: both checks
        refuse at odd p, and both accept at p = 2, where -1 = 1."""
        original = smithhom._simplex_images

        def flipped(src, dst, vmap, d):
            t = original(src, dst, vmap, d)
            if d == 1 and src is dst:
                j = free_column(t)
                t[j] = (t[j][0], -t[j][1])
            return t

        for name, (k, a) in operator_models(subdivided_primes=(3,)).items():
            ts = [flipped(k, k, a.perm, d) for d in range(k.dimension + 1)]
            expected = verdict(verify_operator_identities, dense_operators(a.order, ts))
            assert (expected is None) == (a.order == 2), name
            with monkeypatch.context() as m:
                m.setattr(smithhom, "_simplex_images", flipped)
                assert verdict(smith_operators, k, a) == expected, name

    def test_walk_check_matches_sparse_oracle(self):
        """The orbit-walk check on t against the sparse products on sigma
        and tau built from t, on random actions with orientation-reversing
        steps, and on their generators with one sign flipped or one simplex
        sent to another: a flipped sign is refused at odd p only."""
        rng = random.Random(3004)
        verdicts = {}
        reversing = 0
        for n in range(60):
            p = (2, 3, 5, 7)[n % 4]
            k, a = relabelled(rng, *random_action(rng, p))
            ops = smith_operators(k, a)  # the walk check runs inside
            reversing += any(sign < 0 for t in ops.t for _, sign in t)
            d = rng.randrange(len(ops.t))
            j = rng.randrange(len(ops.t[d]))
            i, sign = ops.t[d][j]
            flipped = [list(t) for t in ops.t]
            flipped[d][j] = (i, -sign)
            moved = [list(t) for t in ops.t]
            moved[d][j] = (rng.randrange(len(moved[d])), sign)
            for kind, ts in (("action", ops.t), ("flipped", flipped), ("moved", moved)):
                expected = verdict(sparse_check, dense_operators(p, ts))
                assert verdict(walk_check, p, ts) == expected, (kind, k, a)
                verdicts.setdefault((kind, p == 2), set()).add(expected)
        assert reversing > 20
        assert verdicts[("action", True)] == verdicts[("action", False)] == {None}
        assert verdicts[("flipped", True)] == {None}
        assert verdicts[("flipped", False)] == {"sigma * tau != 0"}
        assert verdicts[("moved", False)] == {None, "sigma * tau != 0"}

    def test_operator_power_matches_dense_products(self):
        for name, (k, a) in operator_models(subdivided_primes=(2, 3)).items():
            ops = smith_operators(k, a)
            p = ops.p
            products = [identity(len(ta)) for ta in ops.tau]
            for i in range(p + 2):
                assert [dense(m) for m in operator_power(ops, i)] == products, (name, i)
                products = [
                    mat_mod(mat_mul(dense(ta), m), p) for ta, m in zip(ops.tau, products)
                ]
            sigma = operator_power(ops, p - 1)
            assert [dense(m) for m in sigma] == [dense(m) for m in ops.sigma]

    def test_random_actions(self):
        rng = random.Random(3003)
        for n in range(30):
            p = (2, 3, 5)[n % 3]
            k, a = random_action(rng, p)
            ops = smith_operators(k, a)
            assert verdict(verify_operator_identities, ops) is None, (k, a)
            assert dense_operators(p, ops.t) == ops, (k, a)
            products = [identity(len(ta)) for ta in ops.tau]
            for i in range(p + 2):
                assert [dense(m) for m in operator_power(ops, i)] == products, (k, a, i)
                products = [
                    mat_mod(mat_mul(dense(ta), m), p) for ta, m in zip(ops.tau, products)
                ]
            assert verify_smith_sequences(k, a).all_exact, (k, a)

    def test_no_dense_products(self, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        kq, aq, _ = ensure_regular(*sphere(5))
        ops = smith_operators(kq, aq)
        for i in range(ops.p + 1):
            operator_power(ops, i)
        chain_complex(kq, 5)  # boundary^2 = 0 checked on sparse columns
        chain_complex(kq)
        assert calls == []
        # Z homology of kq would run the dense SNF for seconds; the counter
        # is shown to fire on the unsubdivided sphere instead
        assert_snf_certificate_counted(calls, chain_complex(sphere(5)[0]))


def dense_chain_map(src, dst, vmap):
    """Row-major matrices per dimension of a simplicial map."""
    maps = chain_map_from_vertex_map(src, dst, vmap)
    return [dense(m, dst.n_simplices(d)) for d, m in enumerate(maps)]


def dense_transfer_maps(k, a, x, vrep, q):
    """mu, sigma and g over Z_q from the s dense chain maps of the powers of
    the generator: mu sends an orbit simplex to the sign-adjusted sum of the
    images of its smallest preimage."""
    s = a.order
    pi = dense_chain_map(k, x, vrep)
    powers = [dense_chain_map(k, k, power_map(a, j)) for j in range(s)]
    mu, sigma = [], []
    for d in range(k.dimension + 1):
        rows = k.n_simplices(d)
        m = [[0] * x.n_simplices(d) for _ in range(rows)]
        for jx, xs in enumerate(x.simplices[d]):
            c0 = min(sim for sim in k.simplices[d] if tuple(sorted({vrep[v] for v in sim})) == xs)
            jy = k.index(c0)
            for j in range(s):
                for i in range(rows):
                    m[i][jx] = (m[i][jx] + pi[d][jx][jy] * powers[j][d][i][jy]) % q
        mu.append(m)
        acc = [[0] * rows for _ in range(rows)]
        for j in range(s):
            acc = [[(u + v) % q for u, v in zip(r1, r2)] for r1, r2 in zip(acc, powers[j][d])]
        sigma.append(acc)
    g = [mat_mod(m, q) for m in powers[1 % s]]
    return mu, sigma, g


def assert_transfer_matches_dense(k, a, q, label):
    """mu's columns, and sigma and g applied to every unit chain and every
    homology basis chain of C(k; Z_q), from the orbit walks of smithhom
    against the dense powers of the generator."""
    x, vrep = orbit_complex(k, a)
    pi = chain_map_from_vertex_map(k, x, vrep)
    mu, sigma, g = dense_transfer_maps(k, a, x, vrep, q)
    walked = smithhom._transfer_maps(k, a, pi, q)
    assert [dense(m, k.n_simplices(d)) for d, m in enumerate(walked)] == mu, label
    c = chain_complex(k, q)
    h = smithhom._homology_basis(c.dims, c.boundaries, q)
    t = smithhom._orbits(k, a).t
    for d, n in enumerate(c.dims):
        chains = [{j: 1} for j in range(n)] + h.reps[d] + h.boundary_basis[d]
        for powers, matrix in ((range(a.order), sigma[d]), (range(1, 2), g[d])):
            columns = sparse_columns(matrix, q, n)
            images = smithhom._walk(t[d], chains, powers.start, powers.stop, q)
            assert images == [
                linalg.apply_columns_mod(columns, z, q) for z in chains
            ], (label, d, powers)
    assert transfer_check(k, a, q).all_identities_hold, label


class TestTransferOracle:
    @pytest.mark.parametrize("p, q", [(3, 2), (5, 2), (5, 3)])
    def test_orbit_walks_match_dense_powers(self, p, q):
        for name, (k, a) in operator_models(subdivided_primes=()).items():
            if not name.endswith(f":{p}"):
                continue
            kq, aq, _ = ensure_regular(k, a)
            assert_transfer_matches_dense(kq, aq, q, (name, q))

    def test_random_actions(self):
        rng = random.Random(3004)
        for n in range(30):
            p = (2, 3, 5)[n % 3]
            q = 3 if p == 2 else 2
            k, a = random_action(rng, p)
            assert_transfer_matches_dense(k, a, q, (k, a))

    def test_fiber_not_an_orbit_refused(self):
        """A projection whose fibres are not the orbits is refused: two
        vertices of different orbits trade images."""
        k, a, _ = ensure_regular(*disc(3))
        x, vrep = orbit_complex(k, a)
        pi = chain_map_from_vertex_map(k, x, vrep)
        apex, moved = k.index(("apex",)), free_column(smithhom._orbits(k, a).t[0])
        pi[0][apex], pi[0][moved] = pi[0][moved], pi[0][apex]
        with pytest.raises(NotRegular, match="fiber is not a single orbit"):
            smithhom._transfer_maps(k, a, pi, 2)


class TestRegularityChecks:
    @pytest.mark.parametrize(
        "model, expected",
        [(disc(3), 3), (sphere(3), 3), (free_circle(3), 2), (sphere(5), 3)],
        ids=["disc:3", "sphere:3", "circle:3", "sphere:5"],
    )
    def test_once_per_complex(self, monkeypatch, model, expected):
        seen = []
        original = smithhom.check_regularity

        def counting(k, a):
            seen.append(k)
            return original(k, a)

        monkeypatch.setattr(smithhom, "check_regularity", counting)
        report = verify_smith_sequences(*model)
        assert report.all_exact
        assert len(seen) == expected == 1 + report.subdivisions_for_quotient
        assert len({id(k) for k in seen}) == expected

    def test_refusals_keep_their_order(self):
        # prime order is asked for before regularity
        k = SimplicialComplex.build([("a", "b"), ("c", "d")])
        composite = CyclicAction(4, {"a": "b", "b": "a", "c": "d", "d": "c"})
        with pytest.raises(NotPrime, match="group order 4 is not prime"):
            verify_smith_sequences(k, composite)
        # an (R1) violation is refused as smith_operators refuses it
        k = SimplicialComplex.build([("a", "b")])
        swap = CyclicAction(2, {"a": "b", "b": "a"})
        with pytest.raises(NotRegular) as direct:
            smith_operators(k, swap)
        with pytest.raises(NotRegular) as nested:
            verify_smith_sequences(k, swap)
        assert str(nested.value) == str(direct.value)
        assert all(v.startswith(("R1", "R2")) for v in nested.value.violations)

    @pytest.mark.parametrize("verb", ["orbit", "transfer"])
    @pytest.mark.parametrize(
        "model, expected", [("disc:3", 3), ("sphere:3", 3), ("circle:3", 2), ("disc:5", 3)]
    )
    def test_once_per_command(self, monkeypatch, capsys, verb, model, expected):
        """--repair checks the input and each subdivision; the command then
        reuses the check of the last one instead of making it again."""
        seen = []
        original = smithhom.check_regularity

        def counting(k, a):
            seen.append(k)
            return original(k, a)

        monkeypatch.setattr(smithhom, "check_regularity", counting)
        assert cli.main(["smith", verb, "--repair", "--model", model]) == 0
        capsys.readouterr()
        assert len(seen) == expected
        assert len({id(k) for k in seen}) == expected

    def test_checks_are_kept_per_action(self, monkeypatch):
        k, a = free_circle(3)
        kq, aq, _ = ensure_regular(k, a)
        seen = []
        original = smithhom.check_regularity

        def counting(k, a):
            seen.append(a)
            return original(k, a)

        monkeypatch.setattr(smithhom, "check_regularity", counting)
        orbit_complex(kq, aq)
        orbit_complex(kq, CyclicAction(aq.order, dict(aq.perm)))  # an equal action
        assert seen == []
        trivial = trivial_action(kq, 3)
        x, _ = orbit_complex(kq, trivial)
        assert seen == [trivial] and x == kq


def oracle_check_regularity(k, a):
    """The regularity check power by power: (R1) rescans every simplex under
    each nontrivial power g^j, (R4) maps each simplex by every power."""
    smithhom.validate_action(k, a)
    violations = []
    identity = {v: v for v in k.vertices()}
    fixed_sets = set()
    r1_hit = False
    for j in range(1, a.order):
        g = power_map(a, j)
        if g == identity:
            continue
        fixed_sets.add(frozenset(v for v in g if g[v] == v))
        if not r1_hit:
            for s in k.all_simplices():
                if tuple(sorted(g[v] for v in s)) == s and any(g[v] != v for v in s):
                    violations.append("R1: setwise-invariant simplex not pointwise fixed")
                    r1_hit = True
                    break
    if len(fixed_sets) > 1:
        violations.append("R2: fixed sets of nontrivial powers differ")
    orbit_rep = {v: min(a.orbit_of_vertex(v)) for v in k.vertices()}
    for s in k.all_simplices():
        reps = [orbit_rep[v] for v in s]
        if len(set(reps)) != len(reps):
            violations.append("R3: simplex carries two vertices of one orbit")
            break
    seen: set[tuple] = set()
    done: set[tuple] = set()
    powers = [power_map(a, j) for j in range(a.order)]
    for s in k.all_simplices():
        if s in done:
            continue
        orbit = {tuple(sorted(g[v] for v in s)) for g in powers}
        done |= orbit
        key = tuple(sorted({orbit_rep[v] for v in s}))
        if key in seen:
            violations.append("R4: two simplex orbits share one vertex-orbit set")
            break
        seen.add(key)
    return sorted(set(violations))


def oracle_subdivide(k, a=None):
    """Barycentric subdivision as the downward closure of every flag's
    barycenters, through SimplicialComplex.build."""
    chains_at = {}
    for s in k.all_simplices():
        own = [(s,)]
        for r in range(1, len(s)):
            for face in itertools.combinations(s, r):
                own.extend(ch + (s,) for ch in chains_at[face])
        chains_at[s] = own
    simplices = []
    for s in k.all_simplices():
        simplices.extend(
            tuple(sorted(smithhom._bary_name(f) for f in ch)) for ch in chains_at[s]
        )
    new_a = None
    if a is not None:
        g = power_map(a, 1)
        perm = {
            smithhom._bary_name(s): smithhom._bary_name(tuple(sorted(g[v] for v in s)))
            for s in k.all_simplices()
        }
        new_a = CyclicAction(a.order, perm)
    return SimplicialComplex.build(simplices), new_a


def random_permutation_complex(rng):
    """Random orbits of lengths 1 to 4 on at most seven vertices, and the
    orbits of one to three random simplices under their permutation; half
    the time each simplex takes at most one vertex from an orbit.  The
    declared order is the true order, or twice it a third of the time."""
    lengths = []
    while sum(lengths) < 7 and (not lengths or rng.random() < 0.7):
        lengths.append(rng.choice((1, 1, 2, 3, 4)))
    orbits, perm = [], {}
    for o, n in enumerate(lengths):
        cycle = [f"v{o}.{i}" for i in range(n)]
        orbits.append(cycle)
        perm.update({v: cycle[(i + 1) % n] for i, v in enumerate(cycle)})
    order = lcm(*lengths)
    one_per_orbit = rng.random() < 0.5
    base = []
    for _ in range(rng.randint(1, 3)):
        if one_per_orbit:
            picked = rng.sample(orbits, rng.randint(1, min(3, len(orbits))))
            base.append([rng.choice(cycle) for cycle in picked])
        else:
            base.append(rng.sample(list(perm), rng.randint(1, min(3, len(perm)))))
    a = CyclicAction(order, perm)
    powers = [power_map(a, j) for j in range(order)]
    simplices = [[g[v] for v in s] for s in base for g in powers] + [[v] for v in perm]
    return SimplicialComplex.build(simplices), CyclicAction(order * rng.choice((1, 1, 2)), perm)


def subdivision_cases(rng):
    """Every operator model with its regular subdivision, random permutation
    complexes and random complexes without an action."""
    cases = list(operator_models().values())
    cases += [random_permutation_complex(rng) for _ in range(150)]
    cases += [(_random_complex(rng), None) for _ in range(100)]
    return cases + [(SimplicialComplex.build([]), None)]


class TestRegularityOracle:
    """The orbit-walk check against the power-by-power one it replaced."""

    def test_models_and_two_subdivisions(self):
        for name, (k, a) in operator_models(subdivided_primes=()).items():
            for rounds in range(3):
                assert check_regularity(k, a) == oracle_check_regularity(k, a), (name, rounds)
                k, a = barycentric_subdivide(k, a)

    def test_random_permutation_complexes(self):
        """(R1) implies (R3): a power moving a vertex inside an invariant
        simplex leaves two vertices of one orbit in it.  (R3) implies (R4):
        dropping the second of those vertices gives a face in another
        dimension with the same vertex orbits.  Every other combination
        occurs, with and without (R2)."""
        rng = random.Random(9009)
        combos = set()
        for _ in range(2000):
            k, a = random_permutation_complex(rng)
            violations = check_regularity(k, a)
            assert violations == oracle_check_regularity(k, a), (k, a)
            combos.add(frozenset(v[:2] for v in violations))
        chains = [set(), {"R4"}, {"R3", "R4"}, {"R1", "R3", "R4"}]
        assert combos == {frozenset(c | r2) for c in chains for r2 in (set(), {"R2"})}

    def test_r4_across_dimensions_only(self):
        # the swapped segment has one simplex orbit per dimension; the edge
        # and its vertices share the vertex-orbit set {a}
        k = SimplicialComplex.build([("a", "b")])
        a = CyclicAction(2, {"a": "b", "b": "a"})
        expected = [
            "R1: setwise-invariant simplex not pointwise fixed",
            "R3: simplex carries two vertices of one orbit",
            "R4: two simplex orbits share one vertex-orbit set",
        ]
        assert check_regularity(k, a) == oracle_check_regularity(k, a) == expected


class TestSubdivisionOracle:
    def test_flags_equal_the_closure_of_flags(self):
        for k, a in subdivision_cases(random.Random(9010)):
            new_k, new_a = barycentric_subdivide(k, a)
            old_k, old_a = oracle_subdivide(k, a)
            assert new_k.simplices == old_k.simplices, k
            if a is None:
                assert new_a is old_a is None
            else:
                assert new_a.order == old_a.order
                assert list(new_a.perm.items()) == list(old_a.perm.items())


# ---------------------------------------------------------------------------
# the Smith sequences in orbit-shift coordinates against the ambient route


def random_fixed_action(rng, p):
    """p copies of random simplices on four vertices, each joined to a face
    (perhaps empty) of a random simplex of a random complex on three fixed
    vertices: a regular action whose fixed set is a point, an edge, a
    triangle or a few of them."""
    fixed = [rng.sample(range(3), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    base = [rng.sample(range(4), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
    simplices = [tuple(f"f{v}" for v in s) for s in fixed]
    for s in base:
        join = tuple(f"f{v}" for v in rng.choice(fixed)[: rng.randint(0, 2)])
        simplices += [tuple(f"v{v}.{i}" for v in s) + join for i in range(p)]
    k = SimplicialComplex.build(simplices)
    perm = {v: v for v in k.vertices()}
    perm.update({f"v{v}.{i}": f"v{v}.{(i + 1) % p}" for s in base for v in s for i in range(p)})
    return k, CyclicAction(p, perm)


def random_repair_action(rng, p):
    """The orbits of one to three random simplices on one or two vertex
    orbits of length p and up to two fixed vertices: an action that may
    break (R1), (R3) or (R4), and so may need ensure_regular.  Every moved
    vertex has orbit length p, so (R2) holds."""
    cycles = [[f"c{o}.{i}" for i in range(p)] for o in range(rng.randint(1, 2))]
    perm = {v: cycle[(i + 1) % p] for cycle in cycles for i, v in enumerate(cycle)}
    perm.update({f"f{i}": f"f{i}" for i in range(rng.randint(0, 2))})
    a = CyclicAction(p, perm)
    base = [rng.sample(list(perm), rng.randint(1, min(3, len(perm)))) for _ in range(rng.randint(1, 3))]
    powers = [power_map(a, j) for j in range(p)]
    simplices = [[g[v] for v in s] for s in base for g in powers] + [[v] for v in perm]
    return SimplicialComplex.build(simplices), a


def orbit_shift_basis(ops):
    """Per dimension, the ambient column of each orbit-shift coordinate as
    the coordinates are laid out: the fixed simplices, then tau^i e for the
    smallest simplex e of each free orbit, level p - 1 first."""
    p = ops.p
    taus = [operator_power(ops, i) for i in range(p)]
    out = []
    for d, t in enumerate(ops.t):
        fixed = [j for j, (i, _) in enumerate(t) if i == j]
        reps, seen = [], set()
        for j, (i, _) in enumerate(t):
            if i != j and j not in seen:
                reps.append(j)
                seen.update(r for r, _ in smithhom._orbit(t, j, p))
        out.append([{j: 1} for j in fixed] + [taus[i][d][e] for i in reversed(range(p)) for e in reps])
    return out


def assert_same_span(cols, other, p, label):
    rank = linalg.rank_mod(cols, p)
    assert rank == linalg.rank_mod(other, p) == linalg.rank_mod(cols + other, p), label


def assert_matches_oracle(k, a, label, special=True):
    report = verify_smith_sequences(k, a)
    expected = dataclasses.asdict(smith_oracle.verify_smith_sequences(k, a))
    assert vars(report) == expected, label
    assert list(vars(report)) == list(expected), label  # the CLI prints fields in this order
    assert report.all_exact and report.special_matches_pair, label
    if special:
        for i in range(1, a.order):
            assert special_smith_homology(k, a, i) == smith_oracle.special_smith_homology(
                k, a, i
            ), (label, i)
    return report


class TestOrbitShiftCoordinates:
    """The orbit-shift coordinates against operator_power, and the Smith
    sequences on them against the ambient-basis route of smith_oracle."""

    def test_coordinates_are_operator_images(self):
        """The coordinates are a basis of C(Y; Z_p) in which the boundary is
        the ambient one, and each subcomplex of the sequences is the span of
        its operator's image."""
        cases = list(operator_models(subdivided_primes=(2, 3)).items())
        rng = random.Random(1212)
        cases += [(("fixed", n), random_fixed_action(rng, (2, 3, 5)[n % 3])) for n in range(12)]
        for label, (k, a) in cases:
            ops = smith_operators(k, a)
            p = ops.p
            cx = smithhom._orbit_shift_complex(k, a)
            basis = orbit_shift_basis(ops)
            amb = chain_complex(k, p).boundaries
            for d, cols in enumerate(basis):
                assert len(cols) == cx.chains.dims[d] == linalg.rank_mod(cols, p), (label, d)
                if d:
                    assert linalg.mul_columns_mod(amb[d], cols, p) == linalg.mul_columns_mod(
                        basis[d - 1], cx.chains.boundaries[d], p
                    ), (label, d)
            fixed = [[{j: 1} for j, (i, _) in enumerate(t) if i == j] for t in ops.t]
            for j in range(1, p + 1):
                tau_j = operator_power(ops, j)
                rhobar = operator_power(ops, p - j)
                for d, cols in enumerate(basis):
                    im, a_j = cx.levels(j)[d], cx.levels(p - j, fixed=True)[d]
                    assert_same_span([cols[x] for x in im], tau_j[d], p, (label, j, d))
                    assert_same_span(
                        [cols[x] for x in a_j], rhobar[d] + fixed[d], p, (label, j, d)
                    )
                    shifted = [cx.shift(d, {x: 1}, j) for x in range(len(cols))]
                    assert [
                        linalg.apply_columns_mod(cols, v, p) for v in shifted
                    ] == linalg.mul_columns_mod(tau_j[d], cols, p), (label, j, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_models_and_two_subdivisions(self, p):
        for name, (k, a) in operator_models(subdivided_primes=()).items():
            if not name.endswith(f":{p}"):
                continue
            for rounds in range(3):
                assert_matches_oracle(k, a, (name, rounds), special=rounds < 2)
                k, a = barycentric_subdivide(k, a)

    def test_random_actions(self):
        rng = random.Random(1213)
        for n in range(30):
            p = (2, 3, 5)[n % 3]
            k, a = random_action(rng, p)
            assert_matches_oracle(k, a, (k, a))

    def test_random_fixed_subcomplexes(self):
        rng = random.Random(1214)
        fixed_dims = set()
        for n in range(24):
            p = (2, 3, 5)[n % 3]
            k, a = random_fixed_action(rng, p)
            fixed = [s for s in k.all_simplices() if all(a.perm[v] == v for v in s)]
            fixed_dims.add(max(len(s) for s in fixed) - 1)
            assert_matches_oracle(k, a, (k, a))
        assert fixed_dims == {0, 1, 2}

    def test_random_actions_that_need_repair(self):
        """Actions that break (R1), (R3) or (R4), run as `smith sequences
        --repair` runs them: on the first subdivision that ensure_regular
        finds regular."""
        rng = random.Random(1215)
        rounds_seen, broken = set(), set()
        for n in range(24):
            p = (2, 3)[n % 2]
            k, a = random_repair_action(rng, p)
            broken.update(v[:2] for v in check_regularity(k, a))
            kq, aq, rounds = ensure_regular(k, a)
            rounds_seen.add(rounds)
            assert_matches_oracle(kq, aq, (k, a), special=False)
        assert rounds_seen == {0, 1, 2}
        assert broken == {"R1", "R3", "R4"}


# ---------------------------------------------------------------------------
# the classical theorems of Smith theory on random regular actions


def fixed_subcomplex(k, a):
    """F: the simplices whose vertices the generator all fixes; None when empty."""
    simplices = [s for s in k.all_simplices() if all(a.perm[v] == v for v in s)]
    return SimplicialComplex.build(simplices) if simplices else None


def vertex_orbit_quotient(k, a):
    """X/G of a regular action: each simplex's set of vertex orbits."""
    rep = {v: a.orbit_of_vertex(v)[0] for v in k.vertices()}
    return SimplicialComplex.build({tuple(rep[v] for v in s) for s in k.all_simplices()})


def betti(k, p) -> list:
    return [] if k is None else simplicial_homology(k, p)


def acyclic(dims) -> bool:
    return bool(dims) and dims[0] == 1 and not any(dims[1:])


def coned(k, a):
    """The cone over k on a new vertex that the generator fixes."""
    return cone_complex(k, "cone"), CyclicAction(a.order, dict(a.perm, cone="cone"))


class TestSmithTheorems:
    """Floyd's Euler formula, the Smith inequality and P. A. Smith's theorem
    (Floyd, Trans. AMS 72 (1952); Bredon, Introduction to Compact
    Transformation Groups (1972), ch. III) on seeded regular actions and on
    cones over them, with F and X/G built here from the action alone; and
    the sequences' Prop. 4 fields against the acyclicity of F, X/G and X."""

    def test_random_regular_actions(self):
        rng = random.Random(2704)
        makers = (random_action, random_fixed_action, random_repair_action)
        fixed_dims, acyclic_seen = set(), 0
        for n in range(60):
            p = (2, 3, 5)[n % 3]
            k, a, _ = ensure_regular(*makers[n % 3](rng, p))
            for x, g in ((k, a), coned(k, a)):
                label = (n, p, x is not k)
                f, quotient = fixed_subcomplex(x, g), vertex_orbit_quotient(x, g)
                chi_f = 0 if f is None else f.euler_characteristic()
                h_f, h_x = betti(f, p), simplicial_homology(x, p)
                fixed_dims.add(-1 if f is None else f.dimension)
                assert x.euler_characteristic() == (
                    p * quotient.euler_characteristic() - (p - 1) * chi_f
                ), label
                assert sum(h_f) <= sum(h_x), label
                if acyclic(h_x):
                    acyclic_seen += 1
                    assert f is not None and acyclic(h_f), label
                report = verify_smith_sequences(x, g)
                assert report.prop4_premises == (
                    acyclic(h_f) and acyclic(simplicial_homology(quotient, p))
                ), label
                assert report.prop4_conclusion == acyclic(h_x), label
                assert report.prop4_implication_holds, label
        assert {0, 1, 2} <= fixed_dims
        assert acyclic_seen > 60  # every cone, and some of the actions


# ---------------------------------------------------------------------------
# the per-orbit quotient and the cleared reductions against their oracles


def seeded_regular_actions(seed, count):
    """count seeded regular actions, made by random_action,
    random_fixed_action and random_repair_action in turn at p = 2, 3, 5, and
    repaired by ensure_regular where they need it."""
    rng = random.Random(seed)
    makers = (random_action, random_fixed_action, random_repair_action)
    return [ensure_regular(*makers[n % 3](rng, (2, 3, 5)[n % 3]))[:2] for n in range(count)]


def renumbered(cx, coords) -> list:
    """The boundaries of a closed coordinate set of cx, rows counted from
    the start of the set one dimension down, as a complex of its own."""
    out = cx.restricted(coords)
    return [out[0]] + [
        [{i - rows.start: x for i, x in col.items()} for col in cols]
        for rows, cols in zip(coords, out[1:])
    ]


def class_outcomes(h, d, vecs) -> list:
    """classify_many of each vector alone, or None where h refuses it."""
    out = []
    for vec in vecs:
        try:
            out.append(h.classify_many(d, [vec]))
        except SmithError:
            out.append(None)
    return out


def assert_clearing_matches_oracle(dims, boundaries, p, rng, label):
    """_dims_mod and _homology_basis, whose reductions are cleared, against
    the reduction of every column: the same Betti numbers, the same basis
    and the same class (or refusal) of unit vectors and of random cycles."""
    betti = smith_oracle.dims_mod(dims, boundaries, p)
    assert smithhom._dims_mod(dims, boundaries, p) == betti, label
    h = smithhom._homology_basis(dims, boundaries, p)
    oracle = smith_oracle.homology_basis(dims, boundaries, p)
    assert h.dims == oracle.dims == betti, label
    assert (h.reps, h.boundary_basis) == (oracle.reps, oracle.boundary_basis), label
    for d, n in enumerate(dims):
        basis = oracle.reps[d] + oracle.boundary_basis[d]
        vecs = [{j: 1} for j in range(n)] + [
            linalg.apply_columns_mod(basis, {i: rng.randrange(p) for i in range(len(basis))}, p)
            for _ in range(3)
        ]
        assert class_outcomes(h, d, vecs) == class_outcomes(oracle, d, vecs), (label, d)


class TestPerOrbitOracles:
    """orbit_complex against the closure of every simplex's image, and the
    cleared reductions against the reduction of every column."""

    def test_orbit_complex_matches_closure(self):
        for n, (k, a) in enumerate(seeded_regular_actions(2905, 60)):
            x, vrep = orbit_complex(k, a)
            assert (x, vrep) == smith_oracle.orbit_complex(k, a), n
            assert x.dimension == k.dimension, n

    def test_clearing_matches_uncleared_reduction(self):
        """On every closed levels(j) and levels(j, fixed=True) of seeded
        regular actions: betti, whose rows keep the names of the whole
        complex, and _dims_mod and _homology_basis on the set as a complex
        of its own; and the two on the whole complex and on its quotient."""
        rng = random.Random(2906)
        for n, (k, a) in enumerate(seeded_regular_actions(2906, 30)):
            p = a.order
            cx = smithhom._orbit_shift_complex(k, a)
            sets = [cx.levels(j) for j in range(1, p + 1)]
            sets += [cx.levels(j, fixed=True) for j in range(p + 1)]
            for coords in sets:
                dims, label = [len(r) for r in coords], (n, coords)
                oracle = smith_oracle.dims_mod(dims, cx.restricted(coords), p)
                assert cx.betti(coords) == oracle, label
                assert_clearing_matches_oracle(dims, renumbered(cx, coords), p, rng, label)
            for complex_ in (k, orbit_complex(k, a)[0]):
                c = chain_complex(complex_, p)
                assert_clearing_matches_oracle(list(c.dims), c.boundaries, p, rng, (n, complex_))
