"""Simplicial homology, cyclic actions, Smith operators, transfer, sequences."""

import dataclasses
import random

import pytest

from exoticaffine import linalg, smithhom
from exoticaffine.fpgroups import AbelianGroup
from exoticaffine.linalg import identity, mat_mul, mat_vec, sparse_columns
from exoticaffine.smithhom import (
    BadPrime,
    CyclicAction,
    NotAComplex,
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
from gfp_oracle import dense, rref_mod, solve_many_mod


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
        with pytest.raises(NotAComplex):
            from exoticaffine.smithhom import ChainComplex

            ChainComplex("Z", (1, 1, 1), ((), ((1,),), ((1,),)))

    def test_corrupted_sparse_boundary_refused(self, monkeypatch):
        original = smithhom.boundary_columns

        def corrupted(k, dim):
            cols = original(k, dim)
            if dim == 2:
                i, x = next(iter(cols[0].items()))
                cols[0][i] = 2 * x
            return cols

        monkeypatch.setattr(smithhom, "boundary_columns", corrupted)
        k, a = sphere()
        with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
            simplicial_homology(k, 3)
        with pytest.raises(NotAComplex, match="^boundary squared is nonzero$"):
            verify_smith_sequences(k, a)

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

    def test_map_simplex_matches_power(self):
        # oracle: the whole vertex permutation of the k-th power
        k, a = sphere(5)
        for power in range(-1, 2 * a.order + 1):
            g = a.power(power)
            for s in k.all_simplices():
                assert a.map_simplex(s, power) == tuple(sorted(g[v] for v in s))

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
        pair = relative_homology_dims(x, fixed_image, 3)
        assert dims == pair
        assert all(d == 0 for d in dims)

    def test_sphere_sigma_matches_pair(self):
        k, a = sphere()
        ksub, asub, _ = ensure_regular(k, a)
        dims = special_smith_homology(ksub, asub, 2)
        x, vrep = orbit_complex(ksub, asub)
        fixed_image = {vrep[v] for v in ksub.vertices() if asub.perm[v] == v}
        pair = relative_homology_dims(x, fixed_image, 3)
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


class TestLongExactSequence:
    """The one long-exact-sequence checker, on sequences that are not exact."""

    @staticmethod
    def ambient(k, p):
        return smithhom._boundaries_mod(k, p)

    @staticmethod
    def whole(k, p, amb):
        """C(Y) with the identity basis."""
        mats = [sparse_columns(identity(k.n_simplices(d)), p) for d in range(k.dimension + 1)]
        return smithhom._image_subcomplex(mats, p, amb)

    def test_zero_into_whole_complex(self):
        k, _ = sphere()
        p = 3
        amb = self.ambient(k, p)
        ns = [k.n_simplices(d) for d in range(k.dimension + 1)]
        zero_maps = [sparse_columns([[0] * n for _ in range(n)], p) for n in ns]
        zero = smithhom._image_subcomplex(zero_maps, p, amb)
        whole = self.whole(k, p, amb)
        ones = [sparse_columns(identity(n), p) for n in ns]
        # 0 -> 0 -> C(Y) -> C(Y) -> 0 with q = 1 is exact, with q = 0 not
        assert smithhom._les_exact(zero, whole, whole, ones, amb, p)
        assert not smithhom._les_exact(zero, whole, whole, zero_maps, amb, p)

    @pytest.mark.parametrize(
        "k, a", [sphere(), free_circle(3)], ids=["sphere:3", "circle:3"]
    )
    def test_rho_ladder_needs_rhobar(self, k, a):
        ops = smith_operators(k, a)
        p = ops.p
        amb = self.ambient(k, p)
        fixed_inc = smithhom._fixed_inclusion_bases(k, a)
        fixed = smithhom._induced_boundaries(fixed_inc, p, amb)
        whole = self.whole(k, p, amb)
        for j in range(1, p):
            rho = operator_power(ops, j)
            rho_c = smithhom._image_subcomplex(rho, p, amb)
            rbar_c = smithhom._image_subcomplex(operator_power(ops, p - j), p, amb)
            full = smithhom._induced_boundaries(
                [rbar + fix for rbar, fix in zip(rbar_c.bases, fixed_inc)], p, amb
            )
            # 0 -> rhobar C + C(Y^w) -> C(Y) -> rho C -> 0 is exact; with
            # rhobar C dropped, C(Y^w) alone is not the kernel of rho
            assert smithhom._les_exact(full, whole, rho_c, rho, amb, p)
            assert not smithhom._les_exact(fixed, whole, rho_c, rho, amb, p)

    def test_each_image_subcomplex_built_once(self, monkeypatch):
        k, a = sphere(5)
        built = []
        original = smithhom._image_subcomplex

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(smithhom, "_image_subcomplex", counting)
        report = verify_smith_sequences(k, a)
        assert report.all_exact
        # tau^0, ..., tau^p once each, plus H^sigma on the regular subdivision
        assert len(built) <= a.order + 2


# ---------------------------------------------------------------------------
# homology bases over GF(p) against the dense oracle


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


def _assert_homology_basis(dims, boundaries, p, label):
    """Check the sparse homology basis of the dense boundaries against the
    dense one; return it."""
    sparse = [sparse_columns(b, p, n) for b, n in zip(boundaries, dims)]
    h = smithhom._homology_basis(dims, sparse, p)
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
            _assert_homology_basis(dims, boundaries, p, (boundaries, p))

    def test_no_dense_elimination(self, monkeypatch):
        """The Smith sequences and the transfer run on sparse columns only:
        no dense product, no dense mat-vec, no dense-to-sparse conversion."""
        calls = []
        for name in ("mat_mul", "mat_vec", "sparse_columns"):
            original = getattr(linalg, name)

            def counting(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(linalg, name, counting)
            if hasattr(smithhom, name):
                monkeypatch.setattr(smithhom, name, counting)
        assert verify_smith_sequences(*sphere(5)).all_exact
        kq, aq, _ = ensure_regular(*sphere(3))
        assert transfer_check(kq, aq, 2).all_identities_hold
        assert calls == []
        # the counters see the dense entry of the public ChainComplex
        smithhom.homology(chain_complex(kq, 3))
        assert {"mat_mul", "sparse_columns"} <= set(calls)


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
    for sig, ta in zip(ops.sigma, ops.tau):
        smithhom._check_operator_identities(ops.p, sig, ta)


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
                        bad = dataclasses.replace(
                            ops, **{field: corrupt_entry(getattr(ops, field), d, i, j, ops.p)}
                        )
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
        calls = []
        original = linalg.mat_mul

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "mat_mul", counting)
        monkeypatch.setattr(smithhom, "mat_mul", counting)
        kq, aq, _ = ensure_regular(*sphere(5))
        calls.clear()
        ops = smith_operators(kq, aq)
        for i in range(ops.p + 1):
            operator_power(ops, i)
        assert calls == []
        chain_complex(kq, 5)  # the counter sees the check on boundary^2
        assert calls


def dense_chain_map(src, dst, vmap):
    """Row-major matrices per dimension of a simplicial map."""
    maps = chain_map_from_vertex_map(src, dst, vmap)
    return [dense(m, dst.n_simplices(d)) for d, m in enumerate(maps)]


def dense_maps(maps, k):
    """Each per-dimension list of sparse columns into C(k) as dense matrices."""
    return tuple([dense(m, k.n_simplices(d)) for d, m in enumerate(ms)] for ms in maps)


def dense_transfer_maps(k, a, x, vrep, q):
    """mu, sigma and g over Z_q from the s dense chain maps of the powers of
    the generator: mu sends an orbit simplex to the sign-adjusted sum of the
    images of its smallest preimage."""
    s = a.order
    pi = dense_chain_map(k, x, vrep)
    powers = [dense_chain_map(k, k, a.power(j)) for j in range(s)]
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


class TestTransferOracle:
    @pytest.mark.parametrize("p, q", [(3, 2), (5, 2), (5, 3)])
    def test_orbit_walks_match_dense_powers(self, p, q):
        for name, (k, a) in operator_models(subdivided_primes=()).items():
            if not name.endswith(f":{p}"):
                continue
            kq, aq, _ = ensure_regular(k, a)
            x, vrep = orbit_complex(kq, aq)
            pi = chain_map_from_vertex_map(kq, x, vrep)
            walked = smithhom._transfer_maps(kq, aq, x, vrep, pi, q)
            assert dense_maps(walked, kq) == dense_transfer_maps(kq, aq, x, vrep, q), (name, q)
            assert transfer_check(kq, aq, q).all_identities_hold, (name, q)


    def test_random_actions(self):
        rng = random.Random(3004)
        for n in range(30):
            p = (2, 3, 5)[n % 3]
            q = 3 if p == 2 else 2
            k, a = random_action(rng, p)
            x, vrep = orbit_complex(k, a)
            pi = chain_map_from_vertex_map(k, x, vrep)
            walked = smithhom._transfer_maps(k, a, x, vrep, pi, q)
            assert dense_maps(walked, k) == dense_transfer_maps(k, a, x, vrep, q), (k, a)
            assert transfer_check(k, a, q).all_identities_hold, (k, a)


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
