"""Simplicial homology, cyclic actions, Smith operators, transfer, sequences."""

import random

import pytest

from exoticaffine import linalg, smithhom
from exoticaffine.fpgroups import AbelianGroup
from exoticaffine.linalg import identity, mat_vec, rref_mod, solve_many_mod
from exoticaffine.smithhom import (
    BadPrime,
    CyclicAction,
    NotAComplex,
    NotPrime,
    NotRegular,
    SimplicialComplex,
    action_from_json,
    action_to_json,
    barycentric_subdivide,
    chain_complex,
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
            assert all(all(x == 0 for x in row) for row in ops.sigma[d])
            assert all(all(x == 0 for x in row) for row in ops.tau[d])

    def test_sigma_is_tau_power_p5(self):
        k, a = free_circle(5)
        ops = smith_operators(k, a)
        sigma = operator_power(ops, 4)
        assert tuple(tuple(tuple(r) for r in m) for m in sigma) == tuple(
            tuple(tuple(r) for r in m) for m in ops.sigma
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
        return [list(map(list, b)) for b in chain_complex(k, p).boundaries]

    @staticmethod
    def whole(k, p, amb):
        """C(Y) with the identity basis."""
        mats = [identity(k.n_simplices(d)) for d in range(k.dimension + 1)]
        return smithhom._image_subcomplex(k, mats, p, amb)

    def test_zero_into_whole_complex(self):
        k, _ = sphere()
        p = 3
        amb = self.ambient(k, p)
        ns = [k.n_simplices(d) for d in range(k.dimension + 1)]
        zero_maps = [[[0] * n for _ in range(n)] for n in ns]
        zero = smithhom._image_subcomplex(k, zero_maps, p, amb)
        whole = self.whole(k, p, amb)
        ones = [identity(n) for n in ns]
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
            rho_c = smithhom._image_subcomplex(k, rho, p, amb)
            rbar_c = smithhom._image_subcomplex(k, operator_power(ops, p - j), p, amb)
            full = smithhom._induced_boundaries(
                [
                    [r + f for r, f in zip(rbar, fix)]
                    for rbar, fix in zip(rbar_c.bases, fixed_inc)
                ],
                p,
                amb,
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
    """Check the sparse homology basis against the dense one; return it."""
    h = smithhom._homology_basis(dims, boundaries, p)
    reps_o, bnds_o, cycles_o = dense_homology_basis(dims, boundaries, p)
    assert h.dims == [len(r) for r in reps_o], label
    for d, n in enumerate(dims):
        reps, bnd = h.reps[d], h.boundary_basis[d]
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
        calls = []
        original = linalg.rref_mod

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "rref_mod", counting)
        kq, _, _ = ensure_regular(*sphere(3))
        c = chain_complex(kq, 3)
        h = smithhom._homology_basis(list(c.dims), c.boundaries, 3)
        assert h.dims == [1, 0, 1]
        assert calls == []
        # the counter sees the dense elimination behind the solver
        solve_many_mod(c.boundaries[1], [[0] * c.dims[0]], 3)
        assert len(calls) == 1
