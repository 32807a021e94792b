"""The ambient-basis route to the Smith sequences, kept as the oracle for the
orbit-shift coordinates of exoticaffine.smithhom.

Every subcomplex of C(Y; Z_p) is given by a basis of ambient columns (the
independent columns of an operator power), its boundary is solved for on
that basis, and every map of the long exact sequences (the inclusion, the
quotient, the lift and the connecting map) is solved for in ambient
coordinates.

It also keeps the sparse-product check of the Smith operator identities,
the oracle for the orbit-walk check."""

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

import pytest

from exoticaffine import smithhom
from exoticaffine.linalg import apply_columns_mod, mul_columns_mod, rank_mod
from exoticaffine.smithhom import SmithError, chain_complex, operator_power
from gfp_oracle import column_space_basis_mod, solve_columns_mod


@dataclass
class SubComplex:
    """Subcomplex given per dimension by a basis of sparse ambient columns."""

    p: int
    bases: list  # bases[d]: sparse columns in C_d(Y)
    boundaries: list  # induced boundary, sparse columns in basis coordinates

    def dims(self):
        return [len(b) for b in self.bases]

    @cached_property
    def homology(self):
        return smithhom._homology_basis(self.dims(), self.boundaries, self.p)


@dataclass
class SequenceReport:
    """The fields of smithhom.SequenceReport, in the order the CLI prints them."""

    p: int
    subdivisions_for_quotient: int
    ses_exact: bool
    les_rho_exact: bool
    les_tau_exact: bool
    special_matches_pair: bool
    special_dims_sigma: list
    pair_dims: list
    prop4_premises: bool
    prop4_conclusion: bool


def check_operator_identities(p, sigma, tau):
    """sigma*tau = tau*sigma = 0 and sigma = tau^{p-1} by sparse products on
    the columns of one dimension, tau applied p - 1 times to each unit
    column: the oracle for the orbit-walk check of smithhom."""
    if any(apply_columns_mod(sigma, col, p) for col in tau):
        raise SmithError("sigma * tau != 0")
    if any(apply_columns_mod(tau, col, p) for col in sigma):
        raise SmithError("tau * sigma != 0")
    for j, col in enumerate(sigma):
        power = {j: 1}
        for _ in range(p - 1):
            power = apply_columns_mod(tau, power, p)
        if power != col:
            raise SmithError("sigma != tau^(p-1)")


def assert_classes_match_solver(h, d, rows, rng: random.Random, label) -> int:
    """classify_many of the homology basis h in dimension d against
    solve_columns_mod on reps[d] + boundary_basis[d], for the unit vectors
    of `rows` (C_d of h's complex) and random combinations of the basis
    columns with and without a unit vector added: the same coordinates on the
    reps for a cycle, SmithError for any other vector.  Also checks that
    each basis column owns its lowest nonzero row.  Returns the number of
    vectors that were not cycles."""
    p, cols = h.p, h.reps[d] + h.boundary_basis[d]
    assert sorted(i for i, _ in h.owners[d].values()) == list(range(len(cols))), label
    for low, (i, col) in h.owners[d].items():
        assert col is cols[i] and max(col) == low, label
    units = [{j: 1} for j in rows]
    combos = [
        apply_columns_mod(cols, {i: rng.randrange(p) for i in range(len(cols))}, p)
        for _ in range(4)
    ]
    mixed = [
        apply_columns_mod([combo, unit], {0: 1, 1: 1}, p)
        for combo, unit in zip(combos, rng.sample(units, min(4, len(units))))
    ]
    vecs = units + combos + mixed
    n = len(h.reps[d])
    solutions = solve_columns_mod(cols, vecs, p)
    for vec, x in zip(vecs, solutions):
        if x is None:
            with pytest.raises(SmithError, match="^vector is not a cycle in this complex$"):
                h.classify_many(d, [vec])
        else:
            assert h.classify_many(d, [vec]) == [{i: c for i, c in x.items() if i < n}], label
    cycles = [vec for vec, x in zip(vecs, solutions) if x is not None]
    assert h.classify_many(d, cycles) == [
        {i: c for i, c in x.items() if i < n} for x in solutions if x is not None
    ], label
    return solutions.count(None)


def induced_boundaries(bases, p, ambient_boundaries) -> SubComplex:
    boundaries: list = [[]]
    for d in range(1, len(bases)):
        images = mul_columns_mod(ambient_boundaries[d], bases[d], p)
        induced = solve_columns_mod(bases[d - 1], images, p)
        if any(x is None for x in induced):
            raise SmithError("subspace is not closed under the boundary")
        boundaries.append(induced)
    return SubComplex(p, bases, boundaries)


def image_subcomplex(matrices, p, ambient_boundaries) -> SubComplex:
    bases = [column_space_basis_mod(m, p) for m in matrices]
    return induced_boundaries(bases, p, ambient_boundaries)


def fixed_inclusion_bases(k, a):
    """Per dimension, the basis columns of the fixed subcomplex C(Y^w)."""
    fixed_vertices = {v for v in k.vertices() if a.perm[v] == v}
    return [
        [{j: 1} for j, s in enumerate(level) if fixed_vertices.issuperset(s)]
        for level in k.simplices
    ]


def les_exact(a, b, c, q, amb, p) -> bool:
    """... -> H_n(A) -> H_n(B) -> H_n(C) -> H_{n-1}(A) -> ... is exact, for
    subcomplexes given by ambient bases; q[d] is the chain map B -> C in
    ambient coordinates."""
    h_a, h_b, h_c = a.homology, b.homology, c.homology
    ndim = len(b.bases)
    i_maps, q_maps, q_on_bases = [], [], []
    for d in range(ndim):
        q_on_b = mul_columns_mod(q[d], b.bases[d], p)
        i_cols = solve_columns_mod(b.bases[d], a.bases[d], p)
        q_cols = solve_columns_mod(c.bases[d], q_on_b, p)
        if any(x is None for x in i_cols + q_cols):
            return False
        i_maps.append(i_cols)
        q_maps.append(q_cols)
        q_on_bases.append(q_on_b)

    i_star = smithhom._induced_on_homology(h_a, h_b, i_maps)
    q_star = smithhom._induced_on_homology(h_b, h_c, q_maps)

    delta_star = []
    for d in range(ndim):
        vecs = mul_columns_mod(c.bases[d], h_c.reps[d], p)
        lifts = solve_columns_mod(q_on_bases[d], vecs, p)
        if any(x is None for x in lifts):
            return False
        if d == 0:
            delta_star.append([{} for _ in lifts])
            continue
        chains = mul_columns_mod(b.bases[d], lifts, p)
        coords = solve_columns_mod(a.bases[d - 1], mul_columns_mod(amb[d], chains, p), p)
        if any(x is None for x in coords):
            return False
        delta_star.append(h_a.classify_many(d - 1, coords))

    exact_at = smithhom._exact_at
    for d in range(ndim):
        if not exact_at(i_star[d], q_star[d], h_b.dims[d], p):
            return False
        if not exact_at(q_star[d], delta_star[d], h_c.dims[d], p):
            return False
        if d >= 1 and not exact_at(delta_star[d], i_star[d - 1], h_a.dims[d - 1], p):
            return False
    top = ndim - 1
    return rank_mod(i_star[top], p) == h_a.dims[top]


def special_smith_homology(k, a, i) -> list:
    """H^rho dims for rho = tau^i, from the image subcomplex of tau^i."""
    ops = smithhom.smith_operators(k, a)
    p = ops.p
    sub = image_subcomplex(operator_power(ops, i), p, chain_complex(k, p).boundaries)
    return smithhom._dims_mod(sub.dims(), sub.boundaries, p)


def verify_smith_sequences(k, a) -> SequenceReport:
    """The Smith sequences on the tower tau^0, ..., tau^p of image
    subcomplexes, each inclusion and quotient solved for on ambient bases."""
    p = smithhom._prime_order(a)
    ops = smithhom._smith_operators(k, a)
    c = chain_complex(k, p)
    amb = c.boundaries
    fixed_inc = fixed_inclusion_bases(k, a)
    taus = [operator_power(ops, j) for j in range(p + 1)]
    images = [image_subcomplex(t, p, amb) for t in taus]

    ses_ok = les_rho_ok = les_tau_ok = True
    for j in range(1, p):
        a_j = induced_boundaries(
            [rbar + fixed for rbar, fixed in zip(images[p - j].bases, fixed_inc)], p, amb
        )
        r_inc, rank_rho = a_j.dims(), images[j].dims()
        for d, n in enumerate(c.dims):
            inc = a_j.bases[d]
            if rank_mod(inc, p) != r_inc[d]:
                ses_ok = False
            if r_inc[d] + rank_rho[d] != n:
                ses_ok = False
            if any(mul_columns_mod(taus[j][d], inc, p)):
                ses_ok = False
        les_rho_ok &= les_exact(a_j, images[0], images[j], taus[j], amb, p)
        les_tau_ok &= les_exact(images[p - 1], images[j], images[j + 1], ops.tau, amb, p)

    kq, aq, rounds = smithhom._ensure_regular(k, a)
    if rounds:
        sigma_q = smithhom._smith_operators(kq, aq).sigma
        sigma_c = image_subcomplex(sigma_q, p, chain_complex(kq, p).boundaries)
    else:
        sigma_c = images[p - 1]
    sigma_dims = smithhom._dims_mod(sigma_c.dims(), sigma_c.boundaries, p)
    xq, vrep = smithhom._orbit_complex(kq, aq)
    fixed_image = {vrep[v] for v in kq.vertices() if aq.perm[v] == v}
    pair = smithhom.relative_homology_dims(xq, fixed_image, p)
    special_ok = all(
        x == y for x, y in itertools.zip_longest(sigma_dims, pair, fillvalue=0)
    )

    fixed_simplices = [s for s in k.all_simplices() if all(a.perm[v] == v for v in s)]
    premises = (
        bool(fixed_simplices)
        and smithhom.reduced_is_trivial(smithhom.SimplicialComplex.build(fixed_simplices), p)
        and smithhom.reduced_is_trivial(xq, p)
    )
    return SequenceReport(
        p=p,
        subdivisions_for_quotient=rounds,
        ses_exact=ses_ok,
        les_rho_exact=les_rho_ok,
        les_tau_exact=les_tau_ok,
        special_matches_pair=special_ok,
        special_dims_sigma=sigma_dims,
        pair_dims=pair,
        prop4_premises=premises,
        prop4_conclusion=smithhom.reduced_is_trivial(k, p),
    )
