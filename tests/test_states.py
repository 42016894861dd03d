"""Tests for states, observables, permutations, twirling, and the one-edge
gossip channel."""

import itertools
import math

import numpy as np
import pytest

import qgossip as qg
from qgossip.consensus import ssc_gap
from qgossip.linalg import PSD_TOL
from qgossip.rng import complex_ginibre, make_rng
from qgossip.states import (Permutation, basis_index_map, check_projector_family,
                            conjugate_by_basis_map, is_permutation_invariant,
                            local_expectations, local_hermitian_basis,
                            local_reduced_states, orbit_labels, parse_sigma,
                            trace_index, transposition_maps)
from reference import apply, gossip_superoperator, permutation_unitary, swap_unitary

SZ = qg.PAULI["z"]
SX = qg.PAULI["x"]
SY = qg.PAULI["y"]
S3 = [Permutation(mp) for mp in itertools.permutations((1, 2, 3))]


# ---------------------------------------------------------------------------
# Pauli conventions
# ---------------------------------------------------------------------------

def test_pauli_matrices_match_convention():
    np.testing.assert_allclose(SZ, np.diag([1.0, -1.0]), atol=0)
    np.testing.assert_allclose(SX, [[0, 1], [1, 0]], atol=0)
    np.testing.assert_allclose(SY, [[0, -1j], [1j, 0]], atol=0)
    np.testing.assert_allclose(SX @ SY - SY @ SX, 2j * SZ, atol=0)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutation_validation():
    with pytest.raises(qg.ValidationError):
        Permutation([1, 1, 3])
    with pytest.raises(qg.ValidationError):
        Permutation([0, 1])
    p = Permutation([2, 3, 1])
    assert p(1) == 2 and p(2) == 3 and p(3) == 1
    assert p.inverse()(2) == 1


def test_permutation_helpers():
    ident = Permutation.identity(3)
    assert all(ident(i) == i for i in (1, 2, 3))
    tr = Permutation.transposition(3, 1, 3)
    assert tr(1) == 3 and tr(3) == 1 and tr(2) == 2


@pytest.mark.parametrize("m,n", [(1, 2), (4, 2), (3, 3)])
def test_transposition_maps_are_shared_read_only_basis_maps(m, n):
    shape = qg.NetworkShape(m, n)
    maps = transposition_maps(m, n)
    assert transposition_maps(m, n) is maps
    assert sorted(maps) == list(itertools.combinations(range(1, m + 1), 2))
    for (j, k), bmap in maps.items():
        np.testing.assert_array_equal(
            bmap, basis_index_map(Permutation.transposition(m, j, k), shape))
        assert not bmap.flags.writeable
    with pytest.raises(TypeError):
        maps[1, 1] = None


def test_permutation_unitary_relabels_sites():
    # U_pi (X_1 x ... x X_m) U_pi^dagger == X_pi(1) x ... x X_pi(m), all of S3
    rng = make_rng(31)
    shape = qg.NetworkShape(3, 2)
    xs = [complex_ginibre(rng, 2) for _ in range(3)]
    joint = qg.kron_all(xs)
    for perm in S3:
        u = permutation_unitary(perm, shape)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-14)
        expected = qg.kron_all([xs[perm(i) - 1] for i in (1, 2, 3)])
        np.testing.assert_allclose(u @ joint @ u.conj().T, expected, atol=1e-12)


def test_permutation_unitary_qutrit_swap():
    shape = qg.NetworkShape(2, 3)
    u = swap_unitary(1, 2, shape)
    ket = np.kron(qg.basis_ket("1", 3), qg.basis_ket("2", 3))
    np.testing.assert_allclose(u @ ket, np.kron(qg.basis_ket("2", 3),
                                                qg.basis_ket("1", 3)), atol=0)


def test_compose_matches_unitary_product():
    # compose is defined so that U_{p.compose(q)} == U_p @ U_q
    shape = qg.NetworkShape(3, 2)
    for p, q in itertools.product(S3, repeat=2):
        up = permutation_unitary(p, shape)
        uq = permutation_unitary(q, shape)
        ur = permutation_unitary(p.compose(q), shape)
        np.testing.assert_allclose(ur, up @ uq, atol=0)


def test_basis_index_map_consistent_with_unitary():
    # all of S3 at (3, 2) and (3, 3), all of S4 at (4, 2)
    rng = make_rng(33)
    for m, n in ((3, 2), (4, 2), (3, 3)):
        shape = qg.NetworkShape(m, n)
        x = complex_ginibre(rng, shape.total_dim)
        for perm in map(Permutation, itertools.permutations(range(1, m + 1))):
            u = permutation_unitary(perm, shape)
            bmap = basis_index_map(perm, shape)
            np.testing.assert_allclose(conjugate_by_basis_map(x, bmap),
                                       u @ x @ u.conj().T, atol=0)


def test_swap_unitary_on_kets():
    shape = qg.NetworkShape(2, 2)
    u = swap_unitary(1, 2, shape)
    np.testing.assert_allclose(u @ qg.basis_ket("01", 2), qg.basis_ket("10", 2), atol=0)
    np.testing.assert_allclose(u @ u, np.eye(4), atol=0)


# ---------------------------------------------------------------------------
# local lifts
# ---------------------------------------------------------------------------

def test_lift_local_places_factor():
    shape = qg.NetworkShape(3, 2)
    got = qg.lift_local(SZ, 2, shape)
    expected = np.kron(np.kron(np.eye(2), SZ), np.eye(2))
    np.testing.assert_allclose(got, expected, atol=0)
    with pytest.raises(qg.ValidationError):
        qg.lift_local(SZ, 4, shape)


def test_lift_local_is_the_kronecker_chain():
    # two guarded products with identity blocks; exact 0/1 factors change no bits
    for m, n in [(1, 2), (4, 2), (5, 2), (6, 2), (3, 3), (2, 4)]:
        shape = qg.NetworkShape(m, n)
        sigma = complex_ginibre(make_rng(40 + m), n)
        eye = np.eye(n, dtype=np.complex128)
        for site in shape.sites():
            chain = qg.kron_all(sigma if i == site else eye for i in shape.sites())
            np.testing.assert_array_equal(qg.lift_local(sigma, site, shape), chain)


def test_lifts_on_distinct_sites_commute():
    shape = qg.NetworkShape(3, 2)
    a = qg.lift_local(SX, 1, shape)
    b = qg.lift_local(SY, 3, shape)
    np.testing.assert_allclose(a @ b, b @ a, atol=0)


def test_site_average_is_permutation_invariant():
    shape = qg.NetworkShape(3, 2)
    s = qg.site_average(SZ, shape)
    assert is_permutation_invariant(s, shape)
    np.testing.assert_allclose(
        s, sum(qg.lift_local(SZ, i, shape) for i in (1, 2, 3)) / 3, atol=0)


def test_local_hermitian_basis_is_orthonormal_and_complete():
    for n in (2, 3):
        basis = local_hermitian_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            assert np.max(np.abs(a - a.conj().T)) < 1e-14
            for j, b in enumerate(basis):
                ip = np.trace(a.conj().T @ b).real
                np.testing.assert_allclose(ip, 1.0 if i == j else 0.0, atol=1e-12)


GATHER_SHAPES = [(m, 2) for m in range(1, 8)] + [(3, 3), (2, 4), (4, 4)]


@pytest.mark.parametrize("k,m,n", [
    # single-site cases keep the plain m-n id
    pytest.param(k, m, n, id=f"{m}-{n}" if k == 1 else f"{m}-{n}-k{k}")
    for m, n in GATHER_SHAPES for k in (1, 2, 3) if k <= m])
def test_gathered_reduced_states_match_partial_traces(k, m, n):
    # one gather per k-site group, against the einsum partial trace
    shape = qg.NetworkShape(m, n)
    x = complex_ginibre(make_rng(100 + 400 * k + 10 * m + n), shape.total_dim)
    x /= np.linalg.norm(x)  # a non-Hermitian X of unit Frobenius norm
    idx = trace_index(m, n, k)
    groups = list(itertools.combinations(shape.sites(), k))
    assert idx.shape == (len(groups), n ** k, n ** k, n ** (m - k))
    for g, group in enumerate(groups):
        np.testing.assert_allclose(x.ravel()[idx[g]].sum(axis=-1),
                                   qg.partial_trace(x, shape, group), rtol=0, atol=1e-14)
    assert idx is trace_index(m, n, k) and not idx.flags.writeable
    if k == 1:
        # every site from one gather, and z_i against the dense lift
        sigma = complex_ginibre(make_rng(7 * m + n), n)
        reds = local_reduced_states(x, shape)
        z = local_expectations(x, shape, sigma)
        assert reds.shape == (m, n, n) and z.shape == (m,)
        for i in shape.sites():
            np.testing.assert_allclose(reds[i - 1], qg.partial_trace(x, shape, {i}),
                                       rtol=0, atol=1e-14)
            dense = np.trace(qg.lift_local(sigma, i, shape) @ x).real
            np.testing.assert_allclose(z[i - 1], dense, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

def test_density_operator_validates_input():
    shape = qg.NetworkShape(1, 2)
    with pytest.raises(qg.ValidationError):
        qg.DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), shape)  # not Hermitian
    with pytest.raises(qg.ValidationError):
        qg.DensityOperator(np.eye(2), shape)  # trace 2
    with pytest.raises(qg.ValidationError):
        qg.DensityOperator(np.diag([1.5, -0.5]), shape)  # not PSD
    with pytest.raises(qg.DimensionError):
        qg.DensityOperator(np.eye(4) / 4, shape)


def test_density_operator_is_immutable():
    rho = qg.DensityOperator(np.eye(2) / 2, qg.NetworkShape(1, 2))
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 3.0


def test_from_ket_normalizes_and_projects():
    shape = qg.NetworkShape(2, 2)
    ket = np.array([1.0, 0, 0, 1.0])  # unnormalized Bell vector
    rho = qg.DensityOperator.from_ket(ket, shape)
    np.testing.assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-14)
    np.testing.assert_allclose(rho.purity(), 1.0, atol=1e-14)
    np.testing.assert_allclose(rho.matrix[0, 3], 0.5, atol=1e-14)


def test_expectation_and_reduced_state():
    shape = qg.NetworkShape(2, 2)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("01", 2), shape)
    assert rho.expectation(qg.lift_local(SZ, 1, shape)) == pytest.approx(1.0)
    assert rho.expectation(qg.lift_local(SZ, 2, shape)) == pytest.approx(-1.0)
    np.testing.assert_allclose(local_reduced_states(rho.matrix, shape)[1],
                               np.diag([0.0, 1.0]), atol=0)


def test_entropy_values():
    shape = qg.NetworkShape(3, 2)
    pure = qg.DensityOperator.from_ket(qg.basis_ket("000", 2), shape)
    assert qg.von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    flat = qg.DensityOperator(np.eye(8) / 8, shape)
    assert qg.von_neumann_entropy(flat) == pytest.approx(np.log(8), abs=1e-12)


@pytest.mark.parametrize("m,n", [(1, 2), (3, 2), (6, 2), (8, 2), (3, 3), (2, 4)])
def test_random_density_is_positive_semidefinite(m, n):
    # built without the eigenvalue check, since G G^dagger is PSD by construction
    shape = qg.NetworkShape(m, n)
    for seed in range(4):
        rho = qg.random_density(shape, seed)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -PSD_TOL


def test_random_density_properties_and_determinism():
    shape = qg.NetworkShape(2, 3)
    seen = []
    for seed in range(30):
        rho = qg.random_density(shape, seed)
        np.testing.assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-12)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12
        seen.append(rho.matrix)
    np.testing.assert_array_equal(qg.random_density(shape, 3).matrix, seen[3])
    assert qg.frobenius_distance(seen[0], seen[1]) > 1e-3


def test_random_hermitian_properties():
    h = qg.random_hermitian(5, 11)
    assert h.shape == (5, 5)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    np.testing.assert_array_equal(h, qg.random_hermitian(5, 11))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_observable_spectral_family_for_pauli_z():
    obs = qg.Observable(SZ)
    np.testing.assert_allclose(obs.eigenvalues, (-1.0, 1.0), atol=0)
    np.testing.assert_allclose(obs.projectors[0], np.diag([0.0, 1.0]), atol=0)
    np.testing.assert_allclose(obs.projectors[1], np.diag([1.0, 0.0]), atol=0)
    assert obs.nondegenerate


def test_observable_groups_degenerate_eigenvalues():
    obs = qg.Observable(np.diag([2.0, 2.0, 5.0]))
    assert len(obs.eigenvalues) == 2
    assert not obs.nondegenerate
    np.testing.assert_allclose(obs.projectors[0], np.diag([1.0, 1.0, 0.0]), atol=0)
    # each group keeps its read-only isometry, with V_j V_j^dagger = P_j
    assert [v.shape for v in obs.isometries] == [(3, 2), (3, 1)]
    for v, p in zip(obs.isometries, obs.projectors):
        assert not v.flags.writeable
        np.testing.assert_allclose(v @ v.conj().T, p, atol=1e-15)
    # a featureless observable collapses to a single projector
    flat = qg.Observable(np.eye(4))
    assert len(flat.projectors) == 1
    assert not flat.nondegenerate


def test_check_projector_family_rejects_a_bad_family():
    good = qg.Observable(SZ).projectors
    check_projector_family(good, 2)
    skew = np.array([[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
    tilted = np.array([[1.0, 0.1], [0.1, 0.0]])  # Hermitian, not a projector
    for family, message in [((good[0],), "sum to the identity"),
                            ((skew, np.eye(2) - skew), "not Hermitian"),
                            ((tilted, np.eye(2) - tilted), "not orthogonal")]:
        with pytest.raises(qg.ConsistencyError, match=message):
            check_projector_family(family, 2)


def test_observable_rejects_non_hermitian():
    with pytest.raises(qg.ValidationError):
        qg.Observable(np.array([[0, 1], [0, 0]], dtype=np.complex128))


def test_parse_sigma_named_and_matrix():
    obs = parse_sigma("z", 2)
    np.testing.assert_allclose(obs.matrix, SZ, atol=0)
    obs2 = parse_sigma(SX, 2)
    np.testing.assert_allclose(obs2.matrix, SX, atol=0)
    with pytest.raises(qg.ValidationError):
        parse_sigma("z", 3)
    with pytest.raises(qg.ValidationError):
        parse_sigma("nope", 2)


# ---------------------------------------------------------------------------
# twirl
# ---------------------------------------------------------------------------

def test_twirl_of_basis_state_is_type_class_mixture():
    shape = qg.NetworkShape(4, 2)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("1010", 2), shape)
    out = qg.twirl(rho)
    labels = ["1010", "1001", "0110", "0101", "1100", "0011"]
    expected = sum(np.outer(qg.basis_ket(s, 2), qg.basis_ket(s, 2).conj())
                   for s in labels) / 6
    np.testing.assert_allclose(out.matrix, expected, atol=1e-15)


def test_twirl_is_idempotent_projection():
    shape = qg.NetworkShape(3, 2)
    rho = qg.random_density(shape, 101)
    once = qg.twirl(rho)
    twice = qg.twirl(once)
    np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-10)
    assert is_permutation_invariant(once.matrix, shape)
    # trace preserved and fixed points untouched
    np.testing.assert_allclose(np.trace(once.matrix), 1.0, atol=1e-13)
    np.testing.assert_allclose(qg.twirl(once).matrix, once.matrix, atol=1e-13)


def test_twirl_preserves_symmetric_expectations():
    shape = qg.NetworkShape(3, 2)
    rho = qg.random_density(shape, 102)
    s = qg.site_average(qg.random_hermitian(2, 103), shape)
    np.testing.assert_allclose(np.trace(s @ qg.twirl(rho).matrix).real,
                               np.trace(s @ rho.matrix).real, atol=1e-12)


def test_twirl_is_orthogonal_projection():
    # the twirl is the closest permutation-invariant operator in Frobenius norm
    shape = qg.NetworkShape(3, 2)
    rho = qg.random_density(shape, 104)
    star = qg.twirl(rho)
    base = qg.frobenius_distance(rho.matrix, star.matrix)
    rng = make_rng(105)
    for _ in range(10):
        g = complex_ginibre(rng, 8)
        pert = qg.twirl_matrix((g + g.conj().T) / 2, shape)
        assert qg.frobenius_distance(rho.matrix, star.matrix + 0.1 * pert) >= base - 1e-12


TWIRL_SHAPES = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (2, 4), (4, 4)]


def enumeration_twirl(x, shape):
    """The brute-force m! group average."""
    out = np.zeros_like(x)
    for mp in itertools.permutations(shape.sites()):
        out += conjugate_by_basis_map(x, basis_index_map(Permutation(mp), shape))
    return out / math.factorial(shape.m)


def coset_twirl(x, shape):
    """``C_2 o ... o C_m`` with ``C_k(X) = (X + sum_(j<k) U_(j k) X U_(j k)) / k``.

    Every pi in S_k factors uniquely as ``sigma tau`` with sigma in S_(k-1)
    and tau in {id, (1 k), ..., (k-1 k)}: m(m-1)/2 relabellings.
    """
    maps = transposition_maps(shape.m, shape.n)
    a = x
    for k in range(2, shape.m + 1):
        acc = a.copy()
        for j in range(1, k):
            acc += conjugate_by_basis_map(a, maps[j, k])
        a = acc / k
    return a


def assert_twirl_matches(oracle, m, n):
    shape = qg.NetworkShape(m, n)
    x = complex_ginibre(make_rng(1000 + 10 * m + n), shape.total_dim)
    x_in = x.copy()
    want = oracle(x, shape)
    got = qg.twirl_matrix(x, shape)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(x, x_in)
    assert not np.shares_memory(got, x)


@pytest.mark.parametrize("m,n", TWIRL_SHAPES)
def test_twirl_matches_permutation_enumeration(m, n):
    # the orbit mean against the brute-force m! sum, on a non-Hermitian X
    assert_twirl_matches(enumeration_twirl, m, n)


@pytest.mark.parametrize("m,n", TWIRL_SHAPES)
def test_twirl_matches_coset_product(m, n):
    assert_twirl_matches(coset_twirl, m, n)


def joint_type(i, j, shape, sites):
    """Sorted pair letters ``i_k n + j_k`` over the given 1-based sites."""
    di = np.unravel_index(i, (shape.n,) * shape.m)
    dj = np.unravel_index(j, (shape.n,) * shape.m)
    return tuple(sorted(int(di[k - 1]) * shape.n + int(dj[k - 1]) for k in sites))


@pytest.mark.parametrize("m,n,blocks", [
    (1, 3, ((1,),)), (3, 2, ((1, 2, 3),)), (4, 2, ((1, 2, 3, 4),)),
    (3, 3, ((1, 2, 3),)), (2, 4, ((1, 2),)), (4, 2, ((1, 3), (2, 4))),
    (3, 2, ((1, 2), (3,))), (3, 2, ((1,), (2,), (3,)))])
def test_orbit_labels_are_joint_types(m, n, blocks):
    # two entries share a label exactly when every block has the same joint type
    shape = qg.NetworkShape(m, n)
    labels, sizes = orbit_labels(m, n, blocks)
    d = shape.total_dim
    seen = {}
    for i, j in itertools.product(range(d), repeat=2):
        key = tuple(joint_type(i, j, shape, b) for b in blocks)
        assert seen.setdefault(key, labels[i * d + j]) == labels[i * d + j]
    assert len(seen) == len(sizes) == math.prod(
        math.comb(len(b) + n * n - 1, len(b)) for b in blocks)
    assert sorted(seen.values()) == list(range(len(sizes)))
    np.testing.assert_array_equal(sizes, np.bincount(labels))
    assert not labels.flags.writeable and not sizes.flags.writeable


@pytest.mark.parametrize("m,n", [(2, 2), (5, 2), (10, 2), (3, 3), (2, 8), (2, 16)])
def test_orbit_count_is_the_number_of_joint_types(m, n):
    labels, sizes = orbit_labels(m, n, (tuple(range(1, m + 1)),))
    assert len(sizes) == math.comb(m + n * n - 1, m)
    assert int(sizes.sum()) == labels.size == n ** (2 * m)


def test_orbit_labels_are_shared_and_validated():
    blocks = ((1, 2), (3,))
    assert orbit_labels(3, 2, blocks) is orbit_labels(3, 2, blocks)
    assert orbit_labels.cache_info().maxsize == 2
    for bad in (((1, 2),), ((1, 2), (2, 3)), ((1, 2, 3, 4),)):
        with pytest.raises(qg.ValidationError):
            orbit_labels(3, 2, bad)


def test_ssc_gap_is_exact_near_symmetric_states():
    # the gap is a distance computed on the entries, so it resolves 1e-12
    # perturbations of a symmetric state (a difference of squared norms
    # would cancel to ~1e-9 here)
    shape = qg.NetworkShape(6, 2)
    assert ssc_gap(qg.rho_g(0.3, m=6)) <= 1e-15
    star = qg.twirl_matrix(qg.random_density(shape, 110).matrix, shape)
    h = qg.random_hermitian(shape.total_dim, 111)
    near = qg.DensityOperator.trusted(star + 1e-12 * h, shape)
    want = 1e-12 * qg.frobenius_distance(h, qg.twirl_matrix(h, shape))
    assert ssc_gap(near) == pytest.approx(want, rel=1e-3)


def test_twirl_is_exact_beyond_eight_sites():
    # |101010101> twirls to the uniform mixture over its C(9,5) type class
    shape = qg.NetworkShape(9, 2)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("101010101", 2), shape)
    type_class = [x for x in range(512) if bin(x).count("1") == 5]
    expected = np.zeros((512, 512), dtype=np.complex128)
    expected[type_class, type_class] = 1.0 / math.comb(9, 5)
    np.testing.assert_allclose(qg.twirl(rho).matrix, expected, rtol=0, atol=1e-15)
    assert ssc_gap(rho) == pytest.approx(
        math.sqrt(1.0 - 1.0 / math.comb(9, 5)), abs=1e-14)


def test_twirl_observable_of_lift_is_site_average():
    shape = qg.NetworkShape(3, 2)
    sig = qg.random_hermitian(2, 107)
    got = qg.twirl_matrix(qg.lift_local(sig, 1, shape), shape)
    np.testing.assert_allclose(got, qg.site_average(sig, shape), atol=1e-13)


def test_twirl_observable_duality():
    # Tr[T(Q) rho] == Tr[Q T(rho)]: the twirl of an observable is twirl_matrix
    shape = qg.NetworkShape(3, 2)
    rho = qg.random_density(shape, 108)
    q = qg.random_hermitian(8, 109)
    lhs = np.trace(qg.twirl_matrix(q, shape) @ rho.matrix)
    rhs = np.trace(q @ qg.twirl(rho).matrix)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# the gossip map as a channel
# ---------------------------------------------------------------------------

def _one_edge_update(x, alpha):
    """``(1 - alpha) x + alpha U x U^dagger`` for the swap of a two-site network."""
    return qg.gossip_update(x, qg.NetworkShape(2, 2), [(1, 2)], [1.0], alpha)


def _one_edge_dual(x, alpha):
    """The Heisenberg-picture map, from the adjoint of the dense superoperator."""
    sop = gossip_superoperator([(1, 2)], [1.0], alpha, qg.NetworkShape(2, 2))
    return apply(sop.conj().T, x)


def test_channel_duality_random_sweep():
    shape = qg.NetworkShape(2, 2)
    rng = make_rng(111)
    for _ in range(20):
        rho = qg.random_density(shape, int(rng.integers(0, 10 ** 6)))
        x = qg.random_hermitian(4, int(rng.integers(0, 10 ** 6)))
        lhs = np.trace(x @ _one_edge_update(rho.matrix, 0.3))
        rhs = np.trace(_one_edge_dual(x, 0.3) @ rho.matrix)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unital_channel_fixes_identity_and_raises_entropy():
    shape = qg.NetworkShape(2, 2)
    np.testing.assert_allclose(_one_edge_dual(np.eye(4), 0.4), np.eye(4), atol=1e-12)
    for seed in range(8):
        rho = qg.random_density(shape, seed)
        out = qg.DensityOperator(_one_edge_update(rho.matrix, 0.4), shape)
        assert qg.von_neumann_entropy(out) >= qg.von_neumann_entropy(rho) - 1e-9


# ---------------------------------------------------------------------------
# named states
# ---------------------------------------------------------------------------

def test_basis_ket_digit_order():
    np.testing.assert_allclose(qg.basis_ket("10", 2),
                               np.kron([0.0, 1.0], [1.0, 0.0]), atol=0)
    ket = qg.basis_ket("12", 3)
    assert ket[1 * 3 + 2] == 1.0 and np.sum(np.abs(ket)) == 1.0
    with pytest.raises(qg.ValidationError):
        qg.basis_ket("02", 2)


def test_named_state_lookup_and_digits():
    rho = qg.named_state("rhoE")
    np.testing.assert_allclose(rho.matrix,
                               np.outer(qg.basis_ket("000", 2), qg.basis_ket("000", 2)),
                               atol=0)
    shape = qg.NetworkShape(2, 2)
    rho01 = qg.named_state("01", shape)
    np.testing.assert_allclose(local_reduced_states(rho01.matrix, shape)[0],
                               np.diag([1.0, 0.0]), atol=0)
    seeded = qg.named_state("random:5", shape)
    np.testing.assert_array_equal(seeded.matrix, qg.random_density(shape, 5).matrix)
    with pytest.raises(qg.ValidationError):
        qg.named_state("rhoZZ")


def test_rho_g_mixes_extremal_basis_states():
    lo = np.outer(qg.basis_ket("000", 2), qg.basis_ket("000", 2))
    hi = np.outer(qg.basis_ket("111", 2), qg.basis_ket("111", 2))
    for p in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(qg.rho_g(p).matrix, p * lo + (1 - p) * hi,
                                   atol=1e-15)
    # the balanced point recovers the named two-spike mixture
    np.testing.assert_allclose(qg.rho_g(0.5).matrix, qg.named_state("rhoD").matrix,
                               atol=1e-15)
    with pytest.raises(qg.ValidationError):
        qg.rho_g(1.5)
