"""Tests for the four consensus classifiers, witnesses, and the no-go bound."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgossip as qg
from qgossip import consensus
from qgossip.consensus import ssc_gap, sym_kets, sym_overlap_rows
from qgossip.states import Observable, local_reduced_states, parse_sigma
from reference import kron_sym_projector

SZ = qg.PAULI["z"]
SX = qg.PAULI["x"]

NAMES = ("rhoA", "rhoB", "rhoC", "rhoD", "rhoE", "rhoF")

# classification table for the six named three-qubit states against sigma_z:
# (sigma_ec, rsc, ssc, smc)
TABLE = {
    "rhoA": (True, False, False, False),
    "rhoB": (True, True, False, False),
    "rhoC": (True, True, True, False),
    "rhoD": (True, True, True, True),
    "rhoE": (True, True, True, True),
    "rhoF": (True, True, True, True),
}

SMC_DEFECTS = {"rhoA": 0.75, "rhoB": 0.5, "rhoC": 0.75,
               "rhoD": 0.0, "rhoE": 0.0, "rhoF": 0.0}


# ---------------------------------------------------------------------------
# classification table
# ---------------------------------------------------------------------------

def test_named_state_table():
    for name in NAMES:
        rho = qg.named_state(name)
        rep = qg.classify(rho, SZ)
        got = (rep.sigma_ec, rep.rsc, rep.ssc, rep.smc)
        assert got == TABLE[name], f"{name}: {got} != {TABLE[name]}"
        assert rep.smc_defect == pytest.approx(SMC_DEFECTS[name], abs=1e-12)
        assert rep.sigma_nondegenerate


def test_failing_verdicts_have_macroscopic_gaps():
    repA = qg.classify(qg.named_state("rhoA"), SZ)
    assert repA.rsc_gap == pytest.approx(2 ** -0.5, abs=1e-12)
    assert repA.ssc_gap == pytest.approx(6 ** -0.5, abs=1e-12)
    repB = qg.classify(qg.named_state("rhoB"), SZ)
    assert repB.ssc_gap == pytest.approx(0.5, abs=1e-12)
    for name in NAMES:
        rep = qg.classify(qg.named_state(name), SZ)
        for flag, gap in ((rep.rsc, rep.rsc_gap), (rep.ssc, rep.ssc_gap),
                          (rep.smc, rep.smc_defect)):
            if not flag:
                assert gap > 1e-3


def test_local_expectations_of_named_states():
    for name in NAMES:
        rho = qg.named_state(name)
        target = 1.0 if name == "rhoE" else 0.0
        for i in (1, 2, 3):
            z = rho.expectation(qg.lift_local(SZ, i, rho.shape)).real
            assert z == pytest.approx(target, abs=1e-12)


def test_rhoA_reduced_states():
    rho = qg.named_state("rhoA")
    plus = np.full((2, 2), 0.5)
    reds = local_reduced_states(rho.matrix, rho.shape)
    np.testing.assert_allclose(reds[0], np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(reds[1], plus, atol=1e-14)
    np.testing.assert_allclose(reds[2], plus, atol=1e-14)


def test_rho_g_family_reaches_full_consensus():
    for p in (0.1, 0.5, 0.9):
        rep = qg.classify(qg.rho_g(p), SZ)
        assert (rep.sigma_ec, rep.rsc, rep.ssc, rep.smc) == (True,) * 4
        assert rep.smc_defect <= 1e-12


def test_sigma_ec_gap_for_antialigned_pair():
    shape = qg.NetworkShape(2, 2)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("01", 2), shape)
    flag, gap = qg.check_sigma_ec(rho, Observable(SZ))
    assert not flag
    assert gap == pytest.approx(2.0, abs=1e-12)


def test_ssc_without_smc_for_unmatched_observable():
    # |000> is fully symmetric yet has maximal sigma_x-SMC defect
    rep = qg.classify(qg.named_state("rhoE"), SX)
    assert rep.sigma_ec and rep.rsc and rep.ssc
    assert not rep.smc
    assert rep.smc_defect == pytest.approx(0.75, abs=1e-12)


def test_degenerate_sigma_is_flagged():
    rep = qg.classify(qg.named_state("rhoC"), np.eye(2))
    assert not rep.sigma_nondegenerate
    assert rep.sigma_ec and rep.smc  # a featureless observable is always in consensus


# ---------------------------------------------------------------------------
# symmetrized projector and the pairwise definition
# ---------------------------------------------------------------------------

def test_sym_projector_for_pauli_z():
    proj = qg.sym_projector(Observable(SZ), 3)
    expected = (np.outer(qg.basis_ket("000", 2), qg.basis_ket("000", 2))
                + np.outer(qg.basis_ket("111", 2), qg.basis_ket("111", 2)))
    np.testing.assert_allclose(proj, expected, atol=1e-14)


def test_sym_projector_for_degenerate_qutrit():
    proj = qg.sym_projector(Observable(np.diag([1.0, 1.0, 0.0])), 2)
    assert np.trace(proj).real == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)


@pytest.mark.parametrize("sigma, max_m", [
    (SZ, 8), (qg.PAULI["x"], 8), (np.diag([1.0, 1.0, 0.0]), 5),
    (np.diag([2.0, -1.0, 0.5]), 5)])
def test_sym_projector_is_idempotent(sigma, max_m):
    # the dense O(d^3) product is the oracle for the local-level family check
    obs = Observable(sigma)
    for m in range(1, max_m + 1):
        p = qg.sym_projector(obs, m)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)


def _overlap_sigma(n, kind, seed):
    if kind == "random":
        return qg.random_hermitian(n, seed)
    if n == 2:
        return qg.PAULI[kind]
    # a degenerate qutrit, one rank-2 group, in a random eigenbasis
    _, u = np.linalg.eigh(qg.random_hermitian(3, seed))
    return u @ np.diag([1.0, 1.0, -0.5]) @ u.conj().T


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
           st.tuples(st.integers(1, 6), st.just(2),
                     st.sampled_from(["random", "x", "y", "z", "identity"])),
           st.tuples(st.integers(1, 4), st.just(3), st.sampled_from(["random", "degenerate"]))),
       seed=st.integers(0, 2**16))
def test_ket_overlap_matches_dense_sym_projector(case, seed):
    # the product-ket overlap and K K^dagger against the Kronecker-built Pi_sym
    m, n, kind = case
    obs = Observable(_overlap_sigma(n, kind, seed))
    x = qg.random_hermitian(n ** m, seed + 1)
    kets = sym_kets(obs, m)
    assert kets.shape == (n ** m, sum(v.shape[1] ** m for v in obs.isometries))
    pi_sym = kron_sym_projector(obs, m)
    assert np.max(np.abs(qg.sym_projector(obs, m) - pi_sym)) <= 1e-14
    dense = np.einsum("ij,ji->", pi_sym, x).real
    assert abs(sym_overlap_rows(x.reshape(1, -1), kets)[0] - dense) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_classify_and_evolve_build_no_dense_sym_projector(monkeypatch, m):
    monkeypatch.setattr(consensus, "sym_projector",
                        mock.Mock(side_effect=AssertionError("built the dense Pi_sym")))
    g = qg.InteractionGraph(qg.NetworkShape(m, 2), [(i, i + 1) for i in range(1, m)])
    rho = qg.random_density(g.shape, 30 + m)
    qg.classify(rho, SX)
    qg.evolve(rho, g, qg.GossipConfig(alpha=0.4, strategy="cyclic", steps=m), SX)


def test_smc_pairwise_gap_values():
    assert qg.smc_pairwise_gap(qg.named_state("rhoC"),
                               Observable(SZ)) == pytest.approx(0.25, abs=1e-12)
    assert qg.smc_pairwise_gap(qg.named_state("rhoD"),
                               Observable(SZ)) == pytest.approx(0.0, abs=1e-12)


def dense_lift_pairwise_gap(rho, sigma):
    """Brute-force oracle: the pairwise SMC gap from dense d x d lifts."""
    shape = rho.shape
    lifted = [[qg.lift_local(p, i, shape) for i in shape.sites()]
              for p in sigma.projectors]
    gap = 0.0
    for j in range(len(sigma.projectors)):
        for k in range(shape.m):
            for l in range(shape.m):
                if k == l:
                    continue
                joint = np.einsum("ij,jk,ki->", lifted[j][k], lifted[j][l],
                                  rho.matrix).real
                single = np.einsum("ij,ji->", lifted[j][l], rho.matrix).real
                gap = max(gap, abs(joint - single))
    return float(gap)


def _oracle_sigmas(n):
    sigmas = {"random": qg.random_hermitian(n, 17 + n),
              "degenerate": np.diag([1.0, 1.0] + [0.0] * (n - 2))}
    if n == 2:
        sigmas.update((name, qg.PAULI[name]) for name in ("x", "y", "z"))
    return sigmas


@pytest.mark.parametrize("m,n,sigma_name", [
    (m, n, name)
    for m, n in [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4)]
    for name in _oracle_sigmas(n)])
def test_smc_pairwise_gap_matches_dense_lift_oracle(m, n, sigma_name):
    shape = qg.NetworkShape(m, n)
    obs = Observable(_oracle_sigmas(n)[sigma_name])
    digits = "".join(str((i + 1) % n) for i in range(m))
    states = [qg.random_density(shape, 100 * m + n),
              qg.named_state(digits, shape),
              qg.rho_g(0.3, m=m, n=n)]
    for rho in states:
        expected = dense_lift_pairwise_gap(rho, obs)
        assert qg.smc_pairwise_gap(rho, obs) == pytest.approx(expected, abs=1e-13)


def test_smc_pairwise_gap_allocates_no_joint_matrix():
    import tracemalloc
    rho = qg.random_density(qg.NetworkShape(8, 2), 5)
    obs = Observable(SX)
    qg.smc_pairwise_gap(rho, obs)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        qg.smc_pairwise_gap(rho, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rho.matrix.nbytes // 16


def test_smc_defect_equivalent_to_projector_invariance():
    # zero defect exactly when Pi_sym rho Pi_sym == rho, both ways
    obs = Observable(SZ)
    for name in NAMES:
        rho = qg.named_state(name)
        proj = qg.sym_projector(obs, 3)
        residual = qg.frobenius_distance(proj @ rho.matrix @ proj, rho.matrix)
        _, defect = qg.check_smc(rho, obs)
        if defect <= 1e-10:
            assert residual <= 1e-10
        else:
            assert residual > 1e-3


def test_check_smc_rejects_mismatched_observable():
    with pytest.raises(qg.ValidationError):
        qg.check_smc(qg.named_state("rhoC"), Observable(np.eye(3)))


# ---------------------------------------------------------------------------
# hierarchy and equivalences on random ensembles
# ---------------------------------------------------------------------------

def _mixed_ensemble(count, seed0):
    out = []
    shape2 = qg.NetworkShape(2, 2)
    shape3 = qg.NetworkShape(3, 2)
    proj3 = qg.sym_projector(Observable(SZ), 3)
    for k in range(count):
        kind = k % 4
        if kind == 0:
            out.append(qg.random_density(shape2, seed0 + k))
        elif kind == 1:
            out.append(qg.random_density(shape3, seed0 + k))
        elif kind == 2:
            out.append(qg.twirl(qg.random_density(shape3, seed0 + k)))
        else:
            raw = qg.random_density(shape3, seed0 + k).matrix
            sym = proj3 @ raw @ proj3
            out.append(qg.DensityOperator(sym / np.trace(sym).real, shape3))
    return out


def test_hierarchy_holds_on_mixed_ensemble():
    for rho in _mixed_ensemble(60, 5000):
        rep = qg.classify(rho, SZ)  # raises ConsistencyError on any violation
        if rep.ssc:
            assert rep.rsc and rep.sigma_ec
        if rep.smc:
            assert rep.sigma_ec


def test_rsc_iff_all_sigma_ec_on_named_and_random():
    for name in NAMES:
        assert qg.rsc_iff_all_sigma_ec(qg.named_state(name))
    for rho in _mixed_ensemble(24, 6000):
        assert qg.rsc_iff_all_sigma_ec(rho)
    qutrit = qg.random_density(qg.NetworkShape(2, 3), 61)
    assert qg.rsc_iff_all_sigma_ec(qutrit)


def test_pure_product_rsc_forces_ssc():
    ket = np.array([0.6, 0.8j])
    assert qg.pure_rsc_implies_ssc_check([ket, ket, ket])
    # distinct kets break RSC, so the check is vacuous but still passes
    assert qg.pure_rsc_implies_ssc_check([ket, np.array([1.0, 0.0]), ket])
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert qg.pure_rsc_implies_ssc_check([v, v])


# ---------------------------------------------------------------------------
# witness: RSC without SSC
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("diag,m", [
    ((0.7, 0.3), 2),
    ((0.7, 0.3), 3),
    ((0.7, 0.3), 4),
    ((0.5, 0.5), 2),
    ((0.5, 0.3, 0.2), 2),
])
def test_witness_separates_rsc_from_ssc(diag, m):
    rho_bar = np.diag(diag).astype(np.complex128)
    rho = qg.rsc_not_ssc_witness(rho_bar, m)
    rsc_flag, rsc_gap = qg.check_rsc(rho)
    ssc_flag, gap = qg.check_ssc(rho)
    assert rsc_flag and not ssc_flag
    assert gap > 1e-6
    for r in local_reduced_states(rho.matrix, rho.shape):
        np.testing.assert_allclose(r, rho_bar, atol=1e-10)


def test_witness_on_random_mixed_reduction():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho_bar = g @ g.conj().T
    rho_bar /= np.trace(rho_bar).real
    rho = qg.rsc_not_ssc_witness(rho_bar, 3)
    assert qg.check_rsc(rho)[0] and not qg.check_ssc(rho)[0]


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(2, 3), seed=st.integers(0, 2 ** 31))
def test_rsc_gap_is_bitwise_the_largest_pairwise_distance(m, n, seed):
    # one row-wise reduction over the pairs against one distance per pair
    rho = qg.random_density(qg.NetworkShape(m, n), seed)
    reds = local_reduced_states(rho.matrix, rho.shape)
    gaps = [qg.frobenius_distance(reds[i], reds[j])
            for i in range(m) for j in range(i + 1, m)]
    assert qg.check_rsc(rho)[1] == max(gaps, default=0.0)


def test_witness_rejects_pure_reduction():
    with pytest.raises(qg.ValidationError):
        qg.rsc_not_ssc_witness(np.diag([1.0, 0.0]), 2)


# ---------------------------------------------------------------------------
# no-go bound for incompatible symmetrized projectors
# ---------------------------------------------------------------------------

def test_nogo_closed_form_values():
    for n in range(2, 9):
        rep = qg.nogo_check(n)
        expected = (2.0 / n) if n % 2 == 0 else (1.0 / n)
        assert rep.lambda_max == pytest.approx(expected, abs=1e-12)


def test_nogo_only_qubits_are_feasible():
    rep2 = qg.nogo_check(2)
    assert rep2.feasible
    assert rep2.lambda_max == pytest.approx(1.0, abs=1e-9)
    assert rep2.triple_pauli_fixed_dim == 0
    for n in range(3, 9):
        rep = qg.nogo_check(n)
        assert not rep.feasible
        assert rep.lambda_max < 1.0 - 1e-3
        assert rep.triple_pauli_fixed_dim is None


def test_nogo_bell_state_is_jointly_symmetric():
    # the n=2 maximizer: the Bell vector lies in both symmetrized subspaces
    shape = qg.NetworkShape(2, 2)
    bell = (qg.basis_ket("00", 2) + qg.basis_ket("11", 2)) / np.sqrt(2)
    pz = qg.sym_projector(Observable(SZ), 2)
    px = qg.sym_projector(Observable(SX), 2)
    np.testing.assert_allclose(pz @ bell, bell, atol=1e-12)
    np.testing.assert_allclose(px @ bell, bell, atol=1e-12)


def test_nogo_validates_range():
    with pytest.raises(qg.ValidationError):
        qg.nogo_check(1)
