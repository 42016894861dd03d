"""Acceptance gate: one test per headline criterion, one pass/fail line each.

Every test prints ``ACCEPTANCE <id>: PASS ...`` on success; a failure raises
before the line is printed and pytest reports the single FAILED line instead.
Stated runtime budgets are asserted as part of each criterion.
"""

import json
import time

import numpy as np
import pytest

import qgossip as qg
import qgossip.cli as cli
from qgossip.rng import trial_rng
from qgossip.states import Observable
from reference import orbit_blocks, random_hermitian

SZ = qg.PAULI["z"]


def _report(tag, started, detail):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {tag}: PASS ({detail}; {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. classification table for the six named three-qubit states
# ---------------------------------------------------------------------------

def test_criterion_1_classification_table():
    started = time.monotonic()
    expected = {
        "rhoA": (True, False, False, False),
        "rhoB": (True, True, False, False),
        "rhoC": (True, True, True, False),
        "rhoD": (True, True, True, True),
        "rhoE": (True, True, True, True),
        "rhoF": (True, True, True, True),
    }
    for name, flags in expected.items():
        rep = qg.classify(qg.named_state(name), SZ, tol=1e-8)
        got = (rep.sigma_ec, rep.rsc, rep.ssc, rep.smc)
        assert got == flags, f"{name}: {got} != {flags}"
        for flag, gap in ((rep.sigma_ec, rep.sigma_ec_gap),
                          (rep.rsc, rep.rsc_gap), (rep.ssc, rep.ssc_gap),
                          (rep.smc, rep.smc_defect)):
            if not flag:
                assert gap > 1e-3, f"{name}: failing gap {gap} not macroscopic"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("1 classification-table", started, "6 states, all verdicts exact")


# ---------------------------------------------------------------------------
# 2. cyclic gossip on the four-qubit path from |1010>
# ---------------------------------------------------------------------------

def test_criterion_2_cyclic_convergence_and_conservation():
    started = time.monotonic()
    shape = qg.NetworkShape(4, 2)
    graph = qg.InteractionGraph(shape, [(1, 2), (2, 3), (3, 4)])
    rho0 = qg.DensityOperator.from_ket(qg.basis_ket("1010", 2), shape)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=500)
    rec, final = qg.evolve(rho0, graph, cfg, SZ)
    star = qg.twirl(rho0)

    dist = qg.frobenius_distance(final.matrix, star.matrix)
    assert dist < 1e-8, f"distance to twirl {dist:.3e} after 500 steps"

    drift = float(np.max(np.abs(rec.s_expect - rec.s_expect[0])))
    assert drift <= 1e-10, f"site-average expectation drifted by {drift:.3e}"

    # The limit keeps a sigma_z-SMC defect of exactly 1: its support (the
    # six weight-2 basis states) is orthogonal to span{|0000>, |1111>}.
    # In particular the defect exceeds the 1 - 2/6 floor suggested by
    # counting projector ranks alone.
    defect_final = float(rec.smc_defect[-1])
    assert defect_final >= 1 - 2 / 6 - 1e-8
    assert abs(defect_final - 1.0) <= 1e-8
    proj = qg.sym_projector(Observable(SZ), 4)
    w, v = qg.eigh(star.matrix)
    support = v[:, w > 1e-12] @ v[:, w > 1e-12].conj().T
    overlap = float(np.trace(proj @ support).real)
    assert overlap <= 2.0 + 1e-12

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("2 cyclic-path-convergence", started,
            f"dist {dist:.1e}, conservation drift {drift:.1e}, "
            f"final smc defect {defect_final:.3f}")


# ---------------------------------------------------------------------------
# 3. almost-sure convergence of randomized gossip
# ---------------------------------------------------------------------------

def test_criterion_3_randomized_convergence_ensemble():
    started = time.monotonic()
    shape = qg.NetworkShape(4, 2)
    graph = qg.InteractionGraph(shape, [(1, 2), (2, 3), (3, 4)])
    rho0 = qg.random_density(shape, 2024)
    exp = qg.probability_one_convergence_experiment(
        graph, 0.5, rho0, eps=1e-10, num_trials=200, horizon=500, seed=777)
    assert exp.max_distance_increase <= 1e-12
    assert exp.empirical_probability >= 0.99
    assert exp.max_final_sq_distance <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report("3 randomized-convergence", started,
            f"{exp.successes}/200 trials, worst sq distance "
            f"{exp.max_final_sq_distance:.1e}")


# ---------------------------------------------------------------------------
# 4. spectral certificates and exact fixed-space dimensions
# ---------------------------------------------------------------------------

def test_criterion_4_spectral_certificates():
    started = time.monotonic()
    shape3 = qg.NetworkShape(3, 2)
    cases = [
        (qg.InteractionGraph(qg.NetworkShape(2, 2), [(1, 2)]), 10),
        (qg.InteractionGraph(shape3, [(1, 2), (2, 3)]), 20),
        (qg.InteractionGraph(shape3, [(1, 2), (2, 3), (1, 3)]), 20),
    ]
    for graph, expected_dim in cases:
        # the orbit blocks, and the class blocks that `qgossip spectrum` certifies
        certs = [qg.spectral_certificate(blocks(graph, 0.5), q0=0.5)
                 for blocks in (orbit_blocks, qg.synchronous_classes)]
        for cert in certs:
            assert cert.disk_ok
            assert cert.max_imag <= 1e-9
            ev = cert.eigenvalues.real
            assert np.all(ev >= -1e-9) and np.all(ev <= 1.0 + 1e-9)
            assert cert.unit_eigenvalue_count == cert.block_count == expected_dim
        dim, _ = qg.fixed_point_space(graph)
        oracle = qg.commutant_dimension(graph)
        assert dim == oracle == expected_dim
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("4 spectral-certificates", started,
            "unit-eigenspace dimensions 10/20/20 match the commutant oracle")


# ---------------------------------------------------------------------------
# 5. exact quantum/classical gossip correspondence
# ---------------------------------------------------------------------------

def _random_connected_graph(shape, rng):
    m = shape.m
    edges = set()
    nodes = list(range(1, m + 1))
    rng.shuffle(nodes)
    for i in range(1, m):
        j = nodes[int(rng.integers(0, i))]
        edges.add(tuple(sorted((nodes[i], j))))
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    for _ in range(int(rng.integers(0, m))):
        edges.add(pairs[int(rng.integers(0, len(pairs)))])
    return qg.InteractionGraph(shape, sorted(edges))


def test_criterion_5_quantum_classical_correspondence():
    started = time.monotonic()
    worst_dev = 0.0
    worst_limit = 0.0
    for trial in range(50):
        rng = trial_rng(20260814, trial)
        m = int(rng.integers(2, 5))
        shape = qg.NetworkShape(m, 2)
        graph = _random_connected_graph(shape, rng)
        alpha = float(0.4 + 0.2 * rng.random())
        g = (rng.standard_normal((shape.total_dim,) * 2)
             + 1j * rng.standard_normal((shape.total_dim,) * 2))
        rho0 = qg.DensityOperator((g @ g.conj().T) / np.trace(g @ g.conj().T).real,
                                  shape)
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sigma = (s + s.conj().T) / 2
        cfg = qg.GossipConfig(alpha=alpha, strategy="random", steps=300,
                              seed=int(rng.integers(0, 2 ** 31)))
        res = qg.correspondence_run(rho0, sigma, graph, cfg, fail_above=1e-11)
        worst_dev = max(worst_dev, res.max_deviation)
        worst_limit = max(worst_limit, res.classical_limit_deviation)
    assert worst_dev < 1e-11
    assert worst_limit <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("5 quantum-classical-correspondence", started,
            f"50 scenarios, worst deviation {worst_dev:.1e}, "
            f"worst limit error {worst_limit:.1e}")


# ---------------------------------------------------------------------------
# 6. hierarchy and projector equivalence over a 500-state sweep
# ---------------------------------------------------------------------------

def test_criterion_6_hierarchy_and_witnesses():
    started = time.monotonic()
    shape2 = qg.NetworkShape(2, 2)
    shape3 = qg.NetworkShape(3, 2)
    shape_q = qg.NetworkShape(2, 3)
    obs_z = Observable(SZ)
    proj3 = qg.sym_projector(obs_z, 3)
    sigma_q = Observable(random_hermitian(3, 4242))
    assert sigma_q.nondegenerate

    batch = []
    for seed in range(150):
        batch.append((qg.random_density(shape3, seed), obs_z))
    for seed in range(150, 250):
        batch.append((qg.random_density(shape2, seed), obs_z))
    for seed in range(250, 350):
        batch.append((qg.twirl(qg.random_density(shape3, seed)), obs_z))
    for seed in range(350, 450):
        raw = qg.random_density(shape3, seed).matrix
        sym = proj3 @ raw @ proj3
        batch.append((qg.DensityOperator(sym / np.trace(sym).real, shape3), obs_z))
    for seed in range(450, 500):
        batch.append((qg.random_density(shape_q, seed), sigma_q))
    assert len(batch) == 500

    for rho, sigma in batch:
        rep = qg.classify(rho, sigma, tol=1e-8)  # raises on hierarchy violation
        # symmetrized-projector test agrees with projector invariance
        proj = qg.sym_projector(sigma, rho.shape.m)
        residual = qg.frobenius_distance(proj @ rho.matrix @ proj, rho.matrix)
        if rep.smc_defect <= 1e-8:
            assert residual <= 1e-7
        else:
            assert residual > 1e-9

    witnesses = 0
    for k in range(10):
        rho_bar = qg.random_density(qg.NetworkShape(1, 2), 900 + k).matrix
        rho = qg.rsc_not_ssc_witness(rho_bar, 2 + (k % 2))
        assert qg.check_rsc(rho)[0] and not qg.check_ssc(rho)[0]
        witnesses += 1
    for k in range(5):
        rho_bar = qg.random_density(qg.NetworkShape(1, 3), 950 + k).matrix
        rho = qg.rsc_not_ssc_witness(rho_bar, 2)
        assert qg.check_rsc(rho)[0] and not qg.check_ssc(rho)[0]
        witnesses += 1
    for p in (0.6, 0.7, 0.8, 0.9, 0.95):
        rho = qg.rsc_not_ssc_witness(np.diag([p, 1 - p]), 3)
        assert qg.check_rsc(rho)[0] and not qg.check_ssc(rho)[0]
        witnesses += 1
    assert witnesses == 20

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("6 hierarchy-and-witnesses", started,
            "500 states classified, 20 separating witnesses")


# ---------------------------------------------------------------------------
# 7. no-go bound for joint measurement consensus
# ---------------------------------------------------------------------------

def test_criterion_7_nogo_bound():
    started = time.monotonic()
    rep2 = qg.nogo_check(2)
    assert abs(rep2.lambda_max - 1.0) <= 1e-9
    assert rep2.feasible
    assert rep2.triple_pauli_fixed_dim == 0
    for n in range(3, 9):
        rep = qg.nogo_check(n)
        assert rep.lambda_max < 1.0 - 1e-3, f"n={n}: {rep.lambda_max}"
        assert not rep.feasible
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("7 nogo-bound", started,
            "n=2 feasible with trivial triple-observable space, n=3..8 blocked")


# ---------------------------------------------------------------------------
# bundled figure scenario: structural check of the emitted trajectory
# ---------------------------------------------------------------------------

def test_fig3_scenario_structure(tmp_path):
    started = time.monotonic()
    from importlib.resources import files
    scenario = str(files("qgossip") / "scenarios" / "fig3.json")
    assert cli.main(["evolve", scenario, "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig3_trajectory.csv").read_text().splitlines()
    assert lines[0] == "# manifest: fig3_manifest.json"
    assert len(lines) == 303
    for row in lines[3:]:  # every sampled step t >= 1
        zs = [round(float(v), 9) for v in row.split(",")[2:6]]
        assert len(set(zs)) <= 3
        assert all(abs(z) <= 1 + 1e-12 for z in zs)
    summary = json.loads((tmp_path / "fig3_summary.json").read_text())
    assert summary["final_distance_to_twirl"] < 1e-8
    _report("fig3 trajectory-structure", started,
            "301 samples, at most 3 distinct site expectations per step")
