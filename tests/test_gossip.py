"""Tests for gossip channels, trajectories, superoperators, and certificates."""

import importlib.util
import itertools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgossip as qg
from qgossip import gossip as gossip_module
from qgossip import states as states_module
from qgossip.consensus import ssc_gap
from qgossip.rng import draw_index, make_rng, trial_rng
from qgossip.scenario import load_scenario
from qgossip.states import (basis_index_map, conjugate_by_basis_map, local_expectations,
                            orbit_labels, twirl_matrix)
from reference import (apply, conjugate, evolve_per_step, gossip_superoperator, scatter_update,
                       swap_unitary)

SZ = qg.PAULI["z"]


def path_graph(m, n=2, weights=None):
    shape = qg.NetworkShape(m, n)
    return qg.InteractionGraph(shape, [(i, i + 1) for i in range(1, m)],
                               weights=weights)


def edge_bmap(edge, shape):
    return basis_index_map(qg.Permutation.transposition(shape.m, *edge), shape)


# ---------------------------------------------------------------------------
# graphs and configs
# ---------------------------------------------------------------------------

def test_graph_normalizes_edges():
    shape = qg.NetworkShape(3, 2)
    g = qg.InteractionGraph(shape, [(2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))
    np.testing.assert_allclose(g.weights, [0.5, 0.5], atol=0)


def test_graph_rejects_bad_edges_and_weights():
    shape = qg.NetworkShape(3, 2)
    with pytest.raises(qg.ValidationError):
        qg.InteractionGraph(shape, [(1, 1)])
    with pytest.raises(qg.ValidationError):
        qg.InteractionGraph(shape, [(1, 4)])
    with pytest.raises(qg.ValidationError):
        qg.InteractionGraph(shape, [(1, 2), (2, 1)])  # duplicate after sorting
    with pytest.raises(qg.ValidationError):
        qg.InteractionGraph(shape, [(1, 2), (2, 3)], weights=[0.9, 0.2])
    with pytest.raises(qg.ValidationError):
        qg.InteractionGraph(shape, [(1, 2), (2, 3)], weights=[1.2, -0.2])
    with pytest.raises(qg.ValidationError):
        qg.InteractionGraph(shape, [(1, 2)], weights=[0.5, 0.5])


def test_graph_connectivity():
    assert path_graph(4).is_connected()
    shape = qg.NetworkShape(4, 2)
    split = qg.InteractionGraph(shape, [(1, 2), (3, 4)])
    assert not split.is_connected()
    assert qg.InteractionGraph(qg.NetworkShape(1, 2), []).is_connected()


def test_graph_components():
    shape = qg.NetworkShape(5, 2)
    assert path_graph(4).components() == ((1, 2, 3, 4),)
    assert qg.InteractionGraph(shape, [(3, 4), (1, 4)]).components() == ((1, 3, 4), (2,), (5,))
    assert qg.InteractionGraph(shape, [(2, 5), (3, 4), (1, 3)]).components() == (
        (1, 3, 4), (2, 5))
    assert qg.InteractionGraph(shape, []).components() == ((1,), (2,), (3,), (4,), (5,))


def test_gossip_config_validation():
    with pytest.raises(qg.ValidationError):
        qg.GossipConfig(alpha=0.0, strategy="random", steps=1, seed=1)
    with pytest.raises(qg.ValidationError):
        qg.GossipConfig(alpha=1.0, strategy="random", steps=1, seed=1)
    with pytest.raises(qg.ValidationError):
        qg.GossipConfig(alpha=0.5, strategy="bogus", steps=1)
    with pytest.raises(qg.ValidationError):
        qg.GossipConfig(alpha=0.5, strategy="random", steps=-1, seed=1)
    with pytest.raises(qg.ValidationError):
        qg.GossipConfig(alpha=0.5, strategy="random", steps=1)  # seed required
    with pytest.raises(qg.ValidationError):
        qg.GossipConfig(alpha=0.5, strategy="random", steps=1, seed=1,
                        cycle_order=(0,))
    # seeds and step counts are integers: 1.9 is not truncated to seed 1, nor True to 1 step
    for field, bad in (("seed", 1.9), ("seed", True), ("seed", "1"), ("seed", -1),
                       ("steps", True), ("steps", 2.0)):
        with pytest.raises(qg.ValidationError, match=f"{field} must be a nonnegative integer"):
            qg.GossipConfig(**{"alpha": 0.5, "strategy": "random", "steps": 1, "seed": 1,
                               field: bad})
    qg.GossipConfig(alpha=0.5, strategy="random", steps=np.int64(2), seed=np.uint32(1))
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=3)
    assert cfg.resolved_cycle_order(path_graph(3)) == (0, 1)
    for bad in ([0], [(1, 2), (2, 3)], [0, 1.0], [True, 1], ["0", 1]):
        with pytest.raises(qg.ValidationError):
            qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=3,
                            cycle_order=bad).resolved_cycle_order(path_graph(3))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

ALPHA_ENTRY_POINTS = {
    "GossipConfig": lambda a: qg.GossipConfig(alpha=a, strategy="cyclic", steps=1),
    "dual_fixed_point_check": lambda a: qg.dual_fixed_point_check(
        path_graph(2), a, np.eye(4)),
    "ensemble": lambda a: qg.probability_one_convergence_experiment(
        path_graph(2), a, qg.random_density(qg.NetworkShape(2, 2), 1),
        eps=1e-10, num_trials=1, horizon=1, seed=1),
    "classical_gossip_step": lambda a: qg.classical_gossip_step([0.0, 1.0], (1, 2), a),
    "run_classical": lambda a: qg.run_classical([0.0, 1.0], path_graph(2), a, [(1, 2)]),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_every_alpha_entry_point_rejects_the_closed_ends_and_nan(entry, alpha):
    with pytest.raises(qg.ValidationError, match=r"alpha must lie strictly in \(0, 1\)"):
        ALPHA_ENTRY_POINTS[entry](alpha)


def test_gossip_channel_kraus_structure():
    # one edge is the trace-preserving, unital operator sum with Kraus operators
    # sqrt(1 - alpha) I and sqrt(alpha) U
    shape = qg.NetworkShape(2, 2)
    ops = [np.sqrt(0.7) * np.eye(4), np.sqrt(0.3) * swap_unitary(1, 2, shape)]
    np.testing.assert_allclose(sum(a.conj().T @ a for a in ops), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(sum(a @ a.conj().T for a in ops), np.eye(4), atol=1e-15)
    rng = make_rng(60)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = qg.gossip_update(x, shape, [(1, 2)], [1.0], 0.3)
    np.testing.assert_allclose(out, sum(conjugate(a, x) for a in ops), atol=1e-15)


def test_gossip_channel_on_antialigned_pair():
    shape = qg.NetworkShape(2, 2)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("01", 2), shape)
    out = qg.gossip_update(rho.matrix, shape, [(1, 2)], [1.0], 0.5)
    expected = 0.5 * rho.matrix + 0.5 * np.outer(qg.basis_ket("10", 2),
                                                 qg.basis_ket("10", 2))
    np.testing.assert_allclose(out, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_single_step_matches_channel():
    g = path_graph(2)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("01", 2), g.shape)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=1)
    rec, final = qg.evolve(rho, g, cfg, SZ)
    np.testing.assert_allclose(rec.z[0], [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(rec.z[1], [0.0, 0.0], atol=1e-14)
    # for two sites at alpha = 1/2 one step lands exactly on the twirl
    np.testing.assert_allclose(final.matrix, qg.twirl(rho).matrix, atol=1e-15)
    assert rec.ssc_gap[1] <= 1e-12
    assert rec.edges == [(1, 2)]


def test_record_tracks_final_state():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 3)
    cfg = qg.GossipConfig(alpha=0.3, strategy="random", steps=20, seed=8)
    rec, final = qg.evolve(rho, g, cfg, SZ)
    for i in (1, 2, 3):
        z = final.expectation(qg.lift_local(SZ, i, g.shape)).real
        assert z == pytest.approx(rec.z[-1][i - 1], abs=1e-12)
    assert rec.steps == 20
    assert len(rec.edges) == 20
    assert rec.termination == "steps_exhausted"


@pytest.mark.parametrize("strategy,seed", [("random", 5), ("cyclic", None),
                                           ("synchronous", None)])
def test_recorded_ssc_gap_is_the_final_state_gap(strategy, seed):
    # evolve measures against the twirl of rho_0, which every step conserves:
    # bitwise that distance, and the state's own gap to within rounding
    g = path_graph(4)
    rho = qg.random_density(g.shape, 13)
    cfg = qg.GossipConfig(alpha=0.35, strategy=strategy, steps=25, seed=seed)
    rec, final = qg.evolve(rho, g, cfg, SZ)
    star = twirl_matrix(rho.matrix, g.shape)
    assert rec.ssc_gap[-1] == qg.frobenius_distance(final.matrix, star)
    assert rec.ssc_gap[0] == qg.frobenius_distance(rho.matrix, star)
    assert abs(rec.ssc_gap[-1] - ssc_gap(final)) <= 1e-14
    assert rec.ssc_gap[0] == ssc_gap(rho)


@pytest.mark.parametrize("strategy,seed", [("random", 5), ("cyclic", None),
                                           ("synchronous", None)])
def test_recorded_smc_defect_is_the_final_state_defect(strategy, seed):
    # evolve and check_smc share matrix_smc_defect, so they agree bitwise
    g = path_graph(4)
    rho = qg.random_density(g.shape, 17)
    obs = qg.Observable(qg.PAULI["x"])
    cfg = qg.GossipConfig(alpha=0.35, strategy=strategy, steps=25, seed=seed)
    rec, final = qg.evolve(rho, g, cfg, obs)
    assert rec.smc_defect[-1] == qg.check_smc(final, obs)[1]
    assert rec.smc_defect[0] == qg.check_smc(rho, obs)[1]


def test_evolve_validates_no_state_per_step(monkeypatch):
    g = path_graph(4)
    rho = qg.random_density(g.shape, 2)
    init = qg.DensityOperator.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qg.DensityOperator, "__init__", counting_init)
    counts = []
    for steps in (5, 50):
        built.clear()
        cfg = qg.GossipConfig(alpha=0.4, strategy="random", steps=steps, seed=1)
        qg.evolve(rho, g, cfg, SZ)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_evolve_twirls_a_fixed_number_of_times(monkeypatch):
    g = path_graph(4)
    rho = qg.random_density(g.shape, 2)
    twirl = states_module.twirl_matrix
    calls = []

    def counting_twirl(*args):
        calls.append(None)
        return twirl(*args)

    for mod in (states_module, qg.consensus, gossip_module):
        monkeypatch.setattr(mod, "twirl_matrix", counting_twirl)
    monkeypatch.setattr(gossip_module, "site_average",
                        mock.Mock(side_effect=AssertionError("evolve built S")))
    counts = []
    for steps in (5, 50):
        calls.clear()
        cfg = qg.GossipConfig(alpha=0.4, strategy="random", steps=steps, seed=1)
        qg.evolve(rho, g, cfg, SZ)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def inject_fault(monkeypatch, fault):
    """Make every evolve step apply ``fault`` to the state gossip_update writes."""
    update = gossip_module.gossip_update

    def faulty(*args, **kwargs):
        new = update(*args, **kwargs)
        new[...] = fault(new)
        return new

    monkeypatch.setattr(gossip_module, "gossip_update", faulty)


def test_evolve_rejects_a_step_that_moves_the_twirl(monkeypatch):
    # eps (|0..0><1..1| + h.c.) changes no reduced state, so no z_i and no
    # S_expect moves, but it is its own orbit, so the twirl moves by eps
    g = path_graph(3)
    d, eps = g.shape.total_dim, 1e-6
    delta = np.zeros((d, d), dtype=complex)
    delta[0, -1] = delta[-1, 0] = eps
    for sigma in (SZ, qg.PAULI["x"]):
        assert not local_expectations(delta, g.shape, sigma).any()
    assert np.array_equal(twirl_matrix(delta, g.shape), delta)
    inject_fault(monkeypatch, lambda x: x + delta)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=3)
    with pytest.raises(qg.ConsistencyError, match="twirl of the final state drifted by 3"):
        qg.evolve(qg.random_density(g.shape, 4), g, cfg, qg.PAULI["x"])


def test_evolve_rejects_a_step_that_moves_away_from_the_twirl(monkeypatch):
    # doubling the distance to the twirl keeps the twirl and the mean of the z_i
    g = path_graph(3)
    inject_fault(monkeypatch, lambda x: 2 * x - twirl_matrix(x, g.shape))
    cfg = qg.GossipConfig(alpha=0.05, strategy="cyclic", steps=3)
    with pytest.raises(qg.ConsistencyError, match="distance to the twirl increased .* step 1$"):
        qg.evolve(qg.random_density(g.shape, 4), g, cfg, SZ)


def test_site_average_is_conserved_along_all_strategies():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 12)
    target = np.trace(qg.site_average(SZ, g.shape) @ rho.matrix).real
    for strategy, seed in (("random", 4), ("cyclic", None),
                           ("synchronous", None), ("expected", None)):
        cfg = qg.GossipConfig(alpha=0.45, strategy=strategy, steps=30, seed=seed)
        rec, _ = qg.evolve(rho, g, cfg, SZ)
        np.testing.assert_allclose(rec.s_expect, target, atol=1e-10)


def test_random_trajectory_is_reproducible():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 21)
    cfg = qg.GossipConfig(alpha=0.5, strategy="random", steps=25, seed=99)
    rec1, fin1 = qg.evolve(rho, g, cfg, SZ)
    rec2, fin2 = qg.evolve(rho, g, cfg, SZ)
    assert rec1.edges == rec2.edges
    np.testing.assert_array_equal(rec1.z, rec2.z)
    np.testing.assert_array_equal(fin1.matrix, fin2.matrix)
    cfg_other = qg.GossipConfig(alpha=0.5, strategy="random", steps=25, seed=100)
    rec3, _ = qg.evolve(rho, g, cfg_other, SZ)
    assert rec1.edges != rec3.edges


def test_expected_strategy_equals_superoperator_iteration():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 31)
    cfg = qg.GossipConfig(alpha=0.4, strategy="expected", steps=10)
    _, final = qg.evolve(rho, g, cfg, SZ)
    sop = qg.synchronous_superoperator(g, 0.4)
    x = rho.matrix
    for _ in range(10):
        x = apply(sop, x)
    np.testing.assert_allclose(final.matrix, x, atol=1e-12)
    # synchronous is an alias strategy for the same deterministic map
    cfg_sync = qg.GossipConfig(alpha=0.4, strategy="synchronous", steps=10)
    _, final_sync = qg.evolve(rho, g, cfg_sync, SZ)
    np.testing.assert_allclose(final_sync.matrix, final.matrix, atol=1e-13)


def test_expected_map_is_monte_carlo_average():
    # frozen-seed comparison: final-step expectations within three standard
    # errors, and edge-draw frequencies match the weights
    g = path_graph(3, weights=[0.75, 0.25])
    rho = qg.DensityOperator.from_ket(qg.basis_ket("100", 2), g.shape)
    steps, n_mc = 12, 500
    rec_exp, _ = qg.evolve(rho, g, qg.GossipConfig(
        alpha=0.4, strategy="expected", steps=steps), SZ)
    acc = np.zeros((steps + 1, 3))
    acc2 = np.zeros_like(acc)
    counts = {e: 0 for e in g.edges}
    for trial in range(n_mc):
        cfg = qg.GossipConfig(alpha=0.4, strategy="random", steps=steps,
                              seed=int(trial_rng(1234, trial).integers(0, 2 ** 31)))
        rec, _ = qg.evolve(rho, g, cfg, SZ)
        acc += rec.z
        acc2 += rec.z ** 2
        for e in rec.edges:
            counts[e] += 1
    mean = acc / n_mc
    se = np.sqrt(np.maximum(acc2 / n_mc - mean ** 2, 0.0) / n_mc)
    dev = np.abs(mean[steps] - rec_exp.z[steps])
    assert np.all(dev <= 3.0 * se[steps])
    n_draws = n_mc * steps
    for e, q in zip(g.edges, g.weights):
        freq = counts[e] / n_draws
        assert abs(freq - q) <= 3.0 * np.sqrt(q * (1 - q) / n_draws)


def test_cyclic_strategy_walks_the_order():
    g = path_graph(4)
    rho = qg.random_density(g.shape, 41)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=7,
                          cycle_order=(2, 0, 1))
    rec, _ = qg.evolve(rho, g, cfg, SZ)
    expected = [g.edges[i] for i in (2, 0, 1, 2, 0, 1, 2)]
    assert rec.edges == expected


def test_single_site_network_is_inert():
    shape = qg.NetworkShape(1, 2)
    g = qg.InteractionGraph(shape, [])
    rho = qg.DensityOperator(np.diag([0.25, 0.75]), shape)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=5)
    rec, final = qg.evolve(rho, g, cfg, SZ)
    np.testing.assert_allclose(final.matrix, rho.matrix, atol=0)
    assert np.all(rec.z == rec.z[0])


def test_zero_steps_records_initial_point_only():
    g = path_graph(2)
    rho = qg.random_density(g.shape, 51)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=0)
    rec, final = qg.evolve(rho, g, cfg, SZ)
    assert rec.z.shape == (1, 2)
    np.testing.assert_array_equal(final.matrix, rho.matrix)


def test_stop_gap_terminates_early():
    g = path_graph(3)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("100", 2), g.shape)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=500, stop_gap=1e-6)
    rec, final = qg.evolve(rho, g, cfg, SZ)
    assert rec.termination.startswith("converged_at_step_")
    assert rec.steps < 500
    assert rec.ssc_gap[-1] <= 1e-6


def test_edge_schedule_streams():
    g = path_graph(4, weights=[0.2, 0.5, 0.3])
    cum = np.cumsum(g.weights)
    cfg = qg.GossipConfig(alpha=0.5, strategy="random", steps=0, seed=41)
    rng = make_rng(41)
    assert list(itertools.islice(qg.edge_schedule(g, cfg), 50)) \
        == [draw_index(rng, cum) for _ in range(50)]
    # an explicit generator replaces the config seed (one sub-stream per trial)
    rng = trial_rng(41, 3)
    assert list(itertools.islice(qg.edge_schedule(g, cfg, trial_rng(41, 3)), 50)) \
        == [draw_index(rng, cum) for _ in range(50)]
    cyc = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=0, cycle_order=(2, 0, 1, 0))
    assert list(itertools.islice(qg.edge_schedule(g, cyc), 9)) \
        == [2, 0, 1, 0, 2, 0, 1, 0, 2]
    natural = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=0)
    assert list(itertools.islice(qg.edge_schedule(g, natural), 4)) == [0, 1, 2, 0]
    for strategy in ("synchronous", "expected"):
        sync = qg.GossipConfig(alpha=0.5, strategy=strategy, steps=0)
        assert list(itertools.islice(qg.edge_schedule(g, sync), 3)) == [None] * 3
    single = qg.InteractionGraph(qg.NetworkShape(1, 2), [])
    for c in (cfg, natural):
        assert list(itertools.islice(qg.edge_schedule(single, c), 3)) == [None] * 3


def test_single_site_network_runs_identity_steps():
    shape = qg.NetworkShape(1, 2)
    g = qg.InteractionGraph(shape, [])
    rho = qg.random_density(shape, 9)
    for strategy in qg.gossip.STRATEGIES:
        cfg = qg.GossipConfig(alpha=0.5, strategy=strategy, steps=3, seed=2)
        rec, final = qg.evolve(rho, g, cfg, SZ)
        assert rec.edges == [None] * 3
        assert rec.termination == "steps_exhausted"
        np.testing.assert_array_equal(final.matrix, rho.matrix)
        np.testing.assert_array_equal(rec.z, np.repeat(rec.z[:1], 4, axis=0))


def test_edgeless_network_is_rejected_by_every_strategy():
    g = qg.InteractionGraph(qg.NetworkShape(3, 2), [])
    rho = qg.random_density(g.shape, 10)
    for strategy in qg.gossip.STRATEGIES:
        cfg = qg.GossipConfig(alpha=0.5, strategy=strategy, steps=3, seed=2)
        with pytest.raises(qg.ValidationError,
                           match=f"{strategy} strategy needs at least one edge"):
            qg.evolve(rho, g, cfg, SZ)


def test_disconnected_graph_warns_and_misses_global_twirl():
    shape = qg.NetworkShape(4, 2)
    g = qg.InteractionGraph(shape, [(1, 2), (3, 4)])
    rho = qg.DensityOperator.from_ket(qg.basis_ket("1100", 2), shape)
    cfg = qg.GossipConfig(alpha=0.5, strategy="expected", steps=60)
    with pytest.warns(UserWarning):
        rec, final = qg.evolve(rho, g, cfg, SZ)
    # component-local averages (-1,-1) and (+1,+1) cannot equalize globally
    np.testing.assert_allclose(rec.z[-1], [-1.0, -1.0, 1.0, 1.0], atol=1e-9)
    assert qg.frobenius_distance(final.matrix, qg.twirl(rho).matrix) > 0.1


# ---------------------------------------------------------------------------
# superoperators
# ---------------------------------------------------------------------------

def test_superoperator_matches_channel_action():
    g = path_graph(3)
    sop = qg.synchronous_superoperator(g, 0.5)
    swaps = [swap_unitary(*e, g.shape) for e in g.edges]
    rng = make_rng(61)
    for _ in range(20):
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        expected = sum(q * (0.5 * x + 0.5 * conjugate(u, x))
                       for q, u in zip(g.weights, swaps))
        np.testing.assert_allclose(apply(sop, x), expected, atol=1e-10)


def test_superoperator_dimension_cap():
    g = path_graph(7)  # joint dimension 128 > 64
    with pytest.raises(qg.ResourceLimitError):
        qg.synchronous_superoperator(g, 0.5)


def test_synchronous_blocks_fail_before_building():
    # the cap and the edge check raise at the first block, before any is built
    with pytest.raises(qg.ResourceLimitError):
        next(qg.synchronous_blocks(path_graph(7), 0.5))
    with pytest.raises(qg.ValidationError):
        next(qg.synchronous_blocks(qg.InteractionGraph(qg.NetworkShape(3, 2), []), 0.5))


def test_synchronous_superoperator_is_real_symmetric():
    sop = qg.synchronous_superoperator(path_graph(3), 0.5)
    assert np.max(np.abs(sop.imag)) < 1e-14
    assert np.max(np.abs(sop - sop.T)) < 1e-12


def test_gossip_maps_are_frobenius_contractions():
    g = path_graph(3)
    sop = qg.synchronous_superoperator(g, 0.3)
    rng = make_rng(63)
    for _ in range(15):
        a = qg.random_density(g.shape, int(rng.integers(0, 10 ** 6))).matrix
        b = qg.random_density(g.shape, int(rng.integers(0, 10 ** 6))).matrix
        before = qg.frobenius_distance(a, b)
        after = qg.frobenius_distance(apply(sop, a), apply(sop, b))
        assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# permutation-native maps against the Kraus oracle
# ---------------------------------------------------------------------------

@st.composite
def weighted_graphs(draw, shapes):
    """A random connected graph with random positive weights summing to one."""
    m, n = draw(st.sampled_from(shapes))
    shape = qg.NetworkShape(m, n)
    tree = {(draw(st.integers(1, k - 1)), k) for k in range(2, m + 1)}
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    edges = sorted(tree | draw(st.sets(st.sampled_from(pairs), max_size=2)))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(edges), max_size=len(edges)))
    return qg.InteractionGraph(shape, edges, [w / sum(raw) for w in raw])


@settings(max_examples=25, deadline=None)
@given(g=weighted_graphs([(m, 2) for m in range(2, 6)] + [(2, 3), (3, 3)]),
       strategy=st.sampled_from(gossip_module.STRATEGIES),
       alpha=st.floats(0.01, 0.99), data=st.data())
def test_evolve_record_matches_a_dense_replay(g, strategy, alpha, data):
    # S_expect (mean of z) against Tr[S rho_t], and the distance to twirl(rho_0)
    # against the per-step orbit mean, on a replay by dense swap conjugations
    shape = g.shape
    seeds = [data.draw(st.integers(0, 2 ** 31)) for _ in range(3)]
    rho = qg.random_density(shape, seeds[0])
    sigma = qg.random_hermitian(shape.n, seeds[1])
    cfg = qg.GossipConfig(alpha=alpha, strategy=strategy, steps=6, seed=seeds[2])
    rec, _ = qg.evolve(rho, g, cfg, sigma)
    s_mat = qg.site_average(sigma, shape)
    swaps = {e: swap_unitary(*e, shape) for e in g.edges}
    x = rho.matrix
    for t in range(rec.steps + 1):
        if t:
            edge = rec.edges[t - 1]
            terms = zip(g.edges, g.weights) if edge is None else [(edge, 1.0)]
            x = (1 - alpha) * x + sum(alpha * q * swaps[e] @ x @ swaps[e].conj().T
                                      for e, q in terms)
        assert abs(rec.s_expect[t] - np.trace(s_mat @ x).real) <= 1e-14
        assert abs(rec.ssc_gap[t] - ssc_gap(qg.DensityOperator.trusted(x, shape))) <= 1e-14


def block_and_step_runs(rho, g, cfg, sigma, per_block, fault=None, at=None):
    """``(block route, per-step reference)``, each its ``(record, final matrix)``
    or its ConsistencyError message. ``evolve`` takes ``per_block`` steps a
    block; ``fault`` replaces the state of the ``at``-th gossip_update call."""
    update = gossip_module.gossip_update
    budget = (per_block + 1) * 16 * g.shape.total_dim ** 2
    results = []
    for route in (lambda: qg.evolve(rho, g, cfg, sigma), lambda: evolve_per_step(rho, g, cfg, sigma)):
        calls = itertools.count(1)

        def patched(*args, **kwargs):
            new = update(*args, **kwargs)
            if next(calls) == at:
                new[...] = fault(new)
            return new

        with mock.patch.object(gossip_module, "RECORD_BLOCK_BYTES", budget), \
                mock.patch.object(gossip_module, "gossip_update", patched):
            try:
                rec, final = route()
            except qg.ConsistencyError as exc:
                results.append(str(exc))
            else:
                results.append((rec, final.matrix))
    return results


def assert_same_run(block, step):
    assert type(block) is type(step)
    if isinstance(step, str):
        assert block == step
        return
    (rec, final), (ref, ref_final) = block, step
    assert (rec.edges, rec.termination, rec.steps) == (ref.edges, ref.termination, ref.steps)
    for name in ("z", "s_expect", "ssc_gap", "smc_defect"):
        np.testing.assert_allclose(getattr(rec, name), getattr(ref, name), rtol=0, atol=1e-14)
    assert np.array_equal(final, ref_final)


@settings(max_examples=30, deadline=None)
@given(g=weighted_graphs([(m, 2) for m in range(2, 6)] + [(2, 3), (3, 3)]),
       strategy=st.sampled_from(gossip_module.STRATEGIES),
       alpha=st.floats(0.01, 0.99), steps=st.integers(0, 9),
       per_block=st.integers(1, 3), data=st.data())
def test_block_record_matches_the_per_step_loop(g, strategy, alpha, steps, per_block, data):
    # blocks of 1-3 steps against one step at a time: the record, a stop_gap
    # that lands inside a block, and a faulty step reported at the same step
    seeds = [data.draw(st.integers(0, 2 ** 31)) for _ in range(3)]
    rho = qg.random_density(g.shape, seeds[0])
    sigma = qg.random_hermitian(g.shape.n, seeds[1])
    cfg = qg.GossipConfig(alpha=alpha, strategy=strategy, steps=steps, seed=seeds[2])
    block, step = block_and_step_runs(rho, g, cfg, sigma, per_block)
    assert_same_run(block, step)

    if steps >= 2:
        s = data.draw(st.integers(1, steps - 1))
        gaps = step[0].ssc_gap
        stop = qg.GossipConfig(alpha=alpha, strategy=strategy, steps=steps, seed=seeds[2],
                               stop_gap=float(gaps[s] + gaps[s - 1]) / 2)
        block, step = block_and_step_runs(rho, g, stop, sigma, per_block)
        assert_same_run(block, step)
        assert step[0].termination != "steps_exhausted" or gaps[s] == gaps[s - 1]

    if steps:
        d = g.shape.total_dim
        delta = np.zeros((d, d), dtype=complex)
        delta[0, 0] = 1e-6
        fault = data.draw(st.sampled_from([lambda x: 2 * x - twirl_matrix(x, g.shape),
                                           lambda x: x + delta]))
        at = data.draw(st.integers(1, steps))
        block, step = block_and_step_runs(rho, g, cfg, sigma, per_block, fault, at)
        assert_same_run(block, step)


@settings(max_examples=15, deadline=None)
@given(g=weighted_graphs([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]),
       alpha=st.floats(0.01, 0.99))
def test_permutation_superoperators_match_kraus_oracle(g, alpha):
    per_edge = [gossip_superoperator([e], [1.0], alpha, g.shape) for e in g.edges]
    sync = qg.synchronous_superoperator(g, alpha)
    oracle = sum(q * s for q, s in zip(g.weights, per_edge))
    np.testing.assert_allclose(sync, oracle, rtol=0, atol=1e-14)

    d = g.shape.total_dim
    rng = make_rng(5)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    np.testing.assert_allclose(qg.gossip_update(x, g.shape, g.edges, g.weights, alpha),
                               apply(sync, x), rtol=0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(g=weighted_graphs([(m, 2) for m in range(2, 7)] + [(2, 3), (3, 3)]),
       alpha=st.floats(0.01, 0.99), data=st.data())
def test_single_edge_update_is_bitwise_the_step(g, alpha, data):
    e = data.draw(st.sampled_from(g.edges))
    b = edge_bmap(e, g.shape)
    rng = make_rng(data.draw(st.integers(0, 2 ** 31)))
    d = g.shape.total_dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.array_equal(qg.gossip_update(x, g.shape, [e], [1.0], alpha),
                          (1 - alpha) * x + alpha * conjugate_by_basis_map(x, b))


@settings(max_examples=40, deadline=None)
@given(g=weighted_graphs([(m, 2) for m in range(2, 7)] + [(m, 3) for m in range(2, 5)]),
       alpha=st.floats(0.01, 0.99), use_out=st.booleans(), data=st.data())
def test_transposed_update_is_bitwise_the_scatter(g, alpha, use_out, data):
    # one edge, every edge and no edge, against one basis-map scatter per
    # edge; compared as bits, so signed zeros count
    e = data.draw(st.sampled_from(g.edges))
    rng = make_rng(data.draw(st.integers(0, 2 ** 31)))
    d = g.shape.total_dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x[rng.random((d, d)) < 0.2] = -0.0
    for edges, weights in (([e], [1.0]), (g.edges, g.weights), ([], [])):
        out = np.full_like(x, np.nan) if use_out else None
        got = qg.gossip_update(x, g.shape, edges, weights, alpha, out=out)
        want = scatter_update(x, g.shape, edges, weights, alpha)
        assert got is not x and (out is None or got is out)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("edges", [[(i, i + 1) for i in range(1, 8)],
                                   list(itertools.combinations(range(1, 9), 2))])
def test_update_allocates_one_scratch_whatever_the_edge_count(edges):
    # at m = 8 a complex d x d matrix is 1 MiB; the update writes into `out`
    # and needs one scratch matrix besides, not one per edge
    g = qg.InteractionGraph(qg.NetworkShape(8, 2), edges)
    d = g.shape.total_dim
    x = qg.random_density(g.shape, 3).matrix
    buf = np.empty((d, d), dtype=np.complex128)
    tracemalloc.start()
    try:
        got = qg.gossip_update(x, g.shape, g.edges, g.weights, 0.4, out=buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got is buf and buf.flags.c_contiguous
    assert peak <= 16 * d * d + 2 ** 16


def test_update_without_edges_is_the_identity():
    x = make_rng(7).standard_normal((2, 2)) + 0j
    out = qg.gossip_update(x, qg.NetworkShape(1, 2), [], [], 0.4)
    assert out is not x and np.array_equal(out, x)


@settings(max_examples=20, deadline=None)
@given(g=weighted_graphs([(m, 2) for m in range(2, 6)]),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       data=st.data())
def test_recorded_edges_are_the_schedule_prefix(g, alpha, data):
    cover = list(range(len(g.edges)))
    cover += data.draw(st.lists(st.sampled_from(cover), max_size=3))
    order = tuple(data.draw(st.permutations(cover)))
    seed = data.draw(st.integers(0, 2 ** 31))
    rho = qg.random_density(g.shape, data.draw(st.integers(0, 2 ** 31)))
    steps = 12
    for strategy in ("random", "cyclic", "synchronous"):
        cfg = qg.GossipConfig(
            alpha=alpha, strategy=strategy, steps=steps, seed=seed,
            cycle_order=order if strategy == "cyclic" else None)
        prefix = [None if i is None else g.edges[i]
                  for i in itertools.islice(qg.edge_schedule(g, cfg), steps)]
        rec, _ = qg.evolve(rho, g, cfg, SZ)
        assert rec.edges == prefix
        if strategy != "synchronous":
            res = qg.correspondence_run(rho, SZ, g, cfg)
            assert res.classical.edges == prefix
            assert res.max_deviation <= 1e-12


# ---------------------------------------------------------------------------
# spectral certificates
# ---------------------------------------------------------------------------

def test_certificate_for_synchronous_maps():
    for graph, expected_dim in ((path_graph(2), 10), (path_graph(3), 20)):
        sop = qg.synchronous_superoperator(graph, 0.5)
        cert = qg.spectral_certificate([sop], q0=0.5)
        assert cert.passed and cert.disk_ok
        assert cert.max_imag <= 1e-9
        assert cert.unit_eigenvalue_count == expected_dim
        ev = cert.eigenvalues
        assert np.all(ev.real >= -1e-9) and np.all(ev.real <= 1 + 1e-9)
        assert cert.spectral_gap > 1e-3


def test_certificate_gap_value_for_three_site_path():
    sop = qg.synchronous_superoperator(path_graph(3), 0.5)
    cert = qg.spectral_certificate([sop], q0=0.5)
    assert cert.spectral_gap == pytest.approx(0.25, abs=1e-12)


def test_certificate_disk_for_asymmetric_alpha():
    sop = qg.synchronous_superoperator(path_graph(3), 0.3)
    cert = qg.spectral_certificate([sop], q0=0.7)
    assert cert.disk_ok
    assert np.all(np.abs(cert.eigenvalues - 0.7) <= 0.3 + 1e-9)


def sweep_superoperator(g, order, alpha):
    """One cyclic sweep on ``x.ravel()``: the per-edge maps composed in ``order``."""
    sweep = np.eye(g.shape.total_dim ** 2, dtype=complex)
    for idx in order:
        sweep = gossip_superoperator([g.edges[idx]], [1.0], alpha, g.shape) @ sweep
    return sweep


def test_certificate_covers_cycle_superoperator():
    # one sweep is a convex combination with identity weight (1-alpha)^T
    g = path_graph(3)
    alpha = 0.4
    sweep = sweep_superoperator(g, [0, 1], alpha)
    cert = qg.spectral_certificate([sweep], q0=(1 - alpha) ** 2)
    assert cert.disk_ok
    assert cert.unit_eigenvalue_count == 20


def sorted_spectrum(ev):
    return ev[np.lexsort((np.round(ev.imag, 9), np.round(ev.real, 9)))]


@settings(max_examples=10, deadline=None)
@given(g=weighted_graphs([(2, 2), (3, 2), (4, 2), (2, 3)]),
       alpha=st.floats(0.05, 0.95), data=st.data())
def test_blockwise_certificate_matches_the_dense_eigensolve(g, alpha, data):
    # the certificate solves the synchronous map one orbit block at a time
    order = data.draw(st.permutations(range(len(g.edges))))
    sync = qg.synchronous_superoperator(g, alpha)
    sweep = sweep_superoperator(g, order, alpha)
    for blocks, sop in ((qg.synchronous_blocks(g, alpha), sync), ([sweep], sweep)):
        cert = qg.spectral_certificate(blocks, q0=1.0 - alpha)
        np.testing.assert_allclose(sorted_spectrum(cert.eigenvalues),
                                   sorted_spectrum(np.linalg.eigvals(sop)),
                                   rtol=0, atol=1e-10)
        assert cert.unit_eigenvalue_count == np.prod(
            [math.comb(len(c) + g.shape.n ** 2 - 1, len(c)) for c in g.components()])


@st.composite
def graphs_with_edges(draw, shapes):
    """A random graph with at least one edge, connected or not, and random weights."""
    m, n = draw(st.sampled_from(shapes))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(edges), max_size=len(edges)))
    return qg.InteractionGraph(qg.NetworkShape(m, n), edges, [w / sum(raw) for w in raw])


@settings(max_examples=25, deadline=None)
@given(g=graphs_with_edges([(m, 2) for m in range(2, 6)] + [(2, 3), (3, 3), (2, 4)]),
       alpha=st.floats(0.01, 0.99))
def test_synchronous_blocks_are_the_dense_blocks(g, alpha):
    dense = qg.synchronous_superoperator(g, alpha)
    labels, sizes = orbit_labels(g.shape.m, g.shape.n, g.components())
    blocks = list(qg.synchronous_blocks(g, alpha))
    assert len(blocks) == len(sizes)
    for o, block in enumerate(blocks):
        rows = np.flatnonzero(labels == o)
        assert block.dtype == np.complex128
        assert np.array_equal(block, dense[np.ix_(rows, rows)])
    assert not dense[labels[:, None] != labels[None, :]].any()


@settings(max_examples=25, deadline=None)
@given(g=graphs_with_edges([(m, 2) for m in range(2, 6)] + [(2, 3), (3, 3), (2, 4)]),
       alpha=st.floats(0.01, 0.99))
def test_class_blocks_certify_as_the_orbit_blocks(g, alpha):
    # one real symmetric block per isomorphism class stands for `count` orbit blocks
    classes = list(qg.synchronous_classes(g, alpha))
    cert = qg.spectral_certificate(classes, q0=1.0 - alpha)
    ref = qg.spectral_certificate(qg.synchronous_blocks(g, alpha), q0=1.0 - alpha)
    np.testing.assert_allclose(np.sort(cert.eigenvalues), np.sort(ref.eigenvalues.real),
                               rtol=0, atol=1e-13)
    assert ref.max_imag <= 1e-13 and cert.max_imag == 0.0
    assert cert.second_largest_eigenvalue == pytest.approx(ref.second_largest_eigenvalue,
                                                           abs=1e-13)
    labels, sizes = orbit_labels(g.shape.m, g.shape.n, g.components())
    assert sum(c.count for c in classes) == cert.block_count == ref.block_count == len(sizes)
    assert cert.unit_eigenvalue_count == ref.unit_eigenvalue_count
    assert cert.disk_ok and ref.disk_ok
    dense = qg.synchronous_superoperator(g, alpha)
    for c in classes:
        assert c.block.dtype == np.float64
        assert np.array_equal(c.rows, np.flatnonzero(labels == labels[c.rows[0]]))
        assert np.array_equal(c.block, c.block.T)
        assert np.array_equal(c.block, dense[np.ix_(c.rows, c.rows)].real)


def test_synchronous_classes_fail_before_building():
    # the largest block is the most even letter split: 9!/(3! 2! 2! 2!) rows at m=9
    with pytest.raises(qg.ResourceLimitError, match="7560 rows"):
        next(qg.synchronous_classes(path_graph(9), 0.5))
    with pytest.raises(qg.ValidationError):
        next(qg.synchronous_classes(qg.InteractionGraph(qg.NetworkShape(3, 2), []), 0.5))
    assert next(qg.synchronous_classes(path_graph(8), 0.5)).count == 4  # 2520 rows fit
    # small components keep every block small, whatever m
    split = qg.InteractionGraph(qg.NetworkShape(9, 2), [(1, 2), (3, 4)])
    assert max(len(c.rows) for c in qg.synchronous_classes(split, 0.5)) == 4
    # but the certificate lists all 4**m eigenvalues
    split = qg.InteractionGraph(qg.NetworkShape(10, 2), [(1, 2), (3, 4)])
    with pytest.raises(qg.ResourceLimitError, match="1048576 eigenvalues"):
        next(qg.synchronous_classes(split, 0.5))


def test_modulus_gap_and_second_eigenvalue_differ_past_one_half():
    # at alpha = 0.9 the negative end 1 - 2 alpha sets the modulus gap, not lambda_2
    g = path_graph(3)  # L_q has lambda_2 = 1/2
    cert = qg.spectral_certificate(qg.synchronous_classes(g, 0.9), q0=0.1)
    assert cert.second_largest_eigenvalue == pytest.approx(1 - 0.9 * 0.5, abs=1e-13)
    assert g.laplacian_gap() == pytest.approx(0.5, abs=1e-14)
    assert cert.spectral_gap == pytest.approx(1 - 0.8, abs=1e-13)
    assert np.min(cert.eigenvalues) == pytest.approx(1 - 2 * 0.9, abs=1e-13)


def test_certificate_rejects_pure_swap():
    # a bare swap has eigenvalue -1, far outside the q0 = 0.5 disk
    shape = qg.NetworkShape(2, 2)
    u = swap_unitary(1, 2, shape)
    cert = qg.spectral_certificate([np.kron(u, u.conj())], q0=0.5)
    assert not cert.disk_ok and not cert.passed
    assert cert.max_disk_violation == pytest.approx(1.0, abs=1e-9)


def test_certificate_validates_q0():
    sop = qg.synchronous_superoperator(path_graph(2), 0.5)
    with pytest.raises(qg.ValidationError):
        qg.spectral_certificate([sop], q0=0.0)
    with pytest.raises(qg.ValidationError):
        qg.spectral_certificate([sop], q0=1.5)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_point_dimensions():
    assert qg.fixed_point_space(path_graph(2))[0] == 10
    assert qg.fixed_point_space(path_graph(3))[0] == 20
    triangle = qg.InteractionGraph(qg.NetworkShape(3, 2), [(1, 2), (2, 3), (1, 3)])
    assert qg.fixed_point_space(triangle)[0] == 20


def test_certificate_counts_one_block_per_fixed_point():
    split = qg.InteractionGraph(qg.NetworkShape(4, 2), [(1, 2), (3, 4)])
    for g in (path_graph(2), path_graph(4), split):
        cert = qg.spectral_certificate(qg.synchronous_blocks(g, 0.4), q0=0.6)
        assert cert.block_count == qg.fixed_point_space(g)[0] == cert.unit_eigenvalue_count
    dense = qg.synchronous_superoperator(path_graph(3), 0.4)
    assert qg.spectral_certificate([dense], q0=0.6).block_count == 1


def test_fixed_point_dimension_matches_commutant():
    for g in (path_graph(2), path_graph(3), path_graph(4)):
        dim, _ = qg.fixed_point_space(g)
        assert dim == qg.commutant_dimension(g)


def test_disconnected_graph_has_larger_fixed_space():
    shape = qg.NetworkShape(4, 2)
    split = qg.InteractionGraph(shape, [(1, 2), (3, 4)])
    dim_split = qg.commutant_dimension(split)
    dim_path = qg.commutant_dimension(path_graph(4))
    assert dim_split == 100
    assert dim_path == 35
    assert dim_split > dim_path


def test_commutant_without_edges_is_everything():
    shape = qg.NetworkShape(2, 2)
    g = qg.InteractionGraph(shape, [])
    assert qg.commutant_dimension(g) == 16


def test_fixed_point_basis_properties():
    g = path_graph(3)
    dim, basis = qg.fixed_point_space(g)
    assert len(basis) == dim
    sop = qg.synchronous_superoperator(g, 0.5)
    swaps = [swap_unitary(*e, g.shape) for e in g.edges]
    for i, x in enumerate(basis):
        assert np.max(np.abs(x - x.conj().T)) < 1e-9
        np.testing.assert_allclose(apply(sop, x), x, atol=1e-8)
        for u in swaps:
            np.testing.assert_allclose(u @ x, x @ u, atol=1e-8)
        for j, y in enumerate(basis):
            ip = np.trace(x.conj().T @ y).real
            np.testing.assert_allclose(ip, 1.0 if i == j else 0.0, atol=1e-9)
    # the identity and the conserved site average live in the span
    coords = np.stack([b.ravel() for b in basis])
    for target in (np.eye(8, dtype=complex), qg.site_average(SZ, g.shape)):
        v = target.ravel()
        proj = coords.conj() @ v
        np.testing.assert_allclose(coords.T @ proj, v, atol=1e-9)


def assert_orbit_basis(g):
    """The closed-form fixed space against the commutant oracle and its definition."""
    dim, basis = qg.fixed_point_space(g)
    assert len(basis) == dim == qg.commutant_dimension(g)
    flat = np.stack([x.ravel() for x in basis])
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(dim), rtol=0, atol=1e-12)
    bmaps = [edge_bmap(e, g.shape) for e in g.edges]
    for x in basis:
        np.testing.assert_array_equal(x, x.conj().T)
        for b in bmaps:
            np.testing.assert_array_equal(conjugate_by_basis_map(x, b), x)
    return dim


@pytest.mark.parametrize("m,n,edges,expected", [
    (2, 2, [(1, 2)], 10),
    (3, 2, [(1, 2), (2, 3), (1, 3)], 20),
    (4, 2, [(1, 2), (2, 3), (3, 4)], 35),
    (5, 2, [(1, 2), (2, 3), (3, 4), (4, 5)], 56),
    (3, 3, [(1, 2), (2, 3)], 165),
    (4, 2, [(1, 2), (3, 4)], 100),
    (3, 2, [(1, 2)], 40),
])
def test_fixed_space_is_the_orbit_basis(m, n, edges, expected):
    g = qg.InteractionGraph(qg.NetworkShape(m, n), edges)
    assert assert_orbit_basis(g) == expected


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_orbit_basis_matches_commutant_on_random_graphs(data):
    m, n = data.draw(st.sampled_from([(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = qg.InteractionGraph(qg.NetworkShape(m, n), [p for p, k in zip(pairs, keep) if k])
    expected = np.prod([math.comb(len(c) + n * n - 1, len(c)) for c in g.components()])
    assert assert_orbit_basis(g) == expected


def test_cyclic_decay_rate_matches_cycle_spectrum():
    # fit the per-sweep contraction over sweeps 4..14 and compare with the
    # second-largest modulus of the sweep superoperator (within 20 percent)
    g = path_graph(3)
    alpha = 0.5
    sweep = sweep_superoperator(g, [0, 1], alpha)
    moduli = np.abs(np.linalg.eigvals(sweep))
    lam2 = float(np.max(moduli[moduli < 1 - 1e-9]))
    rho = qg.DensityOperator.from_ket(qg.basis_ket("100", 2), g.shape)
    star = qg.twirl(rho).matrix
    dists = []
    x = rho.matrix
    for _ in range(15):
        dists.append(qg.frobenius_distance(x, star))
        x = apply(sweep, x)
    ts = np.arange(4, 15)
    slope = np.polyfit(ts, np.log(np.asarray(dists)[4:15]), 1)[0]
    assert abs(np.exp(slope) - lam2) / lam2 < 0.2


# ---------------------------------------------------------------------------
# conserved site averages
# ---------------------------------------------------------------------------

def test_s_average_check_recovers_local_observable():
    g = path_graph(3)
    s = qg.site_average(SZ, g.shape)
    samples = [qg.random_density(g.shape, k) for k in range(3)]
    rep = qg.s_average_check(s, g, 0.5, samples)
    assert rep.decomposable
    assert rep.residual <= 1e-10
    np.testing.assert_allclose(rep.sigma, SZ, atol=1e-9)
    assert rep.conservation_drift <= 1e-10
    assert rep.limit_deviation <= 1e-8
    assert rep.limit_mismatch <= 1e-8


def test_s_average_check_flags_entangled_invariant():
    # sigma_z^(x)3 is permutation invariant and conserved, but is not a site
    # average of any single-site observable and its limit is not the mean
    g = path_graph(3)
    s = qg.kron_all([SZ, SZ, SZ])
    rho0 = qg.DensityOperator.from_ket(qg.basis_ket("000", 2), g.shape)
    rep = qg.s_average_check(s, g, 0.5, [rho0])
    assert not rep.decomposable
    assert rep.residual > 0.1
    assert rep.sigma is None
    assert rep.conservation_drift <= 1e-10
    assert rep.limit_mismatch > 0.5


def test_s_average_check_validates_inputs():
    g = path_graph(3)
    samples = [qg.random_density(g.shape, 0)]
    with pytest.raises(qg.ValidationError):
        qg.s_average_check(qg.lift_local(SZ, 1, g.shape), g, 0.5, samples)
    split = qg.InteractionGraph(qg.NetworkShape(4, 2), [(1, 2), (3, 4)])
    with pytest.raises(qg.ValidationError):
        qg.s_average_check(qg.site_average(SZ, split.shape), split, 0.5,
                           [qg.random_density(split.shape, 0)])


def test_s_average_check_single_site_is_exact():
    # one site has no edges: every step is the identity, nothing drifts
    g = path_graph(1)
    rho0 = qg.DensityOperator(np.diag([0.25, 0.75]), g.shape)
    rep = qg.s_average_check(SZ, g, 0.5, [rho0], steps=10)
    assert rep.decomposable
    assert rep.conservation_drift == 0.0
    assert rep.limit_deviation == 0.0


def test_dual_fixed_point_check():
    g = path_graph(3)
    rep = qg.dual_fixed_point_check(g, 0.5, qg.site_average(SZ, g.shape), sigma=SZ)
    assert rep.ok and rep.s_invariant
    assert rep.max_invariance_defect <= 1e-12
    assert rep.iteration_deviation <= 1e-8


def test_dual_fixed_point_check_without_edges():
    rep = qg.dual_fixed_point_check(path_graph(1), 0.5, SZ, sigma=SZ)
    assert rep.ok and rep.s_invariant
    assert rep.max_invariance_defect == 0.0
    assert rep.iteration_deviation == 0.0
    edgeless = qg.InteractionGraph(qg.NetworkShape(3, 2), [])
    with pytest.raises(qg.ValidationError, match="needs at least one edge"):
        qg.dual_fixed_point_check(edgeless, 0.5, qg.site_average(SZ, edgeless.shape),
                                  sigma=SZ)


# ---------------------------------------------------------------------------
# randomized convergence experiments
# ---------------------------------------------------------------------------

def test_probability_one_convergence_small():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 71)
    exp = qg.probability_one_convergence_experiment(
        g, 0.5, rho, eps=1e-10, num_trials=20, horizon=300, seed=2024)
    assert exp.successes == 20
    assert exp.empirical_probability == 1.0
    assert exp.max_distance_increase <= 1e-12
    assert exp.max_final_sq_distance <= 1e-10


def test_probability_one_experiment_is_deterministic():
    g = path_graph(2)
    rho = qg.random_density(g.shape, 72)
    a = qg.probability_one_convergence_experiment(
        g, 0.5, rho, eps=1e-10, num_trials=5, horizon=100, seed=9)
    b = qg.probability_one_convergence_experiment(
        g, 0.5, rho, eps=1e-10, num_trials=5, horizon=100, seed=9)
    assert a.max_final_sq_distance == b.max_final_sq_distance
    assert a.successes == b.successes


def per_trial_experiment(graph, alpha, rho0, eps, num_trials, horizon, seed):
    """Reference: one trial at a time, ``edge_schedule``, ``gossip_update`` and
    ``np.vdot`` at every step. Returns the experiment's three statistics."""
    config = qg.GossipConfig(alpha=alpha, strategy="random", steps=horizon, seed=seed)
    star = qg.twirl_matrix(rho0.matrix, rho0.shape)
    successes, worst_final, worst_rise = 0, 0.0, 0.0
    for trial in range(num_trials):
        schedule = qg.edge_schedule(graph, config, trial_rng(seed, trial))
        mat = rho0.matrix.copy()
        dist = float(np.vdot(mat - star, mat - star).real)
        for idx in itertools.islice(schedule, horizon):
            mat = qg.gossip_update(mat, graph.shape, [graph.edges[idx]], [1.0], alpha)
            new_dist = float(np.vdot(mat - star, mat - star).real)
            worst_rise = max(worst_rise, new_dist - dist)
            dist = new_dist
        worst_final = max(worst_final, dist)
        successes += dist <= eps
    return successes, worst_final, worst_rise


@settings(max_examples=25, deadline=None)
@given(g=weighted_graphs([(m, n) for m in range(2, 6) for n in (2, 3)]),
       alpha=st.floats(0.01, 0.99), trials=st.integers(1, 5),
       horizon=st.integers(1, 40), seed=st.integers(0, 2 ** 31 - 1),
       eps=st.sampled_from([1e-2, 1e-6, 1e-10]), data=st.data())
def test_batched_experiment_matches_the_per_trial_loop(g, alpha, trials, horizon,
                                                      seed, eps, data):
    rho = qg.random_density(g.shape, data.draw(st.integers(0, 1000)))
    exp = qg.probability_one_convergence_experiment(
        g, alpha, rho, eps=eps, num_trials=trials, horizon=horizon, seed=seed)
    successes, worst_final, worst_rise = per_trial_experiment(
        g, alpha, rho, eps, trials, horizon, seed)
    # the states agree bit for bit; the distances are sums of 2 d**2 squares
    # taken in another order, so they differ by a few ulps of their size
    diff = rho.matrix - qg.twirl_matrix(rho.matrix, g.shape)
    ulps = 1e-14 * float(np.vdot(diff, diff).real)
    assert exp.successes == successes
    assert exp.max_final_sq_distance == pytest.approx(worst_final, rel=1e-14, abs=1e-20)
    assert exp.max_distance_increase == pytest.approx(worst_rise, rel=0, abs=1e-20 + ulps)
    # chunks of one trial and one-step draw blocks, or of two trials, change
    # nothing: every trial's arithmetic is independent of its chunk
    dd = g.shape.total_dim ** 2
    for budget in (1, 2 * (2 * 56 + 8 * len(g.edges)) * dd):
        with mock.patch.object(gossip_module, "ENSEMBLE_CHUNK_BYTES", budget):
            chunked = qg.probability_one_convergence_experiment(
                g, alpha, rho, eps=eps, num_trials=trials, horizon=horizon, seed=seed)
        assert chunked == exp


@pytest.mark.parametrize("bad", [{"eps": float("nan")}, {"eps": -1e-3}, {"eps": float("inf")},
                                 {"num_trials": 2.0}, {"num_trials": True}, {"horizon": 3.5},
                                 {"seed": 1.9}])
def test_experiment_rejects_bad_counts_eps_and_seeds(bad):
    g = path_graph(2)
    rho = qg.random_density(g.shape, 1)
    with pytest.raises(qg.ValidationError, match=next(iter(bad))):
        qg.probability_one_convergence_experiment(
            g, 0.5, rho, **{"eps": 1e-10, "num_trials": 2, "horizon": 3, "seed": 1, **bad})


def test_batched_edge_draws_are_the_schedule_stream():
    # the weights sum to 1 but their cumulative sum ends at 1 - 2**-53
    g = qg.InteractionGraph(qg.NetworkShape(5, 2),
                            list(itertools.combinations(range(1, 6), 2)), [0.1] * 10)
    cum = np.cumsum(g.weights)
    assert cum[-1] < 1.0
    cfg = qg.GossipConfig(alpha=0.5, strategy="random", steps=0, seed=0)
    for seed, trial in [(0, 0), (0, 7), (9, 1), (2 ** 31 - 1, 250), (123456789, 3)]:
        drawn = draw_index(trial_rng(seed, trial), cum, size=300)
        assert drawn.tolist() == list(itertools.islice(
            qg.edge_schedule(g, cfg, trial_rng(seed, trial)), 300))
        # blocks of draws continue the stream where the last one stopped
        rng = trial_rng(seed, trial)
        assert np.concatenate([draw_index(rng, cum, size=k) for k in (1, 99, 200)]
                              ).tolist() == drawn.tolist()

    class Uniforms:
        """A stand-in generator replaying fixed uniforms, past the last weight too."""

        def __init__(self):
            self.values = iter([0.0, 0.05, 0.1, cum[-1], 1.0 - 2 ** -53] * 2)

        def random(self, size=None):
            if size is None:
                return next(self.values)
            return np.array([next(self.values) for _ in range(size)])

    rng = Uniforms()
    singles = [draw_index(rng, cum) for _ in range(5)]
    assert singles == [0, 0, 1, 9, 9]
    assert draw_index(rng, cum, size=5).tolist() == singles


def test_experiment_rejects_a_rising_distance(monkeypatch):
    # a wrong target: the distance starts at 0 and rises on the first step
    with monkeypatch.context() as patch:
        patch.setattr(gossip_module, "twirl_matrix", lambda mat, shape: mat.copy())
        g = path_graph(3)
        rho = qg.random_density(g.shape, 5)
        with pytest.raises(qg.ConsistencyError, match=r"increased by .* in trial 0$"):
            qg.probability_one_convergence_experiment(
                g, 0.5, rho, eps=1e-10, num_trials=4, horizon=10, seed=3)

    # rises injected at chosen (step, trial) places are reported in step order,
    # then trial order, under the default budget, one-step blocks of one-trial
    # chunks, and two-trial chunks whose blocks of 256 steps end inside the run
    horizon = 300
    dd = g.shape.total_dim ** 2
    budgets = {"default": gossip_module.ENSEMBLE_CHUNK_BYTES, "one": 1,
               "two": 2 * (2 * 56 + 8 * len(g.edges)) * dd}
    real = gossip_module.sq_distance_rows

    def first_rise(rises, budget):
        """The error message when ``rises[(step, trial)]`` is added to that
        trial's squared distance after that step (step 0: the start)."""
        calls, chunk = itertools.count(), [0, 0]  # first trial and size of the chunk

        def rising(x, y, scratch, out=None):
            res = real(x, y, scratch, out)
            step = next(calls) % (horizon + 1)  # each chunk: once at the start, once a step
            if step == 0:
                chunk[:] = [chunk[0] + chunk[1], len(x)]
            for (at, trial), extra in rises.items():
                if at == step and 0 <= trial - chunk[0] < len(x):
                    res[trial - chunk[0]] += extra
            return res

        with mock.patch.object(gossip_module, "sq_distance_rows", rising), \
                mock.patch.object(gossip_module, "ENSEMBLE_CHUNK_BYTES", budget):
            with pytest.raises(qg.ConsistencyError) as err:
                qg.probability_one_convergence_experiment(
                    g, 0.5, rho, eps=1e-10, num_trials=4, horizon=horizon, seed=3)
        return str(err.value)

    for rises, trial in [({(1, 0): 1.0}, 0), ({(4, 2): 1.0}, 2),
                         ({(256, 1): 0.25}, 1), ({(257, 3): 0.5}, 3),
                         ({(300, 1): 0.5, (300, 0): 0.25}, 0),
                         ({(9, 3): 1.0, (9, 2): 0.5}, 2)]:
        messages = {name: first_rise(rises, budget) for name, budget in budgets.items()}
        assert len(set(messages.values())) == 1, messages
        assert messages["default"].endswith(f" in trial {trial}")
        value = float(messages["default"].split("increased by ")[1].split()[0])
        [extra] = [v for (_, t), v in rises.items() if t == trial]
        assert value == pytest.approx(extra, abs=0.1)  # less the step's own fall
    # a later trial rising at an earlier step wins within a chunk; chunks run
    # in trial order, so one-trial chunks report the earlier trial
    rises = {(7, 2): 1.0, (3, 3): 0.5}
    for name, trial in (("default", 3), ("two", 3), ("one", 2)):
        assert first_rise(rises, budgets[name]).endswith(f" in trial {trial}")


@pytest.mark.parametrize("m", [8, 9])
def test_single_trial_chunk_allocates_little(m):
    # one trial's state, gather and gather index (2.5 complex matrices) and
    # the twirl take 56 bytes per entry of rho; numpy's reduction buffers and
    # the small arrays stay within 256 KiB
    g = path_graph(m)
    rho = qg.random_density(g.shape, m)
    # warm the orbit labels and the swap basis maps outside the measurement
    qg.probability_one_convergence_experiment(
        g, 0.5, rho, eps=1e-10, num_trials=1, horizon=1, seed=m)
    dd = g.shape.total_dim ** 2
    assert gossip_module.ENSEMBLE_CHUNK_BYTES < 2 * 40 * dd * 2  # one trial a chunk
    tracemalloc.start()
    try:
        qg.probability_one_convergence_experiment(
            g, 0.5, rho, eps=1e-10, num_trials=2, horizon=3, seed=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 56 * dd + 2 ** 18


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ensemble_pool_matches_the_benchmark_reference(tmp_path):
    # every ensemble pool entry of the benchmark, by check_ensemble's rule
    workloads = _perfbench_workloads()
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    scenario_path = tmp_path / "job.json"
    problems = {}
    for m in sorted(set(workloads.CYCLES["ensemble"])):
        for k in range(workloads.ENSEMBLE_POOL):
            scenario_path.write_text(json.dumps(workloads.ensemble_pool_entry(m, k)))
            scenario = load_scenario(scenario_path)
            exp = qg.probability_one_convergence_experiment(
                scenario.graph, scenario.config.alpha, scenario.initial_state(),
                eps=workloads.ENSEMBLE_EPS, num_trials=workloads.ENSEMBLE_TRIALS[m],
                horizon=workloads.ENSEMBLE_HORIZON, seed=scenario.config.seed)
            key = f"{m}/{k}"
            problems[key] = workloads.check_ensemble(exp.as_dict(), key, reference)
    assert len(problems) == len(reference["ensemble"]) == 96
    assert {key: p for key, p in problems.items() if p} == {}
