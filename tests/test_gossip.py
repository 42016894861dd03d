"""Tests for gossip channels, trajectories, superoperators, and certificates."""

import dataclasses
import hashlib
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
from qgossip.linalg import row_dots
from qgossip.rng import draw_index, make_rng, trial_rng
from qgossip.scenario import load_scenario
from qgossip.states import (basis_index_map, conjugate_by_basis_map, local_expectations,
                            orbit_labels, twirl_matrix)
from reference import (apply, conjugate, evolve_per_step, from_real_form, gossip_superoperator,
                       orbit_blocks, random_hermitian, real_form, scatter_update,
                       site_average_fit, swap_unitary, transposition)

SZ = qg.PAULI["z"]


def path_graph(m, n=2, weights=None):
    shape = qg.NetworkShape(m, n)
    return qg.InteractionGraph(shape, [(i, i + 1) for i in range(1, m)],
                               weights=weights)


def edge_bmap(edge, shape):
    return basis_index_map(transposition(shape.m, *edge), shape)


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


@pytest.mark.parametrize("edge", [(1.0, 2), (True, 2), (1, 2.5), ("1", 2), (1, 2, 3), 3, (0, 1),
                                  (2, 4), (2, 2)])
def test_graph_edges_are_pairs_of_distinct_integer_sites(edge):
    with pytest.raises(qg.ValidationError, match="edge"):
        qg.InteractionGraph(qg.NetworkShape(3, 2), [edge])


def test_graph_stores_numpy_integer_edges_as_ints():
    g = qg.InteractionGraph(qg.NetworkShape(3, 2), [np.array([3, 2]), (np.int64(1), 2)])
    assert g.edges == ((2, 3), (1, 2))
    assert {type(v) for e in g.edges for v in e} == {int}


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
    # alpha is a real number: a string or a bool is refused, not compared
    for bad in ("0.5", True, None):
        with pytest.raises(qg.ValidationError, match="alpha must lie strictly"):
            qg.GossipConfig(alpha=bad, strategy="cyclic", steps=1)
    assert qg.GossipConfig(alpha=np.float64(0.5), strategy="cyclic", steps=1).alpha == 0.5
    # stop_gap is a finite nonnegative real: NaN and -1 would never stop, True is not 1.0
    for bad in (float("nan"), float("inf"), -1.0, -1, True, "0.1"):
        with pytest.raises(qg.ValidationError, match="stop_gap must be a finite nonnegative"):
            qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=3, stop_gap=bad)
    for good in (0, 0.0, 1e-6, np.float64(0.5)):
        assert qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=3,
                               stop_gap=good).stop_gap == good
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
    "gossip_update": lambda a: qg.gossip_update(np.eye(4), qg.NetworkShape(2, 2), [(1, 2)],
                                                [1.0], a),
    "run_classical": lambda a: qg.run_classical([0.0, 1.0], path_graph(2), a, [(1, 2)]),
    "s_average_check": lambda a: qg.s_average_check(
        qg.site_average(SZ, qg.NetworkShape(2, 2)), path_graph(2), a, []),
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
    """Make every evolve step apply ``fault`` to the state _gossip_update writes."""
    update = gossip_module._gossip_update

    def faulty(*args, **kwargs):
        new = update(*args, **kwargs)
        new[...] = fault(new)
        return new

    monkeypatch.setattr(gossip_module, "_gossip_update", faulty)


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


def test_stop_at_step_0_returns_rho0():
    # a stop_gap above rho_0's gap ends the run before any step, on every
    # strategy: one record row, no edges, rho_0 back bit for bit
    for g in (path_graph(3), path_graph(2, n=3)):
        rho = qg.random_density(g.shape, 37)
        sigma = random_hermitian(g.shape.n, 38)
        for strategy, steps in itertools.product(gossip_module.STRATEGIES, (1, 5)):
            cfg = qg.GossipConfig(alpha=0.5, strategy=strategy, steps=steps, seed=3)
            gap0 = qg.evolve(rho, g, cfg, sigma)[0].ssc_gap[0]
            stop = dataclasses.replace(cfg, stop_gap=float(np.nextafter(gap0, np.inf)))
            (rec, final), (ref, ref_final) = (qg.evolve(rho, g, stop, sigma),
                                              evolve_per_step(rho, g, stop, sigma))
            assert (rec.termination, rec.steps, rec.edges) == ("converged_at_step_0", 0, [])
            assert (ref.termination, ref.steps, ref.edges) == ("converged_at_step_0", 0, [])
            for name in ("z", "s_expect", "ssc_gap", "smc_defect"):
                got, want = getattr(rec, name), getattr(ref, name)
                assert len(got) == 1 and np.array_equal(got, want)
            assert rec.ssc_gap[0] == gap0
            for state in (final, ref_final):
                assert np.array_equal(state.matrix.view(np.uint64), rho.matrix.view(np.uint64))


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


def test_cyclic_blocks_are_the_per_step_sweep():
    # a cycle order with a repeat, cut into blocks of every size up to two
    # sweeps and one step, so blocks start anywhere in the sweep
    g = path_graph(4)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=0, cycle_order=(2, 0, 1, 0))
    per_step = list(itertools.islice(qg.edge_schedule(g, cfg), 60))
    for block in range(1, 2 * 4 + 2):
        blocks = list(itertools.islice(qg.edge_schedule(g, cfg, block=block), -(-60 // block)))
        assert all(isinstance(b, np.ndarray) and b.shape == (block,) for b in blocks)
        assert np.concatenate(blocks)[:60].tolist() == per_step


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
    sigma = random_hermitian(shape.n, seeds[1])
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
    block; ``fault`` replaces the state of the ``at``-th _gossip_update call."""
    update = gossip_module._gossip_update
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
                mock.patch.object(gossip_module, "_gossip_update", patched):
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
    sigma = random_hermitian(g.shape.n, seeds[1])
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


@pytest.mark.parametrize("edges, weights, error", [
    ([(0, 2)], [1.0], "outside sites 1..3"), ([(2, 2)], [1.0], "two distinct sites"),
    ([(1, 5)], [1.0], "outside sites 1..3"), ([(1.0, 2)], [1.0], "outside sites 1..3"),
    ([(1, 2, 3)], [1.0], "pair of site labels"), ([(1, 2), (2, 3)], [1.0], "each of 2 edges"),
    ([(1, 2)], ["1"], "real weight")],
    ids=["site_0", "one_site", "site_5", "float_label", "triple", "short_weights", "str_weight"])
def test_update_rejects_what_is_no_edge_of_the_shape(edges, weights, error):
    # a missing site, a row axis paired with a column axis, an axis past the
    # tensor, a float label, a triple and a short weight list never reach the
    # axis exchange
    with pytest.raises(qg.ValidationError, match=error):
        qg.gossip_update(np.eye(8), qg.NetworkShape(3, 2), edges, weights, 0.4)


@pytest.mark.parametrize("x", [np.eye(4), np.eye(8).ravel(), "abc"])
def test_update_rejects_a_matrix_of_another_shape(x):
    with pytest.raises(qg.DimensionError):
        qg.gossip_update(x, qg.NetworkShape(3, 2), [(1, 2)], [1.0], 0.4)


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
        assert cert.disk_ok
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
    # values that round alike (a defective sweep's cluster near 0 spans ~1e-9)
    # are ordered by their exact parts, not by the order the solver gave them
    return ev[np.lexsort((ev.imag, ev.real, np.round(ev.imag, 9), np.round(ev.real, 9)))]


@settings(max_examples=10, deadline=None)
@given(g=weighted_graphs([(2, 2), (3, 2), (4, 2), (2, 3)]),
       alpha=st.floats(0.05, 0.95), data=st.data())
def test_blockwise_certificate_matches_the_dense_eigensolve(g, alpha, data):
    # the certificate solves the synchronous map one orbit block at a time
    order = data.draw(st.permutations(range(len(g.edges))))
    sync = qg.synchronous_superoperator(g, alpha)
    sweep = sweep_superoperator(g, order, alpha)
    for blocks, sop in ((orbit_blocks(g, alpha), sync), ([sweep], sweep)):
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
    blocks = orbit_blocks(g, alpha)
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
    ref = qg.spectral_certificate(orbit_blocks(g, alpha), q0=1.0 - alpha)
    np.testing.assert_allclose(np.sort(cert.eigenvalues), np.sort(ref.eigenvalues.real),
                               rtol=0, atol=1e-13)
    assert ref.max_imag <= 1e-13 and cert.max_imag == 0.0
    assert cert.second_largest_eigenvalue == pytest.approx(ref.second_largest_eigenvalue,
                                                           abs=1e-13)
    _, sizes = orbit_labels(g.shape.m, g.shape.n, g.components())
    assert sum(c.count for c in classes) == cert.block_count == ref.block_count == len(sizes)
    assert cert.unit_eigenvalue_count == ref.unit_eigenvalue_count
    assert cert.disk_ok and ref.disk_ok
    dense = qg.synchronous_superoperator(g, alpha)
    # the rows by brute force, without the package's labels: an entry's joint
    # type is how often each pair letter occurs on each component's sites
    m, n, q = g.shape.m, g.shape.n, g.shape.n ** 2
    digits = np.array(np.unravel_index(np.arange(q ** m), (n,) * (2 * m)))

    def joint_types(letters):  # (entries, components, q)
        return np.stack([np.stack([(letters[[k - 1 for k in comp]] == s).sum(axis=0)
                                   for s in range(q)], axis=-1)
                         for comp in g.components()], axis=1)

    types = joint_types(digits[:m] * n + digits[m:])
    transposed = joint_types(digits[m:] * n + digits[:m])
    orbit_profiles = -np.sort(-np.unique(types.reshape(q ** m, -1), axis=0).reshape(
        -1, *types.shape[1:]), axis=-1)
    for c in classes:
        assert c.block.dtype == np.float64
        assert np.array_equal(c.rows, np.flatnonzero((types == types[c.rows[0]]).all((1, 2))))
        # the representative is transposed: letter s occurs lambda_s times, largest first
        profile = transposed[c.rows[0]]
        assert np.array_equal(profile, -np.sort(-profile, axis=-1))
        assert c.count == int((orbit_profiles == profile).all((1, 2)).sum())
        assert np.array_equal(c.block, c.block.T)
        assert np.array_equal(c.block, dense[np.ix_(c.rows, c.rows)].real)


def test_class_plans_are_built_once_per_shape():
    # graphs of one shape share a plan: blocks, rows and counts are bitwise a cold build
    shape = qg.NetworkShape(4, 2)
    graphs = [(path_graph(4), 0.5),
              (qg.InteractionGraph(shape, [(1, 3), (2, 4), (1, 4)], [0.5, 0.3, 0.2]), 0.3),
              (qg.InteractionGraph(shape, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)],
                                   [0.1, 0.2, 0.3, 0.15, 0.25]), 0.85),
              (qg.InteractionGraph(shape, [(1, 2), (3, 4)], [0.6, 0.4]), 0.4)]
    plans = gossip_module._class_plans
    warm = [list(qg.synchronous_classes(g, alpha)) for g, alpha in graphs]
    for (g, alpha), classes in zip(graphs, warm):
        plans.cache_clear()
        cold = list(qg.synchronous_classes(g, alpha))
        assert len(classes) == len(cold)
        for c, ref in zip(classes, cold):
            assert c.count == ref.count
            for a, b in ((c.block, ref.block), (c.rows, ref.rows)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    plans.cache_clear()
    list(qg.synchronous_classes(graphs[0][0], 0.5))
    info = plans.cache_info()
    list(qg.synchronous_classes(graphs[1][0], 0.7))  # another graph of a seen shape
    assert plans.cache_info().hits == info.hits + 1
    assert plans.cache_info().misses == info.misses
    for count, rows, positions in plans(4, 2, ((1, 2, 3, 4),)):
        assert sorted(positions) == list(itertools.combinations(range(1, 5), 2))
        with pytest.raises(TypeError):
            positions[1, 2] = rows
        for a in (rows, *positions.values()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


def test_synchronous_classes_fail_before_building(monkeypatch):
    # the caps run before any orbit is labelled, and nothing is cached
    labelled, real = [], gossip_module.orbit_labels
    monkeypatch.setattr(gossip_module, "orbit_labels",
                        lambda *key: labelled.append(key) or real(*key))
    gossip_module._class_plans.cache_clear()
    # the largest block is the most even letter split: 9!/(3! 2! 2! 2!) rows at m=9
    with pytest.raises(qg.ResourceLimitError, match="7560 rows"):
        next(qg.synchronous_classes(path_graph(9), 0.5))
    # small components pass the block cap, but the certificate lists all
    # 4**m eigenvalues
    split = qg.InteractionGraph(qg.NetworkShape(10, 2), [(1, 2), (3, 4)])
    with pytest.raises(qg.ResourceLimitError, match="1048576 eigenvalues"):
        next(qg.synchronous_classes(split, 0.5))
    assert not labelled and gossip_module._class_plans.cache_info().currsize == 0
    with pytest.raises(qg.ValidationError):
        next(qg.synchronous_classes(qg.InteractionGraph(qg.NetworkShape(3, 2), []), 0.5))
    assert next(qg.synchronous_classes(path_graph(8), 0.5)).count == 4  # 2520 rows fit
    assert labelled == [(8, 2, ((1, 2, 3, 4, 5, 6, 7, 8),))]
    # small components keep every block small, whatever m
    split = qg.InteractionGraph(qg.NetworkShape(9, 2), [(1, 2), (3, 4)])
    assert max(len(c.rows) for c in qg.synchronous_classes(split, 0.5)) == 4


def test_modulus_gap_and_second_eigenvalue_differ_past_one_half():
    # at alpha = 0.9 the negative end 1 - 2 alpha sets the modulus gap, not lambda_2
    g = path_graph(3)  # L_q has lambda_2 = 1/2
    cert = qg.spectral_certificate(qg.synchronous_classes(g, 0.9), q0=0.1)
    assert cert.second_largest_eigenvalue == pytest.approx(1 - 0.9 * 0.5, abs=1e-13)
    assert g.laplacian_gap() == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(qg.ValidationError, match="at least two sites"):
        qg.InteractionGraph(qg.NetworkShape(1, 2), []).laplacian_gap()
    assert cert.spectral_gap == pytest.approx(1 - 0.8, abs=1e-13)
    assert np.min(cert.eigenvalues) == pytest.approx(1 - 2 * 0.9, abs=1e-13)


def test_certificate_holds_each_distinct_eigenvalue_once():
    # a class block's eigenvalues occur once per orbit: 37 distinct values
    # stand for the 256 of the 4-site path at alpha = 1/2
    classes = list(qg.synchronous_classes(path_graph(4), 0.5))
    cert = qg.spectral_certificate(classes, q0=0.5)
    expanded = np.concatenate([np.tile(np.linalg.eigvalsh(c.block), c.count)
                               for c in classes])
    assert len(cert.distinct_eigenvalues) == len(cert.multiplicities) == 37
    assert cert.multiplicities.sum() == len(expanded) == 256
    assert np.all(np.diff(cert.distinct_eigenvalues) > 0)
    assert cert.eigenvalues.tobytes() == np.sort(expanded).tobytes()
    assert cert.unit_eigenvalue_count == 35
    # a dense item is solved with eigvals, each eigenvalue once, and grouped alike
    dense = qg.spectral_certificate([qg.synchronous_superoperator(path_graph(3), 0.5)],
                                    q0=0.5)
    assert dense.multiplicities.sum() == 64 and dense.unit_eigenvalue_count == 20


def test_spectrum_groups_follow_sort_complex_and_keep_signed_zeros_apart():
    values = np.array([1.0, complex(-0.0, 1.0), 0.0, complex(-0.0, 0.0), 0.0,
                       complex(0.0, -1.0), 1.0, complex(-0.0, 0.0)])
    counts = np.array([2, 1, 3, 1, 1, 4, 5, 2])
    got, mult = gossip_module._group_spectrum(values, counts)
    # by real part, then imaginary part; of two that tie, +0.0 before -0.0
    assert [(repr(v.real), repr(v.imag)) for v in got.tolist()] == [
        ("0.0", "-1.0"), ("0.0", "0.0"), ("-0.0", "0.0"), ("-0.0", "1.0"), ("1.0", "0.0")]
    assert mult.tolist() == [4, 4, 3, 1, 7]
    assert np.array_equal(np.repeat(got, mult), np.sort_complex(np.repeat(values, counts)))
    real, mult = gossip_module._group_spectrum(np.array([0.5, -0.0, 0.0, 0.5]),
                                               np.array([1, 2, 3, 4]))
    assert real.dtype == np.float64 and real.tolist() == [0.0, -0.0, 0.5]
    assert np.signbit(real).tolist() == [False, True, False] and mult.tolist() == [3, 2, 5]


def test_certificate_rejects_pure_swap():
    # a bare swap has eigenvalue -1, far outside the q0 = 0.5 disk
    shape = qg.NetworkShape(2, 2)
    u = swap_unitary(1, 2, shape)
    cert = qg.spectral_certificate([np.kron(u, u.conj())], q0=0.5)
    assert not cert.disk_ok
    assert cert.max_disk_violation == pytest.approx(1.0, abs=1e-9)


def test_certificate_validates_q0():
    sop = qg.synchronous_superoperator(path_graph(2), 0.5)
    with pytest.raises(qg.ValidationError):
        qg.spectral_certificate([sop], q0=0.0)
    with pytest.raises(qg.ValidationError):
        qg.spectral_certificate([sop], q0=1.5)
    with pytest.raises(qg.ValidationError, match="at least one block"):
        qg.spectral_certificate([], q0=0.5)


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
        cert = qg.spectral_certificate(orbit_blocks(g, 0.4), q0=0.6)
        assert cert.block_count == qg.fixed_point_space(g)[0] == cert.unit_eigenvalue_count
    dense = qg.synchronous_superoperator(path_graph(3), 0.4)
    assert qg.spectral_certificate([dense], q0=0.6).block_count == 1


def test_fixed_point_dimension_matches_commutant():
    for g in (path_graph(2), path_graph(3), path_graph(4)):
        dim, _ = qg.fixed_point_space(g)
        assert dim == qg.commutant_dimension(g)


def test_ensemble_on_a_disconnected_graph_warns():
    g = qg.InteractionGraph(qg.NetworkShape(4, 2), [(1, 2), (3, 4)])
    rho = qg.DensityOperator.from_ket(qg.basis_ket("1100", 2), g.shape)
    with pytest.warns(UserWarning, match="disconnected") as record:
        exp = qg.probability_one_convergence_experiment(
            g, 0.5, rho, eps=1e-10, num_trials=3, horizon=50, seed=1)
    assert record[0].filename == __file__  # reported at the caller
    assert exp.successes == 0  # no trial can reach the global twirl


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
    for check in (lambda s: qg.s_average_check(s, g, 0.5, samples),
                  lambda s: qg.dual_fixed_point_check(g, 0.5, s)):
        with pytest.raises(qg.ValidationError, match="S does not match the network dimension"):
            check(np.eye(4))
    # step counts are nonnegative integers: -3 is not zero steps, nor 2.0 a TypeError
    for bad in (-3, 2.0, True):
        with pytest.raises(qg.ValidationError, match="steps must be a nonnegative integer"):
            qg.s_average_check(qg.site_average(SZ, g.shape), g, 0.5, samples, steps=bad)
        with pytest.raises(qg.ValidationError, match="steps must be a nonnegative integer"):
            qg.dual_fixed_point_check(g, 0.5, qg.site_average(SZ, g.shape), sigma=SZ, steps=bad)


def test_s_average_check_single_site_is_exact():
    # one site has no edges: every step is the identity, nothing drifts
    g = path_graph(1)
    rho0 = qg.DensityOperator(np.diag([0.25, 0.75]), g.shape)
    rep = qg.s_average_check(SZ, g, 0.5, [rho0], steps=10)
    assert rep.decomposable
    assert rep.conservation_drift == 0.0
    assert rep.limit_deviation == 0.0


@settings(max_examples=60, deadline=None)
@given(mn=st.sampled_from([(m, 2) for m in range(1, 5)] + [(m, 3) for m in range(1, 4)]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 0.3, 1.0, 4.0]))
def test_s_average_check_sigma_is_the_least_squares_fit(mn, seed, scale):
    # S = site_average(sigma), plus a scaled twirl of a random Hermitian: an
    # invariant part that is not a site average, except at m = 1
    shape = qg.NetworkShape(*mn)
    s = qg.site_average(random_hermitian(shape.n, seed), shape)
    if scale:
        s = s + scale * twirl_matrix(random_hermitian(shape.total_dim, seed + 1), shape)
    sigma, residual = site_average_fit(s, shape)
    rep = qg.s_average_check(s, path_graph(*mn), 0.5, [])
    tol = 1e-12 * max(1.0, float(np.linalg.norm(s)))
    assert rep.decomposable == (residual <= gossip_module.DECOMPOSITION_TOL)
    assert abs(rep.residual - residual) <= tol
    if rep.decomposable:
        assert np.max(np.abs(rep.sigma - sigma)) <= tol


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


def test_a_final_distance_equal_to_eps_is_a_success():
    # success is a final squared distance at most eps: the worst trial counts
    # at eps itself and fails one float below it
    g = path_graph(4)
    rho = qg.random_density(g.shape, 73)
    run = lambda eps: qg.probability_one_convergence_experiment(
        g, 0.5, rho, eps=eps, num_trials=12, horizon=20, seed=5)
    eps = run(1e-10).max_final_sq_distance
    assert eps > 0
    at, below = run(eps), run(float(np.nextafter(eps, 0)))
    assert at.max_final_sq_distance == below.max_final_sq_distance == eps
    assert at.successes == 12
    assert below.successes < 12


@settings(max_examples=40, deadline=None)
@given(g=weighted_graphs([(m, 2) for m in range(2, 6)] + [(2, 3), (3, 3)]),
       hermitian=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
def test_real_form_encodes_hermitian_matrices(g, hermitian, seed):
    # R(x) = Re x + Im x, the form of the ensemble's trial rows, on random
    # Hermitians and random densities, both Hermitian bit for bit
    m, n, d = g.shape.m, g.shape.n, g.shape.total_dim
    x = random_hermitian(d, seed) if hermitian else qg.random_density(g.shape, seed).matrix
    assert np.array_equal(x, x.conj().T)
    r = real_form(x)

    def swap(a, j, k):
        tensor = a.reshape((n,) * (2 * m))
        return tensor.transpose(gossip_module._swap_axes(m, j, k)).reshape(d, d)

    # a swap only moves entries, so it commutes with R bit for bit
    for j, k in g.edges:
        assert real_form(swap(x, j, k)).tobytes() == swap(r, j, k).tobytes()
    # every entry of the twirl is its orbit's mean, so every transposition
    # fixes R(twirl(x)) bit for bit
    rt = real_form(qg.twirl_matrix(x, g.shape))
    for j, k in itertools.combinations(range(1, m + 1), 2):
        assert swap(rt, j, k).tobytes() == rt.tobytes()
    # R rounds each entry once, and the decode rounds the sum or difference of
    # two such once more (the halving is exact), so each part of an entry errs
    # by at most u (1 + u) (max(|Re x|, |Im x|) + |that part|)
    u = np.finfo(np.float64).eps / 2
    back = from_real_form(r)
    big = np.maximum(abs(x.real), abs(x.imag))
    for part in (np.real, np.imag):
        assert np.all(abs(part(back) - part(x)) <= u * (1 + u) * (big + abs(part(x))))
    # ||R(x)||_F = ||x||_F: row_dots sums d**2 squares of once-rounded entries
    # and np.vdot 2 d**2 squares, so they agree within gamma(3 d**2 + 3)
    sq = float(np.vdot(x, x).real)
    row = r.reshape(1, -1)
    count = 3 * d * d + 3
    assert abs(float(row_dots(row, row)[0]) - sq) <= count * u / (1 - count * u) * sq


def per_trial_experiment(graph, alpha, rho0, eps, num_trials, horizon, seed):
    """Reference: one trial at a time, ``edge_schedule``, ``gossip_update``'s
    axis transposes on the real ``d x d`` deviation ``y = R(rho_t) - R(T)``
    (``real_form``, ``T = twirl(rho_0)``) and ``np.vdot`` at every step.
    Returns the experiment's three statistics and every trial's final ``y``."""
    config = qg.GossipConfig(alpha=alpha, strategy="random", steps=horizon, seed=seed)
    y0 = real_form(rho0.matrix) - real_form(qg.twirl_matrix(rho0.matrix, rho0.shape))
    successes, worst_final, worst_rise, finals = 0, 0.0, 0.0, []
    for trial in range(num_trials):
        schedule = qg.edge_schedule(graph, config, trial_rng(seed, trial))
        mat = y0.copy()
        dist = float(np.vdot(mat, mat))
        for idx in itertools.islice(schedule, horizon):
            mat = qg.gossip_update(mat, graph.shape, [graph.edges[idx]], [1.0], alpha)
            new_dist = float(np.vdot(mat, mat))
            worst_rise = max(worst_rise, new_dist - dist)
            dist = new_dist
        worst_final = max(worst_final, dist)
        successes += dist <= eps
        finals.append(mat)
    return successes, worst_final, worst_rise, finals


def batched_final_states(horizon, *args, **kwargs):
    """The experiment and its trials' final deviations ``R(rho_T) - R(T)``,
    one ``d**2`` row per trial in trial order, as each chunk's last distance
    call (the ensemble's binding of :func:`row_dots`) measures them; a chunk
    without a rise makes ``horizon + 1`` of them."""
    real, calls, finals = gossip_module.row_dots, itertools.count(1), []

    def measure(y, *rest):
        if next(calls) % (horizon + 1) == 0:
            finals.append(y.copy())
        return real(y, *rest)

    with mock.patch.object(gossip_module, "row_dots", measure):
        exp = qg.probability_one_convergence_experiment(*args, horizon=horizon, **kwargs)
    return exp, np.concatenate(finals)


@settings(max_examples=25, deadline=None)
@given(g=weighted_graphs([(m, n) for m in range(2, 6) for n in (2, 3)]),
       alpha=st.floats(0.01, 0.99), trials=st.integers(1, 5),
       horizon=st.integers(1, 40), seed=st.integers(0, 2 ** 31 - 1),
       eps=st.sampled_from([1e-2, 1e-6, 1e-10]), data=st.data())
def test_batched_experiment_matches_the_per_trial_loop(g, alpha, trials, horizon,
                                                      seed, eps, data):
    rho = qg.random_density(g.shape, data.draw(st.integers(0, 1000)))
    successes, worst_final, worst_rise, finals = per_trial_experiment(
        g, alpha, rho, eps, trials, horizon, seed)
    # the deviations agree bit for bit, whatever the chunk: chunks of one trial
    # and one-step draw blocks, or of two trials, change nothing, since every
    # trial's arithmetic is independent of its chunk
    dd = g.shape.total_dim ** 2
    runs = []
    for budget in (gossip_module.ENSEMBLE_CHUNK_BYTES, 1,
                   2 * (2 * 32 + 8 * len(g.edges)) * dd):
        with mock.patch.object(gossip_module, "ENSEMBLE_CHUNK_BYTES", budget):
            exp, states = batched_final_states(horizon, g, alpha, rho, eps=eps,
                                               num_trials=trials, seed=seed)
        assert len(states) == trials
        for row, mat in zip(states, finals):
            assert row.tobytes() == mat.tobytes()
        runs.append(exp)
    exp = runs[0]
    assert runs[1] == runs[2] == exp
    # the distances are sums of d**2 squares taken in another order, so they
    # differ by a few ulps of their size
    diff = rho.matrix - qg.twirl_matrix(rho.matrix, g.shape)
    ulps = 1e-14 * float(np.vdot(diff, diff).real)
    assert exp.successes == successes
    assert exp.max_final_sq_distance == pytest.approx(worst_final, rel=1e-14, abs=1e-20)
    assert exp.max_distance_increase == pytest.approx(worst_rise, rel=0, abs=1e-20 + ulps)


MIX_ROUNDINGS = 3  # c: (1 - alpha), its product with y and the sum round y's part
ENCODE_ROUNDINGS = 3  # y_0 = R(rho_0) - R(T): R(rho_0), R(T) and their difference


@pytest.mark.parametrize("g, alpha, trials, horizon, seed", [
    (path_graph(3), 0.3, 3, 20, 11),
    (qg.InteractionGraph(qg.NetworkShape(4, 2), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)],
                         [0.1, 0.3, 0.2, 0.15, 0.25]), 0.7, 3, 25, 5),
    (qg.InteractionGraph(qg.NetworkShape(3, 3), [(1, 2), (2, 3), (1, 3)],
                         [0.5, 0.3, 0.2]), 0.45, 2, 12, 2024),
])
def test_ensemble_states_replay_in_extended_precision(g, alpha, trials, horizon, seed):
    # the ensemble's float64 mix against the exact map, replayed in clongdouble
    # through axis transposes. A step rounds each entry of (1 - alpha) y c
    # times and of alpha g fewer, so it adds at most gamma ||y_t||_F to the
    # error, gamma = c u / (1 - c u). Every exact map is Frobenius
    # non-expansive, so after T steps the error is at most
    # ((1 + gamma)**T - 1) ||rho_0||_F, about c T u ||rho_0||_F; the replay's
    # own roundings add the same with longdouble's u
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("longdouble is no wider than float64 here: no extended replay")
    u, u_ext = np.finfo(np.float64).eps / 2, np.finfo(np.longdouble).eps / 2
    m, n, d = g.shape.m, g.shape.n, g.shape.total_dim
    rho = qg.random_density(g.shape, 3)
    exp, finals = batched_final_states(horizon, g, alpha, rho, eps=1e-3,
                                       num_trials=trials, seed=seed)
    start = rho.matrix.astype(np.clongdouble).reshape((n,) * (2 * m))
    star = sum(start.transpose(list(p) + [m + s for s in p])
               for p in itertools.permutations(range(m))) / math.factorial(m)
    # the rows decode to rho_t - herm(T) for the float64 twirl T, which every
    # swap fixes bit for bit, so the exact map fixes it too
    twirled = qg.twirl_matrix(rho.matrix, g.shape)
    assert all(np.array_equal(twirled.reshape((n,) * (2 * m)).transpose(
        gossip_module._swap_axes(m, j, k)), twirled.reshape((n,) * (2 * m))) for j, k in g.edges)
    twirled = twirled.astype(np.clongdouble)
    herm_twirl = (twirled + twirled.conj().T) / 2
    config = qg.GossipConfig(alpha=alpha, strategy="random", steps=horizon, seed=seed)
    a = np.longdouble(alpha)
    gamma = sum(MIX_ROUNDINGS * v / (1 - MIX_ROUNDINGS * v) for v in (u, u_ext))
    norm = np.linalg.norm(rho.matrix)
    bound = math.expm1(horizon * math.log1p(gamma)) * norm
    assert bound <= 1.01 * MIX_ROUNDINGS * horizon * (u + u_ext) * norm
    # y_0's encoding error: each of its three roundings errs by at most u times
    # a matrix no larger than rho_0 in norm; herm(T), the decode and the
    # subtraction below round once each in longdouble
    encode = (ENCODE_ROUNDINGS * u / (1 - ENCODE_ROUNDINGS * u) + 3 * u_ext) * norm
    far = []
    for trial, final in enumerate(finals):
        x = start
        for idx in itertools.islice(qg.edge_schedule(g, config, trial_rng(seed, trial)),
                                    horizon):
            j, k = g.edges[idx]
            axes = list(range(2 * m))
            for s in (j - 1, m + j - 1):
                axes[s], axes[s + k - j] = axes[s + k - j], axes[s]
            x = (1 - a) * x + a * x.transpose(axes)
        decoded = from_real_form(final.astype(np.longdouble).reshape(d, d))
        error = np.linalg.norm((decoded - (x.reshape(d, d) - herm_twirl)).astype(complex))
        assert error <= bound + encode
        far.append(float(np.linalg.norm((x - star).astype(complex))))
    # no trial has reached the twirl, where every mix would agree
    assert min(far) > 1e6 * (bound + encode)
    # the reported distance: the states' error, the float64 twirl's own error and
    # the rounding of a sum of d**2 squares
    star_error = np.linalg.norm(
        (qg.twirl_matrix(rho.matrix, g.shape) - star.reshape(d, d)).astype(complex))
    sums = (d * d + 2) * u / (1 - (d * d + 2) * u)
    reported = math.sqrt(exp.max_final_sq_distance)
    assert abs(reported - max(far)) <= (bound + encode + star_error
                                        + sums * (reported + max(far)))


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
    # a wrong target, one that no swap fixes: the invariance check refuses it
    # before any trial runs
    with monkeypatch.context() as patch:
        patch.setattr(gossip_module, "twirl_matrix", lambda mat, shape: mat.copy())
        g = path_graph(3)
        rho = qg.random_density(g.shape, 5)
        with pytest.raises(qg.ConsistencyError,
                           match=r"^twirl\(rho_0\) is not fixed by the swap of edge \(1, 2\)$"):
            qg.probability_one_convergence_experiment(
                g, 0.5, rho, eps=1e-10, num_trials=4, horizon=10, seed=3)

    # rises injected at chosen (step, trial) places are reported in step order,
    # then trial order, under the default budget, one-step blocks of one-trial
    # chunks, and two-trial chunks whose blocks of 160 steps end inside the run
    horizon = 300
    dd = g.shape.total_dim ** 2
    budgets = {"default": gossip_module.ENSEMBLE_CHUNK_BYTES, "one": 1,
               "two": 2 * (2 * 32 + 8 * len(g.edges)) * dd}
    block = budgets["two"] // (2 * 16 * 2)  # steps per draw block of a two-trial chunk
    assert block == 160
    real = gossip_module.row_dots
    with mock.patch.object(gossip_module, "row_dots", wraps=real) as measured, \
            mock.patch.object(gossip_module, "ENSEMBLE_CHUNK_BYTES", budgets["two"]):
        qg.probability_one_convergence_experiment(
            g, 0.5, rho, eps=1e-10, num_trials=4, horizon=horizon, seed=3)
    assert {len(c.args[0]) for c in measured.call_args_list} == {2}

    def first_rise(rises, budget):
        """The error message when ``rises[(step, trial)]`` is added to that
        trial's squared distance after that step (step 0: the start)."""
        started, chunk = [], {}  # trials whose streams were made; the chunk's first trial

        def new_chunk(seed, trial):
            started.append(trial)
            return trial_rng(seed, trial)

        def rising(y, b, out=None):
            res = real(y, b, out)
            if started:  # a chunk makes its trials' streams, then measures its start
                chunk.update(lo=started[0], step=0)
                started.clear()
            else:
                chunk["step"] += 1
            for (at, trial), extra in rises.items():
                if at == chunk["step"] and 0 <= trial - chunk["lo"] < len(y):
                    res[trial - chunk["lo"]] += extra
            return res

        with mock.patch.object(gossip_module, "row_dots", rising), \
                mock.patch.object(gossip_module, "trial_rng", new_chunk), \
                mock.patch.object(gossip_module, "ENSEMBLE_CHUNK_BYTES", budget):
            with pytest.raises(qg.ConsistencyError) as err:
                qg.probability_one_convergence_experiment(
                    g, 0.5, rho, eps=1e-10, num_trials=4, horizon=horizon, seed=3)
        return str(err.value)

    for rises, trial in [({(1, 0): 1.0}, 0), ({(4, 2): 1.0}, 2),
                         ({(block, 1): 0.25}, 1), ({(block + 1, 3): 0.5}, 3),
                         ({(300, 1): 0.5, (300, 0): 0.25}, 0),
                         ({(9, 3): 1.0, (9, 2): 0.5}, 2)]:
        messages = {name: first_rise(rises, budget) for name, budget in budgets.items()}
        assert len(set(messages.values())) == 1, messages
        assert messages["default"].endswith(f" in trial {trial}")
        value = float(messages["default"].split("increased by ")[1].split()[0])
        [extra] = [v for (_, t), v in rises.items() if t == trial]
        assert value == pytest.approx(extra, abs=0.1)  # less the step's own fall
    # a later trial rising at an earlier step wins, within a chunk and across
    # chunks: the error does not depend on the chunk size
    rises = {(7, 2): 1.0, (3, 3): 0.5}
    for budget in budgets.values():
        assert first_rise(rises, budget).endswith(" in trial 3")


@pytest.mark.parametrize("m", [8, 9])
def test_single_trial_chunk_allocates_little(m):
    # one trial's deviation, gather and gather index and the start row y_0
    # take 32 bytes per entry of rho (2 complex matrices), and the twirl is
    # freed before they are allocated; numpy's reduction buffers and the
    # small arrays stay within 256 KiB
    g = path_graph(m)
    rho = qg.random_density(g.shape, m)
    # warm the orbit labels and the swap basis maps outside the measurement
    qg.probability_one_convergence_experiment(
        g, 0.5, rho, eps=1e-10, num_trials=1, horizon=1, seed=m)
    dd = g.shape.total_dim ** 2
    assert gossip_module.ENSEMBLE_CHUNK_BYTES < 2 * 24 * dd * 2  # one trial a chunk
    tracemalloc.start()
    try:
        qg.probability_one_convergence_experiment(
            g, 0.5, rho, eps=1e-10, num_trials=2, horizon=3, seed=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * dd + 2 ** 18


@pytest.mark.parametrize("shape, dtype", [((3, 5), np.complex128), ((7, 64), np.intp),
                                          ((1, 13), np.float64), ((2, 3, 4), np.uint8)])
def test_aligned_empty_starts_on_a_cache_line(shape, dtype):
    for _ in range(8):  # several allocations, wherever the allocator puts them
        a = gossip_module._aligned_empty(shape, dtype)
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % 64 == 0
        a[...] = 1  # every byte is the array's own
        assert a.sum() == math.prod(shape)


def test_swap_map_route_matches_the_edge_table_with_several_trials_a_chunk():
    # ten edges: a table of 80 KiB is over a quarter of this budget, so each
    # step's index is built from the swap maps
    g = qg.InteractionGraph(qg.NetworkShape(5, 2), list(itertools.combinations(range(1, 6), 2)))
    rho = qg.random_density(g.shape, 21)
    dd = g.shape.total_dim ** 2
    budget = 2 * 2 * 24 * dd
    assert 8 * len(g.edges) * dd > budget // 4

    def run():
        return qg.probability_one_convergence_experiment(
            g, 0.4, rho, eps=1e-6, num_trials=5, horizon=60, seed=17)

    with mock.patch.object(gossip_module, "row_dots",
                           wraps=gossip_module.row_dots) as measured, \
            mock.patch.object(gossip_module, "_flat_gathers",
                              wraps=gossip_module._flat_gathers) as built, \
            mock.patch.object(gossip_module, "ENSEMBLE_CHUNK_BYTES", budget):
        routed = run()
    assert [len(c.args[0]) for c in measured.call_args_list] == [2] * 122 + [1] * 61
    assert built.call_count == 60 * 3  # no table; one index per chunk and step
    assert routed == run()


def test_benchmark_ensemble_shapes_run_as_one_chunk(tmp_path):
    # a chunk split at one of the benchmark's shapes costs a whole extra pass
    # over the horizon; every distance call must measure all of a job's trials,
    # on rows whose vector loads do not straddle cache lines
    workloads = _perfbench_workloads()
    scenario_path = tmp_path / "job.json"
    edges = {}
    for m in sorted(set(workloads.CYCLES["ensemble"])):
        scenario_path.write_text(json.dumps(workloads.ensemble_pool_entry(m, 0)))
        scenario = load_scenario(scenario_path)
        edges[m] = len(scenario.graph.edges)
        trials = workloads.ENSEMBLE_TRIALS[m]
        allocated = []

        def aligned_empty(shape, dtype, _aligned_empty=gossip_module._aligned_empty):
            allocated.append(_aligned_empty(shape, dtype))
            return allocated[-1]

        with mock.patch.object(gossip_module, "row_dots",
                               wraps=gossip_module.row_dots) as measured, \
                mock.patch.object(gossip_module, "_aligned_empty", aligned_empty):
            qg.probability_one_convergence_experiment(
                scenario.graph, scenario.config.alpha, scenario.rho0,
                eps=workloads.ENSEMBLE_EPS, num_trials=trials,
                horizon=workloads.ENSEMBLE_HORIZON, seed=scenario.config.seed)
        assert measured.call_count == workloads.ENSEMBLE_HORIZON + 1
        assert {len(c.args[0]) for c in measured.call_args_list} == {trials}
        # the deviations, gathers, gather index and offsets (the edge-table
        # route) are all built on cache lines
        dd = scenario.rho0.shape.total_dim ** 2
        assert [(a.shape, a.dtype) for a in allocated] == [
            ((trials, dd), np.dtype(np.float64))] * 2 + [((trials, dd), np.dtype(np.intp))] * 2
        assert {a.ctypes.data % 64 for a in allocated} == {0}
        assert {c.args[0].ctypes.data % 64 for c in measured.call_args_list} == {0}
    assert edges == {3: 3, 4: 4, 5: 6}
    assert workloads.ENSEMBLE_TRIALS == {3: 35, 4: 30, 5: 20}


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
                scenario.graph, scenario.config.alpha, scenario.rho0,
                eps=workloads.ENSEMBLE_EPS, num_trials=workloads.ENSEMBLE_TRIALS[m],
                horizon=workloads.ENSEMBLE_HORIZON, seed=scenario.config.seed)
            key = f"{m}/{k}"
            problems[key] = workloads.check_ensemble(dataclasses.asdict(exp), key, reference)
    assert len(problems) == len(reference["ensemble"]) == 96
    assert {key: p for key, p in problems.items() if p} == {}


def _fig3(m=None, n=None, edges=None, state=None, sigma=None, alpha=None):
    """The bundled fig3 scenario, reshaped as the CI determinism runs reshape it."""
    doc = json.loads((Path(qg.__file__).parent / "scenarios" / "fig3.json").read_text())
    for section, key, value in [("shape", "m", m), ("shape", "n", n),
                                ("graph", "edges", edges), ("gossip", "alpha", alpha)]:
        if value is not None:
            doc[section][key] = value
    if state is not None:
        doc["initial_state"] = state
    if sigma is not None:
        doc["sigma"] = sigma
    return doc


# Each case: (scenario or perfbench pool m, trials, horizon, successes, largest
# final squared distance, sha256 prefixes of rho_0 and of every trial's final
# deviation R(rho_T) - R(T) in trial order), recorded when the trials first
# carried real deviation rows. The deviations come from elementwise products,
# sums and gathers only, so given rho_0 their bytes do not depend on the
# BLAS, and a change to how a step rounds changes the hash; the CI
# determinism diff only compares two runs of the same commit. The distances
# are BLAS dots, whose last bits follow the dot kernel's summation order: as
# sums of squares they agree to a relative 1e-10, and the largest rise, a
# difference of them, only stays below CONTRACTION_TOL. The pool's random rho_0 is a BLAS product G G^dagger, so
# with another dot kernel it is another state and only its counts are pinned.
PINNED_ENSEMBLES = {
    # fig3's default run: 200 trials, horizon 500
    "fig3": (_fig3(), 200, 500, 200, 3.209888138542706e-33,
             "f884032da3a5cb67", "12b72d33a5932b6f"),
    # m = 7 with 12 edges: the swap-map route, two trials a chunk
    "fig3-m7": (_fig3(m=7, edges=[[i, i + 1] for i in range(1, 7)] + [[1, 7]]
                      + [[i, i + 2] for i in range(1, 6)], state="1010101"),
                4, 30, 0, 0.0019643070916507497, "808507f37331ee9c", "eba52ffe61254a64"),
    # the CI's m = 5 shape at alpha = 0.3, where a step's products are not
    # exact in binary: from a basis state, so its hash holds on every BLAS
    "fig3-m5": (_fig3(m=5, edges=[[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [1, 3]],
                      state="10101", alpha=0.3),
                20, 400, 20, 2.767954383887502e-23, "d5d784a8ccc035a4", "f7c680ee41043a94"),
    "fig3-n3": (_fig3(n=3, state="2010", sigma={"real": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]}),
                3, 40, 0, 5.9142747583488574e-05, "c86f7683de712023", "3c72564c1a9e8091"),
    # perfbench ensemble pool entry 0 of each m
    "pool-3": (3, 35, 400, 35, 1.1842012422687282e-33, "18d32ab54d5b9c57", "c8f234426eb1a3b1"),
    "pool-4": (4, 30, 400, 30, 5.7608892590683555e-34, "75595ff7b6842442", "6401cdc0d25e9350"),
    "pool-5": (5, 20, 400, 20, 1.6712194661714974e-23, "48db7d9abefc519b", "c684b3021cea54eb"),
}


def _run_pinned(name, tmp_path):
    """The experiment of case ``name`` and sha256 prefixes of its ``rho_0``
    and of its trials' final deviations, as each chunk's last distance call
    measures them."""
    doc, trials, horizon = PINNED_ENSEMBLES[name][:3]
    if isinstance(doc, int):
        doc = _perfbench_workloads().ensemble_pool_entry(doc, 0)
    scenario_path = tmp_path / "job.json"
    scenario_path.write_text(json.dumps(doc))
    scenario = load_scenario(scenario_path)
    real = gossip_module.row_dots
    calls, digest = itertools.count(1), hashlib.sha256()

    def measure(y, *rest):
        # a chunk without a rise measures its deviations horizon + 1 times
        if next(calls) % (horizon + 1) == 0:
            digest.update(y.tobytes())
        return real(y, *rest)

    rho = scenario.rho0
    with mock.patch.object(gossip_module, "row_dots", measure):
        exp = qg.probability_one_convergence_experiment(
            scenario.graph, scenario.config.alpha, rho, eps=1e-10,
            num_trials=trials, horizon=horizon, seed=scenario.config.seed)
    start = hashlib.sha256(rho.matrix.tobytes()).hexdigest()
    return exp, start[:16], digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED_ENSEMBLES))
def test_ensemble_results_are_pinned(name, tmp_path):
    _, trials, horizon, successes, final, start, states = PINNED_ENSEMBLES[name]
    exp, run_start, run_states = _run_pinned(name, tmp_path)
    assert (exp.num_trials, exp.horizon, exp.eps, exp.successes) == (
        trials, horizon, 1e-10, successes)
    assert exp.empirical_probability == successes / trials
    assert 0.0 <= exp.max_distance_increase <= gossip_module.CONTRACTION_TOL
    if run_start != start:
        assert name.startswith("pool-")
        pytest.skip("this BLAS rounds the random rho_0 = G G^dagger differently")
    assert run_states == states
    assert exp.max_final_sq_distance == pytest.approx(final, rel=1e-10)
