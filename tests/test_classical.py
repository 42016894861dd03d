"""Tests for classical pairwise averaging and the quantum correspondence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgossip as qg
from qgossip import classical
from qgossip.classical import MEAN_TOL, as_value_array
from qgossip.rng import make_rng

SZ = qg.PAULI["z"]


def path_graph(m, n=2, weights=None):
    shape = qg.NetworkShape(m, n)
    return qg.InteractionGraph(shape, [(i, i + 1) for i in range(1, m)],
                               weights=weights)


def schedule_edges(g, strategy, steps, seed=None):
    """The first ``steps`` edges of the shared gossip schedule."""
    cfg = qg.GossipConfig(alpha=0.5, strategy=strategy, steps=steps, seed=seed)
    return [g.edges[i] for i in itertools.islice(qg.edge_schedule(g, cfg), steps)]


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_hand_values():
    out = qg.classical_gossip_step(np.array([1.0, 0.0]), (1, 2), 0.5)
    np.testing.assert_allclose(out[:, 0], [0.5, 0.5], atol=0)
    out = qg.classical_gossip_step(np.array([1.0, 0.0]), (1, 2), 0.3)
    np.testing.assert_allclose(out[:, 0], [0.7, 0.3], atol=1e-16)


def test_step_leaves_other_nodes_alone():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = qg.classical_gossip_step(x, (2, 4), 0.25)
    np.testing.assert_allclose(out[:, 0], [1.0, 2.5, 3.0, 3.5], atol=1e-15)


def test_step_on_vector_values():
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    out = qg.classical_gossip_step(x, (1, 2), 0.5)
    np.testing.assert_allclose(out, [[0.5, 1.0], [0.5, 1.0]], atol=0)


def test_step_validates_inputs():
    with pytest.raises(qg.ValidationError):
        qg.classical_gossip_step(np.array([1.0, 2.0]), (1, 2), 0.0)
    with pytest.raises(qg.ValidationError):
        qg.classical_gossip_step(np.array([1.0, 2.0]), (1, 1), 0.5)
    with pytest.raises(qg.ValidationError):
        qg.classical_gossip_step(np.array([1.0, 2.0]), (1, 3), 0.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
       st.floats(0.01, 0.99))
def test_mixture_and_increment_forms_agree(xj, xk, alpha):
    mixture = (1.0 - alpha) * xj + alpha * xk
    increment = xj + alpha * (xk - xj)
    scale = max(1.0, abs(xj), abs(xk))
    assert abs(mixture - increment) <= 1e-15 * scale * 4


def test_disagreement_hand_value():
    assert qg.disagreement(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-15)
    assert qg.disagreement(np.array([2.0, 2.0, 2.0])) == 0.0


def test_disagreement_decrement_formula():
    # one step lowers W by exactly 2 alpha (1 - alpha) ||x_j - x_k||^2
    rng = make_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((m, d))
        alpha = float(rng.uniform(0.05, 0.95))
        j, k = (int(v) for v in rng.choice(m, size=2, replace=False) + 1)
        drop = qg.disagreement(qg.classical_gossip_step(x, (j, k), alpha)) \
            - qg.disagreement(x)
        predicted = -2 * alpha * (1 - alpha) * float(np.sum((x[j - 1] - x[k - 1]) ** 2))
        assert drop == pytest.approx(predicted, abs=1e-12)


def test_as_value_array_shapes():
    assert as_value_array([1.0, 2.0]).shape == (2, 1)
    assert as_value_array(np.zeros((3, 2))).shape == (3, 2)
    with pytest.raises(qg.ValidationError):
        as_value_array(np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_conserves_mean_and_decreases_disagreement():
    g = path_graph(4)
    rng = make_rng(8)
    for seed in range(10):
        x0 = rng.standard_normal(4) * 5
        traj = qg.run_classical(x0, g, 0.4, schedule_edges(g, "random", 80, seed))
        np.testing.assert_allclose(traj.x[-1].mean(), x0.mean(), atol=1e-12)
        assert np.all(np.diff(traj.disagreement) <= 1e-12)


def test_cyclic_run_converges_to_mean():
    g = path_graph(4)
    x0 = np.array([4.0, 0.0, -2.0, 6.0])
    traj = qg.run_classical(x0, g, 0.5, schedule_edges(g, "cyclic", 200))
    np.testing.assert_allclose(traj.x[-1][:, 0], x0.mean(), atol=1e-10)
    assert traj.disagreement[-1] <= 1e-20


def test_randomized_runs_converge():
    g = path_graph(4)
    x0 = np.array([1.0, -1.0, 2.0, 0.0])
    for seed in range(50):
        traj = qg.run_classical(x0, g, 0.5, schedule_edges(g, "random", 300, seed))
        np.testing.assert_allclose(traj.x[-1][:, 0], x0.mean(), atol=1e-8)


def test_monotonicity_sweep_over_many_runs():
    g = path_graph(5)
    rng = make_rng(99)
    for trial in range(200):
        x0 = rng.standard_normal(5) * 10
        alpha = float(rng.uniform(0.05, 0.95))
        # run_classical raises ConsistencyError on any W increase
        traj = qg.run_classical(x0, g, alpha, schedule_edges(g, "random", 60, trial))
        assert traj.disagreement[-1] <= traj.disagreement[0] + 1e-12


def test_explicit_edge_sequence_with_noops():
    g = path_graph(3)
    x0 = np.array([3.0, 1.0, 5.0])
    traj = qg.run_classical(x0, g, 0.5, edge_sequence=[(1, 2), None, (2, 3)])
    np.testing.assert_allclose(traj.x[1][:, 0], [2.0, 2.0, 5.0], atol=0)
    np.testing.assert_allclose(traj.x[2][:, 0], traj.x[1][:, 0], atol=0)
    np.testing.assert_allclose(traj.x[3][:, 0], [2.0, 3.5, 3.5], atol=0)
    assert traj.steps == 3


def test_run_validates_inputs():
    g = path_graph(3)
    with pytest.raises(qg.ValidationError):
        qg.run_classical([1.0, 2.0], g, 0.5, schedule_edges(g, "cyclic", 3))


def test_run_is_the_sequence_of_single_steps():
    # the replay updates rows in place; it must equal stepping bit for bit
    g = path_graph(5)
    rng = make_rng(17)
    x0 = rng.standard_normal((5, 2))
    edges = schedule_edges(g, "random", 40, 3) + [None] + schedule_edges(g, "cyclic", 8)
    traj = qg.run_classical(x0, g, 0.37, edges)
    cur = as_value_array(x0)
    for t, edge in enumerate(edges, 1):
        cur = cur if edge is None else qg.classical_gossip_step(cur, edge, 0.37)
        np.testing.assert_array_equal(traj.x[t], cur)
        assert traj.disagreement[t] == qg.disagreement(cur)


def test_run_validates_alpha_and_every_edge_before_stepping():
    g = path_graph(3)
    with pytest.raises(qg.ValidationError, match="alpha"):
        qg.run_classical([1.0, 2.0, 3.0], g, 1.0, [(1, 2)])
    with pytest.raises(qg.ValidationError, match=r"edge \(1, 4\)"):
        qg.run_classical([1.0, 2.0, 3.0], g, 0.5, [(1, 2), None, (1, 4)])


@pytest.mark.parametrize("edge", [(1.9, 3), (True, 2), (1, 2.0), ("1", "2"), (1, 2, 3), (2,),
                                  (2, 2), (0, 1), (1, 4), 5, None])
def test_an_edge_is_a_pair_of_distinct_integer_nodes(edge):
    # (1.9, 3) used to be truncated to (1, 3); (1, 2, 3) raised a bare ValueError
    x = np.arange(3.0)
    with pytest.raises(qg.ValidationError, match="invalid for 3 nodes"):
        qg.classical_gossip_step(x, edge, 0.5)
    if edge is not None:  # None is a step that touches no edge
        with pytest.raises(qg.ValidationError, match="invalid for 3 nodes"):
            qg.run_classical(x, path_graph(3), 0.5, [(1, 2), edge])


def test_node_labels_take_numpy_integers_and_pass_the_dimension_cap():
    x = np.arange(3.0)
    np.testing.assert_array_equal(qg.classical_gossip_step(x, (np.int64(3), np.int64(1)), 0.5),
                                  qg.classical_gossip_step(x, (1, 3), 0.5))
    # 20 nodes would be 2**20 > MAX_TOTAL_DIM as a qubit network; node values have no cap
    out = qg.classical_gossip_step(np.arange(20.0), (1, 20), 0.5)
    assert out[0, 0] == out[19, 0] == 9.5


@pytest.mark.parametrize("kind,message", [
    ("shift", "mean drifted at step 3"),
    ("spread", r"disagreement increased by .* at step 3")])
def test_run_names_the_first_failing_step(monkeypatch, kind, message):
    # a faulty row update from step 3 on: the error names step 3
    mix = classical._mix_rows
    steps = []

    def faulty(src, out, j, k, alpha):
        steps.append(None)
        if len(steps) < 3:
            return mix(src, out, j, k, alpha)
        if kind == "shift":
            out[j] = src[j] + 1.0
        else:  # push the pair apart: the mean stays, W rises
            out[j], out[k] = 2 * src[j] - src[k], 2 * src[k] - src[j]

    monkeypatch.setattr(classical, "_mix_rows", faulty)
    g = path_graph(3)
    with pytest.raises(qg.ConsistencyError, match=message):
        qg.run_classical([3.0, 1.0, 5.0], g, 0.5, [(1, 2), (2, 3), (1, 2), (2, 3)])


def test_classical_matches_quantum_seed_stream():
    # evolve records exactly the first `steps` edges of the shared schedule
    g = path_graph(3, weights=[0.3, 0.7])
    rho = qg.random_density(g.shape, 5)
    cfg = qg.GossipConfig(alpha=0.5, strategy="random", steps=40, seed=77)
    rec, _ = qg.evolve(rho, g, cfg, SZ)
    assert rec.edges == schedule_edges(g, "random", 40, seed=77)


# ---------------------------------------------------------------------------
# correspondence
# ---------------------------------------------------------------------------

def test_correspondence_random_schedule():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 13)
    cfg = qg.GossipConfig(alpha=0.37, strategy="random", steps=200, seed=6)
    res = qg.correspondence_run(rho, SZ, g, cfg)
    assert res.max_deviation <= 1e-12
    assert res.classical_limit_deviation <= 1e-8
    assert res.quantum.edges == res.classical.edges


def test_correspondence_cyclic_schedule():
    g = path_graph(4)
    rho = qg.DensityOperator.from_ket(qg.basis_ket("1010", 2), g.shape)
    cfg = qg.GossipConfig(alpha=0.5, strategy="cyclic", steps=120)
    res = qg.correspondence_run(rho, SZ, g, cfg)
    assert res.max_deviation <= 1e-12
    # the classical chain inherits the conserved mean of the z values
    np.testing.assert_allclose(res.classical.x[-1][:, 0], 0.0, atol=1e-10)


def test_correspondence_rejects_synchronous():
    g = path_graph(3)
    rho = qg.random_density(g.shape, 14)
    cfg = qg.GossipConfig(alpha=0.5, strategy="synchronous", steps=10)
    with pytest.raises(qg.ValidationError):
        qg.correspondence_run(rho, SZ, g, cfg)


def test_correspondence_threshold_is_enforced():
    # an absurd threshold below the floating-point floor must trip the check
    g = path_graph(3)
    rho = qg.random_density(g.shape, 15)
    cfg = qg.GossipConfig(alpha=0.37, strategy="random", steps=150, seed=16)
    with pytest.raises(qg.CertificateError):
        qg.correspondence_run(rho, SZ, g, cfg, fail_above=1e-18)
