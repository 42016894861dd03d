"""Classical gossip on real vectors, and the quantum-classical correspondence.

One interaction on edge (j, k), two distinct node labels in 1..m by the site-label
rule :func:`qgossip.linalg.check_sites` (given m itself: node values have no
dimension cap), replaces the pair (x_j, x_k) by the mixture

    (x_j, x_k) <- ((1 - alpha) x_j + alpha x_k, (1 - alpha) x_k + alpha x_j),

equivalently the increment form x_j <- x_j + alpha (x_k - x_j). The mean is
conserved exactly and the disagreement function W = sum_k ||x_k - mean||^2
never increases. Local quantum expectations z_l(t) = Tr[sigma^(l) rho_t]
follow exactly this recursion under quantum gossip on the same edge
sequence, which is what :func:`correspondence_run` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ConsistencyError, ValidationError
from .gossip import (ALL_EDGE_STRATEGIES, GossipConfig, InteractionGraph,
                     TrajectoryRecord, check_alpha, evolve)
from .linalg import _numeric, check_sites
from .states import DensityOperator

MEAN_TOL = 1e-13
W_MONOTONE_TOL = 1e-12


def as_value_array(x0) -> np.ndarray:
    """Coerce node values to float shape (m, d); scalars become d=1."""
    a = _numeric(x0, float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValidationError(f"node values must be (m,) or (m, d), got {a.shape}")
    return a


def _edge_rows(edge, m: int) -> tuple[int, int]:
    """The 0-based rows of an edge, a pair of distinct labels of m nodes."""
    message = f"edge {edge!r} invalid for {m} nodes"
    pair = check_sites(edge, m, message) if isinstance(edge, (list, tuple, np.ndarray)) else ()
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValidationError(message)
    return pair[0] - 1, pair[1] - 1


def _mix_rows(src: np.ndarray, out: np.ndarray, j: int, k: int, alpha: float) -> None:
    """Write the mixed rows j and k of ``src`` into ``out``."""
    out[j] = (1.0 - alpha) * src[j] + alpha * src[k]
    out[k] = (1.0 - alpha) * src[k] + alpha * src[j]


def classical_gossip_step(x: np.ndarray, edge, alpha: float) -> np.ndarray:
    """One pairwise mixing step; returns a new array."""
    check_alpha(alpha)
    a = as_value_array(x)
    j, k = _edge_rows(edge, a.shape[0])
    out = a.copy()
    _mix_rows(a, out, j, k, alpha)
    return out


def disagreement(x: np.ndarray) -> float:
    """W(x) = sum_k ||x_k - mean||^2, the gossip Lyapunov function."""
    a = as_value_array(x)
    centered = a - a.mean(axis=0, keepdims=True)
    return float(np.sum(centered ** 2))


@dataclass
class ClassicalTrajectory:
    """Recorded classical run: values ``x[t]`` has shape (m, d)."""

    alpha: float
    edges: list
    x: np.ndarray          # (steps+1, m, d)
    disagreement: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.edges)


def run_classical(x0, graph: InteractionGraph, alpha: float,
                  edge_sequence) -> ClassicalTrajectory:
    """Replay an edge sequence with classical gossip.

    ``edge_sequence`` lists (j, k) pairs, or None for a step that touches no
    single edge (as a quantum trajectory records it). The edges come from
    :func:`qgossip.gossip.edge_schedule`, so the quantum and classical
    engines always apply the same sequence.

    The mean is checked for exact conservation (1e-13 per component per
    step) and W for monotone decrease (1e-12); violations raise
    ConsistencyError since both are algebraic identities of the update.
    """
    a = as_value_array(x0)
    m = a.shape[0]
    if graph.shape.m != m:
        raise ValidationError(f"{m} node values for a graph on {graph.shape.m} sites")
    check_alpha(alpha)
    edges = list(edge_sequence)
    rows = [None if e is None else _edge_rows(e, m) for e in edges]
    xs = np.empty((len(edges) + 1,) + a.shape)
    xs[0] = a
    for t, pair in enumerate(rows, 1):
        xs[t] = xs[t - 1]
        if pair is not None:
            _mix_rows(xs[t - 1], xs[t], *pair, alpha)
    centered = xs - xs.mean(axis=1, keepdims=True)
    ws = np.sum(centered ** 2, axis=(1, 2))
    drifted = np.max(np.abs(xs.mean(axis=1) - a.mean(axis=0)), axis=1) > MEAN_TOL
    rose = np.diff(ws) > W_MONOTONE_TOL
    failed = np.flatnonzero(drifted[1:] | rose)
    if failed.size:  # name the first failing step; the mean is checked first
        t = int(failed[0]) + 1
        if drifted[t]:
            raise ConsistencyError(f"mean drifted at step {t}")
        raise ConsistencyError(
            f"disagreement increased by {ws[t] - ws[t - 1]:.3e} at step {t}")
    return ClassicalTrajectory(alpha=alpha, edges=edges, x=xs, disagreement=ws)


@dataclass
class CorrespondenceResult:
    """Per-step comparison of quantum local expectations and classical gossip."""

    quantum: TrajectoryRecord
    classical: ClassicalTrajectory
    max_deviation: float
    classical_limit_deviation: float


def correspondence_run(rho0: DensityOperator, sigma, graph: InteractionGraph,
                       config: GossipConfig,
                       fail_above: float = 1e-10) -> CorrespondenceResult:
    """Certify that quantum gossip reproduces classical gossip exactly.

    Runs the quantum trajectory, replays its edge sequence classically from
    ``x_l(0) = Tr[sigma^(l) rho_0]``, and compares ``z_l(t)`` step by step.
    The two recursions agree identically, so any deviation beyond
    ``fail_above`` (default 1e-10) raises CertificateError; observed
    deviations sit at the floating-point floor (< 1e-12).
    """
    if config.strategy in ALL_EDGE_STRATEGIES:
        raise ValidationError(
            "the correspondence is stated for single-edge schedules "
            "(random or cyclic)")
    rec, _ = evolve(rho0, graph, config, sigma)
    classical = run_classical(rec.z[0], graph, config.alpha, rec.edges)
    deviation = float(np.max(np.abs(rec.z - classical.x[:, :, 0])))
    if deviation > fail_above:
        raise CertificateError(
            f"quantum/classical gossip deviation {deviation:.3e} exceeds "
            f"{fail_above:.1e}")
    mean0 = float(rec.z[0].mean())
    limit_dev = float(np.max(np.abs(classical.x[-1][:, 0] - mean0)))
    return CorrespondenceResult(quantum=rec, classical=classical,
                                max_deviation=deviation,
                                classical_limit_deviation=limit_dev)
