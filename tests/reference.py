"""Reference forms for the tests.

The dense forms are built from Kronecker products and axis transposes alone.
They share nothing with the package's relabelling kernels, product kets or
gather indices, so they serve as independent oracles for them. Superoperators
act on ``x.ravel()``, where ``(A @ x @ B).ravel() == kron(A, B.T) @ x.ravel()``.

:func:`evolve_per_step` is the trajectory loop one step at a time, the oracle
for the blocks of :func:`qgossip.evolve`: it measures each state with the
one-matrix forms of the record kernels and draws one edge per step.

:func:`scatter_update` is the gossip step as one basis-map scatter per edge
(``states.conjugate_by_basis_map``), the bitwise oracle for the transposed
views of :func:`qgossip.gossip_update`.
"""

import numpy as np

import qgossip as qg
from qgossip import gossip
from qgossip.consensus import matrix_smc_defect, sym_kets
from qgossip.states import conjugate_by_basis_map, local_expectations, transposition_maps


def permutation_unitary(perm, shape):
    """``U_pi |x_1,...,x_m> = |x_pi(1),...,x_pi(m)>``: the identity with its site
    axes transposed."""
    m, d = shape.m, shape.total_dim
    legs = np.eye(d, dtype=np.complex128).reshape((shape.n,) * m + (d,))
    return legs.transpose([p - 1 for p in perm.mapping] + [m]).reshape(d, d)


def swap_unitary(j, k, shape):
    return permutation_unitary(qg.Permutation.transposition(shape.m, j, k), shape)


def conjugate(u, x):
    """``U x U^dagger``."""
    return u @ x @ u.conj().T


def gossip_superoperator(edges, weights, alpha, shape):
    """``(1 - alpha) I + alpha sum_e q_e kron(U_e, conj(U_e))``, the matrix of
    ``x -> (1 - alpha) x + alpha sum_e q_e U_e x U_e^dagger`` on ``x.ravel()``."""
    d = shape.total_dim
    acc = (1.0 - alpha) * np.eye(d * d, dtype=np.complex128)
    for e, q in zip(edges, weights):
        u = swap_unitary(*e, shape)
        acc += alpha * q * np.kron(u, u.conj())
    return acc


def apply(sop, x):
    """A superoperator on ``x.ravel()`` applied to the square matrix ``x``."""
    return (sop @ np.asarray(x).ravel()).reshape(np.shape(x))


def kron_sym_projector(sigma, m):
    """``Pi_sym = sum_j P_j^(x)m`` as a Kronecker sum of sigma's spectral projectors."""
    return sum(qg.kron_all([p] * m) for p in sigma.projectors)


def scatter_update(x, shape, edges, weights, alpha, out=None):
    """``(1 - alpha) x + alpha sum_e q_e U_e x U_e^dagger`` with each ``U_e x
    U_e^dagger`` scattered into a new array through edge e's basis map, in
    edge order; no edges give a copy of ``x``."""
    if not len(edges):
        if out is None:
            return x.copy()
        np.copyto(out, x)
        return out
    maps = transposition_maps(shape.m, shape.n)
    out = np.multiply(x, 1.0 - alpha, out=out)
    for e, q in zip(edges, weights):
        moved = conjugate_by_basis_map(x, maps[tuple(e)])
        moved *= alpha * q
        out += moved
    return out


def evolve_per_step(rho0, graph, config, sigma):
    """``evolve`` as a loop of single steps: record, check, stop test, then one
    ``gossip.gossip_update`` (looked up at each step, so a patched update is
    seen) on the edge ``next(edge_schedule(graph, config))``. Returns the
    record and the final state; raises what ``evolve`` raises, at the same
    step."""
    shape = rho0.shape
    obs = sigma if isinstance(sigma, qg.Observable) else qg.Observable(sigma)
    kets = sym_kets(obs, shape.m)
    star = qg.twirl_matrix(rho0.matrix, shape)
    schedule = qg.edge_schedule(graph, config)
    steps = config.steps
    z = np.empty((steps + 1, shape.m))
    s_expect, gap, defect = np.empty((3, steps + 1))
    edges, mat, termination = [], rho0.matrix.copy(), "steps_exhausted"
    for t in range(steps + 1):
        z[t] = local_expectations(mat, shape, obs.matrix)
        s_expect[t] = z[t].mean()
        gap[t] = qg.frobenius_distance(mat, star)
        defect[t] = matrix_smc_defect(mat, kets)
        if t:
            drift, rise = abs(s_expect[t] - s_expect[t - 1]), gap[t] - gap[t - 1]
            if drift > gossip.CONSERVATION_TOL:
                raise qg.ConsistencyError(f"conserved quantity drifted by {drift:.3e} at step {t}")
            if rise > gossip.CONTRACTION_TOL:
                raise qg.ConsistencyError(
                    f"distance to the twirl increased by {rise:.3e} at step {t}")
        if t == steps:
            break
        if config.stop_gap is not None and gap[t] < config.stop_gap:
            termination = f"converged_at_step_{t}"
            break
        idx = next(schedule)
        pairs, weights = ((graph.edges, graph.weights) if idx is None
                          else ([graph.edges[idx]], [1.0]))
        mat = gossip.gossip_update(mat, shape, pairs, weights, config.alpha)
        edges.append(None if idx is None else graph.edges[idx])
    drift = float(np.max(np.abs(qg.twirl_matrix(mat, shape) - star)))
    if drift > gossip.CONSERVATION_TOL:
        raise qg.ConsistencyError(
            f"twirl of the final state drifted by {drift:.3e} from twirl(rho_0)")
    n = len(edges) + 1
    rec = qg.TrajectoryRecord(strategy=config.strategy, alpha=config.alpha, edges=edges,
                              z=z[:n], s_expect=s_expect[:n], ssc_gap=gap[:n],
                              smc_defect=defect[:n], termination=termination)
    return rec, qg.DensityOperator.trusted(mat, shape)
