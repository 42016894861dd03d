"""Reference forms for the tests.

The dense forms are built from Kronecker products and axis transposes alone.
They share nothing with the package's relabelling kernels, product kets or
gather indices, so they serve as independent oracles for them. Superoperators
act on ``x.ravel()``, where ``(A @ x @ B).ravel() == kron(A, B.T) @ x.ravel()``.

:func:`orbit_blocks` is the exception: it slices the package's dense
:func:`qgossip.synchronous_superoperator` (checked against
:func:`gossip_superoperator` in the tests) by the package's orbit labels,
the reference for the class blocks of :func:`qgossip.synchronous_classes`.

:func:`evolve_per_step` is the trajectory loop one step at a time, the oracle
for the blocks of :func:`qgossip.evolve`: it measures each state with the
one-matrix forms of the record kernels and draws one edge per step.

:func:`scatter_update` is the gossip step as one basis-map scatter per edge
(``states.conjugate_by_basis_map`` of ``states.basis_index_map``), the
bitwise oracle for the transposed views of :func:`qgossip.gossip_update`.

:func:`site_average_fit` is the dense least-squares fit of a site average,
the oracle for the closed form of :func:`qgossip.s_average_check`.

:func:`real_form` is the real encoding ``R(x) = Re x + Im x`` of a Hermitian
matrix that the ensemble's trial rows hold, and :func:`from_real_form` its
decode ``(r + r^T)/2 + i (r - r^T)/2``, which gives a Hermitian matrix for
every real ``r``.
"""

import numpy as np

import qgossip as qg
from qgossip import gossip
from qgossip.consensus import matrix_smc_defect, sym_kets
from qgossip.rng import complex_ginibre, make_rng
from qgossip.states import (basis_index_map, conjugate_by_basis_map, local_expectations,
                            local_hermitian_basis, orbit_labels)


def permutation_unitary(order, shape):
    """``U_pi |x_1,...,x_m> = |x_pi(1),...,x_pi(m)>`` for the site order
    ``order = (pi(1), ..., pi(m))``: the identity with its site axes transposed."""
    m, d = shape.m, shape.total_dim
    legs = np.eye(d, dtype=np.complex128).reshape((shape.n,) * m + (d,))
    return legs.transpose([p - 1 for p in order] + [m]).reshape(d, d)


def transposition(m, j, k):
    """The site order of the swap of sites j and k among 1..m."""
    order = list(range(1, m + 1))
    order[j - 1], order[k - 1] = k, j
    return order


def swap_unitary(j, k, shape):
    return permutation_unitary(transposition(shape.m, j, k), shape)


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


def orbit_blocks(graph, alpha):
    """The orbit blocks ``dense[np.ix_(rows, rows)]`` of the dense synchronous
    map, one per orbit of ``orbit_labels`` over the graph's components, each
    with its rows increasing."""
    dense = qg.synchronous_superoperator(graph, alpha)
    labels, sizes = orbit_labels(graph.shape.m, graph.shape.n, graph.components())
    return [dense[np.ix_(rows, rows)]
            for rows in (np.flatnonzero(labels == o) for o in range(len(sizes)))]


def random_hermitian(dim, seed):
    """Hermitian matrix ``(G + G^dagger)/2`` with Ginibre ``G``."""
    g = complex_ginibre(make_rng(seed), dim)
    return (g + g.conj().T) / 2.0


def site_average_fit(s, shape):
    """The least-squares ``sigma`` of ``min ||S - (1/m) sum_i sigma^(i)||_F`` as a
    dense fit: ``S`` in the real span of the site averages of the ``n**2``
    generalized Gell-Mann matrices, their real and imaginary parts stacked into
    a ``2 d**2 x n**2`` matrix for ``np.linalg.lstsq``. Returns ``(sigma,
    residual)``, with sigma's Hermitian part; the oracle for the closed form of
    :func:`qgossip.s_average_check`."""
    basis = local_hermitian_basis(shape.n)
    columns = [qg.site_average(b, shape).ravel() for b in basis]
    a = np.stack([np.concatenate([c.real, c.imag]) for c in columns], axis=1)
    b = np.concatenate([np.ravel(s).real, np.ravel(s).imag])
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    sigma = sum(c * bm for c, bm in zip(coeffs, basis))
    return (sigma + sigma.conj().T) / 2.0, float(np.linalg.norm(a @ coeffs - b))


def real_form(x):
    """``R(x) = Re x + Im x``, one real array for a Hermitian ``x``."""
    return x.real + x.imag


def from_real_form(r):
    """The Hermitian matrix ``(r + r^T)/2 + i (r - r^T)/2`` whose real form is
    ``r``, in r's precision (``clongdouble`` for a ``longdouble`` r)."""
    rt = np.swapaxes(r, -1, -2)
    return (r + rt) / 2 + 1j * ((r - rt) / 2)


def von_neumann_entropy(rho):
    """Base-e von Neumann entropy of a ``DensityOperator``; eigenvalues below
    1e-15 contribute nothing."""
    evals = np.linalg.eigvalsh(rho.matrix)
    nz = evals[evals > 1e-15]
    return float(-np.sum(nz * np.log(nz)))


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
    out = np.multiply(x, 1.0 - alpha, out=out)
    for e, q in zip(edges, weights):
        moved = conjugate_by_basis_map(
            x, basis_index_map(transposition(shape.m, *e), shape))
        moved *= alpha * q
        out += moved
    return out


def evolve_per_step(rho0, graph, config, sigma):
    """``evolve`` as a loop of single steps: record, check, stop test, then one
    ``gossip.gossip_update`` (whose core ``gossip._gossip_update`` is looked up
    at each step, so a patched core is seen) on the edge
    ``next(edge_schedule(graph, config))``. Returns the
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
