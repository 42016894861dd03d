"""Dense reference forms for the tests, built from Kronecker products and axis
transposes alone.

They share nothing with the package's relabelling kernels, product kets or
gather indices, so they serve as independent oracles for them. Superoperators
act on ``x.ravel()``, where ``(A @ x @ B).ravel() == kron(A, B.T) @ x.ravel()``.
"""

import numpy as np

import qgossip as qg


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
