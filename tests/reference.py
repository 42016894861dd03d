"""Dense reference forms for the tests, built from Kronecker products alone.

They share nothing with the package's relabelling kernels, product kets or
gather indices, so they serve as independent oracles for them.
"""

import numpy as np

import qgossip as qg


def conjugate(u, x):
    """``U x U^dagger``."""
    return u @ x @ u.conj().T


def gossip_superoperator(edges, weights, alpha, shape):
    """``(1 - alpha) I + alpha sum_e q_e kron(conj(U_e), U_e)``, the column-stacking
    matrix of ``x -> (1 - alpha) x + alpha sum_e q_e U_e x U_e^dagger``."""
    d = shape.total_dim
    acc = (1.0 - alpha) * np.eye(d * d, dtype=np.complex128)
    for e, q in zip(edges, weights):
        u = qg.swap_unitary(*e, shape)
        acc += alpha * q * np.kron(u.conj(), u)
    return acc


def kron_sym_projector(sigma, m):
    """``Pi_sym = sum_j P_j^(x)m`` as a Kronecker sum of sigma's spectral projectors."""
    return sum(qg.kron_all([p] * m) for p in sigma.projectors)
