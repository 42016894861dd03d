"""Seeded, algorithm-pinned random number generation.

All stochastic components draw from an explicitly constructed PCG64
generator (a published, counter-jumpable algorithm whose stream is stable
across platforms), never from a platform-default source. Ensemble trials get
independent sub-streams through the documented splitting rule
``SeedSequence(entropy=seed, spawn_key=(trial,))``.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Return the PCG64 generator for a top-level seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Return the independent sub-stream for trial ``trial`` of ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),))
    return np.random.Generator(np.random.PCG64(ss))


def draw_index(rng: np.random.Generator, cum_weights: np.ndarray,
               size: int | None = None) -> int | np.ndarray:
    """Inverse-CDF draw over a cumulative weight vector.

    Returns the smallest index ``i`` with ``u < cum_weights[i]`` for a single
    uniform ``u``; the final entry of ``cum_weights`` must be 1 up to
    rounding, and a ``u`` at or past it takes the last index. Spelled out
    explicitly (rather than relying on library internals) so the
    edge-selection stream is reproducible by inspection. With ``size``, an
    array of ``size`` indices: the same ones that ``size`` single draws from
    ``rng`` give, since ``rng.random(size)`` is that many ``rng.random()``.
    """
    u = rng.random(size)
    idx = np.searchsorted(cum_weights, u, side="right")
    if size is None:
        return min(int(idx), len(cum_weights) - 1)
    return np.minimum(idx, len(cum_weights) - 1)


def complex_ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Square matrix of i.i.d. standard complex Gaussian entries."""
    a = rng.standard_normal((dim, dim, 2))
    return (a[..., 0] + 1j * a[..., 1]) / np.sqrt(2.0)
