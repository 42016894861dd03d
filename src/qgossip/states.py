"""States, observables, permutations and twirls on a subsystem network.

Local operators act on C^n; joint operators act on the m-fold tensor product
with site 1 as the leftmost factor. The permutation unitaries follow the
convention ``U_pi |x_1,...,x_m> = |x_pi(1),...,x_pi(m)>`` (site i of the
output holds the content of site pi(i) of the input), which is exactly the
convention under which

    U_pi (X_1 (x) ... (x) X_m) U_pi^dagger = X_pi(1) (x) ... (x) X_pi(m).

A site permutation is written as its 1-based order ``(pi(1), ..., pi(m))``:
:func:`basis_index_map` takes that tuple and returns the basis map of the
``U_pi`` above, so the order ``(2, 1, 3)`` swaps sites 1 and 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import ConsistencyError, DimensionError, ValidationError
from .linalg import (NetworkShape, _is_int, as_operator, check_sites, eigh, kron,
                     require_hermitian, row_dots)
from .rng import complex_ginibre, make_rng


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Single-qubit basics, sigma_z = |0><0| - |1><1| = diag(1, -1). Read-only, as is
# the name table: the observables built from them are shared (as_observable).
I2 = _read_only(np.eye(2, dtype=np.complex128))
SIGMA_X = _read_only(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=np.complex128))
PAULI = MappingProxyType({"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z, "identity": I2})

TRACE_TOL = 1e-10
GROUPING_TOL = 1e-8  # relative eigenvalue gap below which Observable merges projectors


def trace_index(m: int, n: int, k: int) -> np.ndarray:
    """Read-only flat index ``idx[g, a, a', r]`` of shape
    ``(C(m, k), n**k, n**k, n**max(m-k, 0))``, empty for k > m.

    Group g is the g-th k-site tuple of ``itertools.combinations`` over the
    sites. Entry ``[g, a, a', r]`` is the position in ``x.ravel()`` of
    ``<y|x|y'>``, where ``y`` holds the digits of ``a`` and ``y'`` those of
    ``a'`` at the group's sites, and both hold the digits of ``r`` at the other
    sites, in site order. ``x.ravel()[idx[g]].sum(-1)`` is then
    ``partial_trace(x, shape, group)``. Both index vectors are slices of the
    ``(n,)*m`` tensor of basis indices: ``r``'s row index with the group's
    axes at 0, and ``a``'s offset with every other axis at 0. Built once per
    shape: ``8 C(m, k) n**(m+k)`` bytes (0.8 MB at m=12, n=2, k=1). ``m`` and ``n``
    are checked as :class:`NetworkShape` checks them, and ``k`` must be an integer
    >= 0, before the cache is asked.
    """
    shape = NetworkShape(m, n)
    if not _is_int(k) or k < 0:
        raise ValidationError(f"k must be an integer >= 0, got {k!r}")
    return _trace_index(shape.m, shape.n, int(k))


@lru_cache(maxsize=16)
def _trace_index(m: int, n: int, k: int) -> np.ndarray:
    d = n ** m
    index = np.arange(d).reshape((n,) * m)
    groups = list(itertools.combinations(range(m), k))
    idx = np.empty((len(groups), n ** k, n ** k, n ** max(m - k, 0)), dtype=np.intp)
    for g, sites in enumerate(groups):
        row = index[tuple(0 if s in sites else slice(None) for s in range(m))].ravel()
        offset = index[tuple(slice(None) if s in sites else 0 for s in range(m))].ravel()
        idx[g] = row * (d + 1) + offset[:, None, None] * d + offset[None, :, None]
    idx.setflags(write=False)
    return idx


def orbit_labels(m: int, n: int, blocks: tuple[tuple[int, ...], ...]):
    """Read-only ``(labels, sizes)``: the orbit of every entry ``labels[i * d + j]``
    under ``prod_c S(blocks[c])``, and the size of each orbit.

    Permuting sites permutes both digit strings of ``(i, j)`` at once, so the
    orbit is the multiset of pair letters ``i_k n + j_k`` over each block's
    sites (the joint type). A b-site block's sorted letters ``s_0 <= s_1 ...``
    rank as ``sum_k C(s_k + k, k + 1)``, numbering its ``C(b + n**2 - 1, b)``
    types consecutively; blocks combine in mixed radix. Rows are labelled a
    chunk at a time in the smallest unsigned letter dtype.

    The blocks are checked (non-empty, of site labels, a partition of 1..m) and
    canonicalized to plain ints before the cache is asked, so a key that equals
    a valid one (``True == 1``, ``3.0 == 3``) is refused as a cold call refuses it.
    """
    shape = NetworkShape(m, n)
    message = f"blocks {blocks!r} do not partition sites 1..{shape.m}"
    blocks = tuple(check_sites(block, shape.m, message) for block in blocks)
    if not all(blocks) or sorted(itertools.chain(*blocks)) != list(shape.sites()):
        raise ValidationError(message)
    return _orbit_labels(shape.m, shape.n, blocks)


@lru_cache(maxsize=2)
def _orbit_labels(m: int, n: int, blocks: tuple[tuple[int, ...], ...]):
    d, q = n ** m, n * n
    site_digits = np.indices((n,) * m, dtype=np.min_scalar_type(q - 1)).reshape(m, d)
    # rank_tables[k - 1][s] = C(s + k, k + 1); position 0 adds s itself
    rank_tables = [np.array([math.comb(s + k, k + 1) for s in range(q)], dtype=np.intp)
                   for k in range(1, max(len(b) for b in blocks))]
    labels = np.empty(d * d, dtype=np.intp)
    rows = max(1, (1 << 16) // d)  # about 65 536 entries per chunk
    for r0 in range(0, d, rows):
        pairs = site_digits[:, r0:r0 + rows, None] * n + site_digits[:, None, :]
        lab = np.zeros(pairs.shape[1:], dtype=np.intp)
        for block in blocks:
            letters = [pairs[k - 1] for k in block]
            for i in range(len(letters)):  # odd-even transposition sort
                for j in range(i % 2, len(letters) - 1, 2):
                    letters[j], letters[j + 1] = (np.minimum(letters[j], letters[j + 1]),
                                                  np.maximum(letters[j], letters[j + 1]))
            lab *= math.comb(len(block) + q - 1, len(block))
            lab += letters[0]
            for k in range(1, len(block)):
                lab += rank_tables[k - 1][letters[k]]
        labels[r0 * d:(r0 + rows) * d] = lab.ravel()
    sizes = np.bincount(labels)
    for a in (labels, sizes):
        a.setflags(write=False)
    return labels, sizes


def basis_index_map(order: Sequence[int], shape: NetworkShape) -> np.ndarray:
    """The action of U_pi on computational basis indices, for the site order
    ``order = (pi(1), ..., pi(m))``.

    Returns ``bmap`` with ``U_pi |x> = |bmap[x]>``, where the digits of
    ``bmap[x]`` satisfy ``y_i = x_pi(i)``. Conjugating by ``U_pi`` then
    reduces to fancy indexing (:func:`conjugate_by_basis_map`).
    """
    order = tuple(order)
    if len(order) != shape.m:
        raise DimensionError(f"order of {len(order)} sites on shape with m={shape.m}")
    message = f"order {order!r} is not a bijection of 1..{shape.m}"
    if sorted(check_sites(order, shape.m, message)) != list(shape.sites()):
        raise ValidationError(message)
    weights = shape.n ** np.arange(shape.m - 1, -1, -1, dtype=np.int64)
    digits = np.arange(shape.total_dim)[:, None] // weights % shape.n  # digits[x, i]
    return digits[:, [p - 1 for p in order]] @ weights


def conjugate_by_basis_map(x: np.ndarray, bmap: np.ndarray) -> np.ndarray:
    """``U x U^dagger`` for the basis-relabelling unitary encoded by ``bmap``."""
    out = np.empty_like(x)
    out[bmap[:, None], bmap] = x
    return out


# ---------------------------------------------------------------------------
# local lifts
# ---------------------------------------------------------------------------

def lift_local(sigma, site: int, shape: NetworkShape) -> np.ndarray:
    """Embed a local operator at one site: ``I (x) ... (x) sigma (x) ... (x) I``.
    ``site`` is one label of :func:`linalg.check_sites`: an integer in 1..m."""
    s = as_operator(sigma)
    if s.shape[0] != shape.n:
        raise DimensionError(f"local operator dim {s.shape[0]} != n={shape.n}")
    site, = check_sites((site,), shape.m, f"site {site!r} is not an integer in 1..{shape.m}")
    left = np.eye(shape.n ** (site - 1), dtype=np.complex128)
    right = np.eye(shape.n ** (shape.m - site), dtype=np.complex128)
    return kron(kron(left, s), right)


def site_average(sigma, shape: NetworkShape) -> np.ndarray:
    """``(1/m) sum_i sigma^(i)``, the canonical permutation-invariant lift."""
    return sum(lift_local(sigma, i, shape) for i in shape.sites()) / shape.m


def local_hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of B(C^n) under <A,B> = Tr[A B].

    Generalized Gell-Mann construction: diagonal units, symmetric pairs,
    antisymmetric pairs; n**2 elements in total.
    """
    basis = []
    for j in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[j, j] = 1.0
        basis.append(e)
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=np.complex128)
            s[j, k] = s[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(s)
            a = np.zeros((n, n), dtype=np.complex128)
            a[j, k] = -1j / np.sqrt(2.0)
            a[k, j] = 1j / np.sqrt(2.0)
            basis.append(a)
    return basis


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

class DensityOperator:
    """A density operator on a subsystem network, its matrix read-only.

    ``DensityOperator(matrix, shape)`` checks a matrix from outside the program
    once, where it enters: Hermitian (``HERMITIAN_TOL``), dimension, unit trace
    (``TRACE_TOL``), then PSD (eigenvalues >= ``-PSD_TOL``) on the stored matrix.
    A state the program builds (ket projectors and their mixtures, ``G G^dagger``,
    twirls, gossip steps) is valid by construction and enters through
    :meth:`trusted`. Both store the Hermitian part ``(a + a^dagger)/2``: a complex
    ``np.outer`` or a twirl can miss exact Hermiticity in the last bits.
    """

    __slots__ = ("shape", "matrix")

    def __init__(self, matrix, shape: NetworkShape):
        a = require_hermitian(matrix, what="density operator")
        self._store(a, shape)
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} differs from 1 beyond {TRACE_TOL:.1e}")
        evals = np.linalg.eigvalsh(self.matrix)  # reads one triangle of the Hermitian part
        if evals[0] < -linalg.PSD_TOL:
            raise ValidationError(
                f"negative eigenvalue {evals[0]:.3e} below -{linalg.PSD_TOL:.1e}")

    def _store(self, a: np.ndarray, shape: NetworkShape) -> None:
        if a.shape[0] != shape.total_dim:
            raise DimensionError(f"matrix dim {a.shape[0]} != total dim {shape.total_dim}")
        a = (a + a.conj().T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "matrix", a)

    def __setattr__(self, *_):
        raise AttributeError("DensityOperator is immutable")

    @classmethod
    def trusted(cls, matrix: np.ndarray, shape: NetworkShape) -> "DensityOperator":
        """Store a state the program built: the dimension is checked and the Hermitian
        part kept, with no Hermiticity, trace or eigenvalue check."""
        rho = object.__new__(cls)
        rho._store(as_operator(matrix), shape)
        return rho

    @classmethod
    def from_ket(cls, ket, shape: NetworkShape) -> "DensityOperator":
        v = np.asarray(ket, dtype=np.complex128).ravel()
        if v.size != shape.total_dim:
            raise DimensionError(f"ket length {v.size} != total dim {shape.total_dim}")
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ValidationError("cannot normalize the zero vector")
        v = v / nrm
        return cls.trusted(np.outer(v, v.conj()), shape)

    def expectation(self, operator) -> complex:
        x = as_operator(operator)
        return complex(np.einsum("ij,ji->", self.matrix, x))


def local_reduced_states(x: np.ndarray, shape: NetworkShape) -> np.ndarray:
    """Every single-site reduced state of x as one ``(m, n, n)`` array.

    Row ``i - 1`` is ``partial_trace(x, shape, {i})``; all m come from one
    gather of ``m n d`` entries through :func:`trace_index` and one sum.
    """
    a = as_operator(x)
    if a.shape[0] != shape.total_dim:
        raise DimensionError("operator does not match the network shape")
    return a.ravel()[trace_index(shape.m, shape.n, 1)].sum(axis=-1)


def local_expectation_rows(rows: np.ndarray, shape: NetworkShape,
                           sigma: np.ndarray) -> np.ndarray:
    """``z[r, i] = Re Tr[sigma^(i) x_r]`` for every row ``x_r = x.ravel()`` of
    a complex ``(rows, d**2)`` array, as a ``(rows, m)`` array.

    All reduced states come from one gather through :func:`trace_index`.
    ``Re Tr[sigma xbar]`` is :func:`row_dots` of the ``float64`` views of
    ``xbar`` and ``sigma^dagger``, so a row's values do not depend on how
    many rows there are.
    """
    m, n = shape.m, shape.n
    reds = rows.take(trace_index(m, n, 1), axis=1).sum(axis=-1)  # (rows, m, n, n)
    weights = np.ascontiguousarray(np.asarray(sigma, dtype=np.complex128).conj().T)
    return row_dots(reds.view(np.float64).reshape(len(rows), m, 2 * n * n),
                    weights.view(np.float64).reshape(-1))


def local_expectations(x: np.ndarray, shape: NetworkShape,
                       sigma: np.ndarray) -> np.ndarray:
    """``z_i = Tr[sigma^(i) x] = Tr[sigma x_bar_i]`` (real part) for every
    site: the one-row case of :func:`local_expectation_rows`."""
    a = as_operator(x)
    if a.shape[0] != shape.total_dim:
        raise DimensionError("operator does not match the network shape")
    return local_expectation_rows(a.reshape(1, -1), shape, sigma)[0]


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def check_projector_family(projectors, dim: int) -> None:
    """Raise ConsistencyError unless ``projectors`` are Hermitian, mutually
    orthogonal projectors on ``C^dim`` that sum to the identity (to 1e-10)."""
    if np.max(np.abs(sum(projectors) - np.eye(dim))) > 1e-10:
        raise ConsistencyError("spectral projectors do not sum to the identity")
    for i, p in enumerate(projectors):
        if linalg.hermiticity_defect(p) > 1e-10:
            raise ConsistencyError("spectral projectors are not Hermitian")
        for j, q in enumerate(projectors):
            target = p if i == j else 0.0
            if np.max(np.abs(p @ q - target)) > 1e-10:
                raise ConsistencyError("spectral projectors are not orthogonal")


class Observable:
    """A Hermitian local observable with its grouped spectral decomposition,
    immutable: it holds a copy of the matrix it was given, and every array it
    holds is read-only, so one observable can be shared (:func:`as_observable`).

    Eigenvalues within ``GROUPING_TOL`` times the spectral range collapse to
    one spectral projector; ``nondegenerate`` is true when every projector
    has rank one. ``isometries[j]`` is the ``n x r_j`` matrix of orthonormal
    eigenvectors with ``projectors[j] = V_j V_j^dagger``. The family is
    checked at construction (:func:`check_projector_family`).
    """

    __slots__ = ("matrix", "eigenvalues", "projectors", "isometries")

    def __init__(self, matrix):
        a = require_hermitian(matrix, what="observable").copy()  # the caller's stays writable
        w, v = eigh(a)
        spread = float(w[-1] - w[0])
        thr = GROUPING_TOL * spread if spread > 1e-14 else np.inf
        groups: list[list[int]] = [[0]]
        for i in range(1, len(w)):
            if w[i] - w[groups[-1][0]] <= thr:
                groups[-1].append(i)
            else:
                groups.append([i])
        eigenvalues = []
        projectors = []
        isometries = []
        for g in groups:
            vg = _read_only(v[:, g])
            eigenvalues.append(float(np.mean(w[g])))
            projectors.append(_read_only(vg @ vg.conj().T))
            isometries.append(vg)
        check_projector_family(projectors, a.shape[0])
        object.__setattr__(self, "matrix", _read_only(a))
        object.__setattr__(self, "eigenvalues", tuple(eigenvalues))
        object.__setattr__(self, "projectors", tuple(projectors))
        object.__setattr__(self, "isometries", tuple(isometries))

    def __setattr__(self, *_):
        raise AttributeError("Observable is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nondegenerate(self) -> bool:
        return all(v.shape[1] == 1 for v in self.isometries)


def check_observable(sigma, n: int):
    """``sigma`` checked as a local observable on C^n, not yet built: a name of
    :data:`PAULI` (n = 2 only), an :class:`Observable`, or a Hermitian matrix as
    an array; ``ValidationError`` unless it is one of these and acts on C^n."""
    if isinstance(sigma, str):
        if sigma not in PAULI or n != 2:
            raise ValidationError(f"observable name {sigma!r} at n={n}: the names are "
                                  f"{', '.join(PAULI)}, for n=2 only")
        return sigma
    if isinstance(sigma, Observable):
        dim = sigma.dim
    else:
        sigma = require_hermitian(sigma, what="observable")
        dim = sigma.shape[0]
    if dim != n:
        raise ValidationError(f"observable dim {dim} != n={n}")
    return sigma


def as_observable(sigma, n: int) -> Observable:
    """The local observable ``sigma`` on C^n, the one coercion and dimension check of
    every sigma the program takes (:func:`check_observable`). A name's observable
    is built once per process and shared, so that callers naming one sigma again
    and again (a suite's entries, :func:`~qgossip.consensus.nogo_check`, a
    process running many jobs) build it once."""
    sigma = check_observable(sigma, n)
    if isinstance(sigma, str):
        return _pauli_observable(sigma)
    return sigma if isinstance(sigma, Observable) else Observable(sigma)


@cache
def _pauli_observable(name: str) -> Observable:
    """The observable of a checked :data:`PAULI` name (:func:`as_observable`)."""
    return Observable(PAULI[name])


# ---------------------------------------------------------------------------
# twirl
# ---------------------------------------------------------------------------

def twirl_matrix(x: np.ndarray, shape: NetworkShape) -> np.ndarray:
    """``(1/m!) sum_pi U_pi x U_pi^dagger`` as the mean of x over each entry orbit.

    ``U_pi x U_pi^dagger`` only moves entries within their orbits
    (:func:`orbit_labels`), and the group average spreads each orbit's sum
    evenly over it: one ``bincount`` per real and imaginary part and one
    gather, O(d**2) at every m. The argument is never modified; the result
    is a new array.

    The sum runs over the whole group, so this is also the Heisenberg-picture
    twirl ``(1/m!) sum_pi U_pi^dagger x U_pi`` of an observable.
    """
    a = as_operator(x)
    if a.shape[0] != shape.total_dim:
        raise DimensionError("operator does not match the network shape")
    labels, sizes = orbit_labels(shape.m, shape.n, (tuple(shape.sites()),))
    flat = a.ravel()
    mean = np.bincount(labels, flat.real, len(sizes)) / sizes
    mean = mean + 1j * (np.bincount(labels, flat.imag, len(sizes)) / sizes)
    return mean[labels].reshape(a.shape)


def twirl(rho: DensityOperator) -> DensityOperator:
    """Project a state onto the permutation-invariant subspace.

    The twirl is the orthogonal projection (Hilbert-Schmidt sense) onto
    operators commuting with every ``U_pi``; it preserves trace, hermiticity
    and positivity, and is idempotent.
    """
    return DensityOperator.trusted(twirl_matrix(rho.matrix, rho.shape), rho.shape)


def is_permutation_invariant(x: np.ndarray, shape: NetworkShape, tol: float = 1e-10) -> bool:
    """Whether x is constant on every entry orbit: ``max |x - twirl(x)| <= tol``."""
    a = as_operator(x)
    return float(np.max(np.abs(a - twirl_matrix(a, shape)))) <= tol


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_density(shape: NetworkShape, seed: int) -> DensityOperator:
    """Ginibre-ensemble state: ``G G^dagger / Tr[G G^dagger]``.

    ``G G^dagger`` is positive semidefinite by construction, so the state is
    built without the O(d^3) eigenvalue check.
    """
    g = complex_ginibre(make_rng(seed), shape.total_dim)
    gg = g @ g.conj().T
    return DensityOperator.trusted(gg / np.trace(gg).real, shape)


# ---------------------------------------------------------------------------
# named example states
# ---------------------------------------------------------------------------

def _basis_index(digits: str, n: int) -> int:
    """The basis index of a digit string, site 1 leftmost; ``ValidationError`` at
    the first character that is not a digit below ``n``."""
    idx = 0
    for ch in digits:
        if not ch.isdecimal() or int(ch) >= n:  # int() reads decimals only: not "²"
            raise ValidationError(f"digit {ch!r} invalid for local dimension {n}")
        idx = idx * n + int(ch)
    return idx


def _unit_ket(dim: int, index: int) -> np.ndarray:
    ket = np.zeros(dim, dtype=np.complex128)
    ket[index] = 1.0
    return ket


def basis_ket(digits: str, n: int) -> np.ndarray:
    """Computational basis ket from a digit string, site 1 leftmost."""
    return _unit_ket(n ** len(digits), _basis_index(digits, n))


def _named_three_qubit(name: str) -> DensityOperator:
    """One of the states "rhoA".."rhoF", by its checked name."""
    k0 = np.array([1.0, 0.0], dtype=np.complex128)
    k1 = np.array([0.0, 1.0], dtype=np.complex128)
    plus_unnorm = k0 + k1
    p_plus = np.outer(plus_unnorm, plus_unnorm)
    if name == "rhoA":
        mat = kron(I2, kron(p_plus, p_plus)) / 8.0
    elif name == "rhoB":
        bell_unnorm = np.kron(k0, k0) + np.kron(k1, k1)
        mat = kron(I2, np.outer(bell_unnorm, bell_unnorm)) / 4.0
    elif name == "rhoC":
        mat = np.eye(8, dtype=np.complex128) / 8.0
    elif name == "rhoD":
        e000 = basis_ket("000", 2)
        e111 = basis_ket("111", 2)
        mat = (np.outer(e000, e000) + np.outer(e111, e111)) / 2.0
    elif name == "rhoE":
        e000 = basis_ket("000", 2)
        mat = np.outer(e000, e000)
    else:  # rhoF
        ghz = basis_ket("000", 2) + basis_ket("111", 2)
        mat = np.outer(ghz, ghz) / 2.0
    return DensityOperator.trusted(mat, NetworkShape(3, 2))


def _check_mixture_weight(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")


def rho_g(p: float, m: int = 3, n: int = 2) -> DensityOperator:
    """``p |0...0><0...0| + (1-p) |n-1...><...|`` on m sites."""
    _check_mixture_weight(p)
    shape = NetworkShape(m, n)
    d = shape.total_dim
    lo, hi = _unit_ket(d, 0), _unit_ket(d, d - 1)  # all digits 0, all digits n-1
    mat = p * np.outer(lo, lo) + (1.0 - p) * np.outer(hi, hi)
    return DensityOperator.trusted(mat, shape)


@dataclass(frozen=True)
class StateSpec:
    """A checked state specifier (:func:`parse_state`): the shape of the state it
    names, ``build()``, which builds that state and cannot then fail a check, and
    the seed of a "random:<seed>" state (``None`` for the other forms)."""

    shape: NetworkShape
    build: Callable[[], DensityOperator]
    seed: int | None = None


def _basis_state(index: int, shape: NetworkShape) -> DensityOperator:
    return DensityOperator.from_ket(_unit_ket(shape.total_dim, index), shape)


def parse_state(spec: str, shape: NetworkShape | None = None) -> StateSpec:
    """Check a state specifier of :func:`named_state` without building the state.

    Accepted forms: "rhoA".."rhoF" (three qubits), "rhoG" or "rhoG:<p>" with
    ``p`` in [0, 1] (defaults p=0.3, three qubits unless ``shape`` overrides m),
    a digit string like "1010" of digits below n (shape inferred as qubits
    unless given, whose m is then its length), or "random:<seed>" with a
    non-negative integer seed (requires ``shape``). Anything else raises
    ``ValidationError``.
    """
    if spec in ("rhoA", "rhoB", "rhoC", "rhoD", "rhoE", "rhoF"):
        if shape is not None and (shape.m, shape.n) != (3, 2):
            raise ValidationError(f"{spec} is a three-qubit state, got shape {shape}")
        return StateSpec(NetworkShape(3, 2), partial(_named_three_qubit, spec))
    if spec == "rhoG" or spec.startswith("rhoG:"):
        p = 0.3
        if ":" in spec:
            try:
                p = float(spec.split(":", 1)[1])
            except ValueError as exc:
                raise ValidationError(f"bad rhoG parameter in {spec!r}") from exc
        _check_mixture_weight(p)
        target = shape if shape is not None else NetworkShape(3, 2)
        return StateSpec(target, partial(rho_g, p, target.m, target.n))
    if spec.startswith("random:"):
        if shape is None:
            raise ValidationError("random:<seed> needs an explicit network shape")
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad seed in {spec!r}") from exc
        if seed < 0:  # the words of numpy's own refusal of the seed
            raise ValidationError("expected non-negative integer")
        return StateSpec(shape, partial(random_density, shape, seed), seed)
    if spec and all(ch.isdigit() for ch in spec):
        n = shape.n if shape is not None else 2
        if shape is not None and len(spec) != shape.m:
            raise ValidationError(
                f"basis string {spec!r} has {len(spec)} digits but m={shape.m}")
        target = shape if shape is not None else NetworkShape(len(spec), n)
        return StateSpec(target, partial(_basis_state, _basis_index(spec, n), target))
    raise ValidationError(f"unrecognized state specifier {spec!r}")


def named_state(spec: str, shape: NetworkShape | None = None) -> DensityOperator:
    """Build a state from a CLI-style specifier: :func:`parse_state` checks it (its
    docstring lists the forms), then the state is built."""
    return parse_state(spec, shape).build()
