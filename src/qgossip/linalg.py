"""Dense complex linear algebra on multipartite operator spaces.

Operators are plain ``numpy.ndarray`` matrices of ``complex128`` in row-major
layout (column index fastest). All functions are pure and never mutate
their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConsistencyError, DimensionError, ResourceLimitError, ValidationError

# Hard cap on the joint dimension n**m for state-side computations.
MAX_TOTAL_DIM = 4096

# Joint dimensions above this refuse superoperator-sized work (dim**2 matrices).
MAX_SUPEROP_DIM = 64

# The spectrum's JSON lists all n**(2m) eigenvalues of the expected map, one
# indented [re, im] row of about 50 bytes each (49 on average at m = 8), and
# the text is built in memory before it is written: about 13 MB at the cap.
# At most m = 9 for n = 2.
MAX_LISTED_EIGENVALUES = 1 << 18

# Max-entry tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-9

# Eigenvalues of nominally PSD inputs may undershoot zero by this much.
PSD_TOL = 1e-10

# Frobenius tolerance for eigendecomposition round trips.
EIG_RECONSTRUCTION_TOL = 1e-10


def _numeric(x, dtype, convert=np.asarray) -> np.ndarray:
    """``convert(x, dtype=dtype)``, with ``ValidationError`` for what numpy cannot
    convert (a string, a ragged nesting, a dict or other non-numeric object)."""
    try:
        return convert(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot convert to {np.dtype(dtype)}: {exc}") from None


def as_operator(x) -> np.ndarray:
    """Coerce ``x`` to a square complex128 matrix."""
    a = _numeric(x, np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(x: np.ndarray) -> float:
    """Largest entry of ``|x - x^dagger|``."""
    return float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0


def require_hermitian(x: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = as_operator(x)
    defect = hermiticity_defect(a)
    if not defect <= HERMITIAN_TOL:  # a NaN or an infinity in x makes the defect NaN or inf
        raise ValidationError(
            f"{what} is not Hermitian: max |x - x^dagger| = {defect:.3e} > {HERMITIAN_TOL:.1e}")
    return a


def _is_int(v) -> bool:
    """An integer and not a bool: floats and strings are rejected, never truncated."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def check_sites(sites: Iterable, m: int, message: str) -> tuple[int, ...]:
    """``sites`` as plain ints if each is an integer (numpy integers count) in 1..m,
    else ``ValidationError(message)``: bools, floats and strings are never truncated."""
    labels = tuple(sites)
    if not all(_is_int(s) and 1 <= s <= m for s in labels):
        raise ValidationError(message)
    return tuple(map(int, labels))


@dataclass(frozen=True)
class NetworkShape:
    """A network of ``m`` isomorphic subsystems, each of local dimension ``n``.

    The joint Hilbert space has dimension ``n**m``; construction fails beyond
    the ``MAX_TOTAL_DIM`` cap. Subsystems are labelled 1..m in every public
    interface. ``m`` and ``n`` may be numpy integers and are stored as plain
    ``int``; bools, floats and strings are rejected, never truncated.
    """

    m: int
    n: int

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 1:
            raise ValidationError(f"m must be a positive integer, got {self.m!r}")
        if not _is_int(self.n) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        # 2**m already exceeds the cap here; a huge m never builds n**m
        if self.m >= MAX_TOTAL_DIM.bit_length() or self.n ** self.m > MAX_TOTAL_DIM:
            raise ResourceLimitError(
                f"total dimension {self.n}**{self.m} exceeds the cap {MAX_TOTAL_DIM}")

    @property
    def total_dim(self) -> int:
        return self.n ** self.m

    def sites(self) -> range:
        """1-based site labels."""
        return range(1, self.m + 1)


def kron(a, b) -> np.ndarray:
    """Kronecker product with a resource-cap guard on the result size."""
    am = np.asarray(a, dtype=np.complex128)
    bm = np.asarray(b, dtype=np.complex128)
    out_rows = am.shape[0] * bm.shape[0]
    if out_rows > MAX_TOTAL_DIM:
        raise ResourceLimitError(
            f"kron result dimension {out_rows} exceeds the cap {MAX_TOTAL_DIM}")
    return np.kron(am, bm)


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence; site 1 is the leftmost."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = kron(out, f)
    return out


def partial_trace(x, shape: NetworkShape, keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not in ``keep``, a non-empty set of site labels
    (:func:`check_sites`; repeats count once).

    ``x`` acts on the joint space of ``shape``, site 1 leftmost. The result
    has dimension ``n**len(keep)``, its factors in ascending site order.
    """
    a = as_operator(x)
    m, n = shape.m, shape.n
    if a.shape[0] != shape.total_dim:
        raise DimensionError(
            f"operator dimension {a.shape[0]} does not match shape {m} sites of dim {n}")
    keep0 = [k - 1 for k in sorted(set(check_sites(
        keep, m, f"keep labels must be integers in 1..{m}, got {keep!r}")))]
    if not keep0:
        raise ValidationError("keep must name at least one subsystem")

    row = list(range(m))
    col = [m + i for i in range(m)]
    for s in range(m):
        if s not in keep0:
            col[s] = row[s]
    out_labels = [row[s] for s in keep0] + [col[s] for s in keep0]
    t = a.reshape((n,) * (2 * m))
    reduced = np.einsum(t, row + col, out_labels)
    d = n ** len(keep0)
    return np.ascontiguousarray(reduced.reshape(d, d))


def eigh(x):
    """Hermitian eigendecomposition with validation.

    Checks hermiticity on entry (``HERMITIAN_TOL``, max entry), delegates to
    the dense LAPACK solver, and verifies the reconstruction
    ``V diag(w) V^dagger`` against the input to ``EIG_RECONSTRUCTION_TOL`` in
    Frobenius norm.
    Eigenvalues come back ascending with orthonormal columns in ``V``.
    """
    a = require_hermitian(x)
    w, v = np.linalg.eigh(a)
    residual = frobenius_norm(v @ np.diag(w) @ v.conj().T - a)
    scale = max(1.0, frobenius_norm(a))
    if residual > EIG_RECONSTRUCTION_TOL * scale:
        raise ConsistencyError(
            f"eigendecomposition reconstruction residual {residual:.3e}")
    return w, v


def frobenius_norm(x) -> float:
    return float(np.linalg.norm(np.asarray(x), ord="fro"))


# OpenBLAS's x86_64 ddot splits a dot of more than 10 000 floats across its
# threads, and the sum then depends on the thread count. A dot of at most this
# many floats runs on one thread, so row_dots writes the same bytes under any
# OPENBLAS_NUM_THREADS.
_DOT_SLAB = 8192


def row_dots(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sum_k a[..., k] b[..., k]`` over the last axis of ``float64`` arrays,
    with ``b`` of a's shape or one row broadcast across a's rows.

    This is the one summation rule of every per-row reduction (distances,
    SMC overlaps, local expectations): each row is one BLAS dot
    (``np.vecdot``) per slab of at most ``_DOT_SLAB`` floats, and the slab
    sums are added in slab order (``np.add.reduce``; skipped when a row fits
    one slab). So a row's result depends on its own entries only, not on how
    many rows there are or on the BLAS thread count.
    Only the ``(rows, slabs)`` partial sums are allocated.
    """
    n = a.shape[-1]
    if n <= _DOT_SLAB:
        return np.vecdot(a, b, out=out)
    whole, rest = divmod(n, _DOT_SLAB)
    cut = whole * _DOT_SLAB
    parts = np.empty(a.shape[:-1] + (whole + (rest > 0),))
    # a squared norm (b is a) reuses a's slab views
    slabs = a[..., :cut].reshape(a.shape[:-1] + (whole, _DOT_SLAB))
    np.vecdot(slabs, slabs if b is a else b[..., :cut].reshape(b.shape[:-1] + (whole, _DOT_SLAB)),
              out=parts[..., :whole])
    if rest:
        tail = a[..., cut:]
        np.vecdot(tail, tail if b is a else b[..., cut:], out=parts[..., whole])
    return np.add.reduce(parts, axis=-1, out=out)


def sq_distance_rows(x: np.ndarray, y: np.ndarray, scratch: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``||x_r - y_r||^2`` for every row of a 2-D ``float64`` array ``x`` (the
    view of complex rows), against the rows of ``y`` or one row broadcast:
    the difference goes into ``scratch`` (x's shape), then each row is
    :func:`row_dots` of it with itself. It is taken on the entries, never as
    a difference of norms, which would cancel near ``y``."""
    np.subtract(x, y, out=scratch)
    return row_dots(scratch, scratch, out)


def frobenius_distance(a, b) -> float:
    """``||a - b||_F`` for same-shaped matrices: the one-row case of
    :func:`sq_distance_rows`, so it equals a row of any block bit for bit."""
    am = _numeric(a, np.complex128, np.ascontiguousarray)
    bm = _numeric(b, np.complex128, np.ascontiguousarray)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
    x = am.reshape(1, -1).view(np.float64)
    return float(np.sqrt(sq_distance_rows(x, bm.reshape(1, -1).view(np.float64),
                                          np.empty_like(x))[0]))
