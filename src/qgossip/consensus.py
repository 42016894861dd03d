"""Classifiers for the four consensus notions on a subsystem network.

The four notions, from weakest to strongest on the relevant branches:

* sigma-expectation consensus: every subsystem reports the same expectation
  ``Tr[sigma^(i) rho]``.
* reduced-state consensus (RSC): all single-site reduced states coincide.
* symmetric-state consensus (SSC): ``U_pi rho U_pi^dagger = rho`` for every
  site permutation.
* sigma-measurement consensus (sigma-SMC): outcomes of repeated local sigma
  measurements agree across sites, equivalently ``Tr[Pi_sym rho] = 1`` for
  the symmetrized outcome projector ``Pi_sym = sum_j Pi_j^(x)m``.

SSC implies RSC implies sigma-EC; sigma-SMC implies sigma-EC always and
implies SSC when sigma is nondegenerate. ``classify`` enforces these
implications on its own verdicts and treats a violation as an internal
numerical fault.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import ConsistencyError, ValidationError
from .linalg import (NetworkShape, as_operator, eigh, frobenius_distance, kron_all,
                     sq_distance_rows)
from .states import (DensityOperator, Observable, PAULI, local_expectations,
                     local_hermitian_basis, local_reduced_states, trace_index,
                     twirl_matrix)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ConsensusReport:
    """Verdicts and gaps for one state against one local observable."""

    sigma_ec: bool
    sigma_ec_gap: float
    rsc: bool
    rsc_gap: float
    ssc: bool
    ssc_gap: float
    smc: bool
    smc_defect: float
    sigma_nondegenerate: bool
    tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_sigma_ec(rho: DensityOperator, sigma, tol: float = DEFAULT_TOL):
    """Return (flag, gap) with gap = max pairwise |z_j - z_k|.

    ``z_i = Tr[sigma^(i) rho]`` comes from :func:`local_expectations`.
    """
    mat = sigma.matrix if isinstance(sigma, Observable) else as_operator(sigma)
    z = local_expectations(rho.matrix, rho.shape, mat)
    gap = float(z.max() - z.min())
    return gap <= tol, gap


def check_rsc(rho: DensityOperator, tol: float = DEFAULT_TOL):
    """Return (flag, gap) with gap = max pairwise Frobenius distance of
    single-site reduced states, from one row-wise reduction over the
    ``C(m, 2)`` pairs (each row as :func:`frobenius_distance` sums it)."""
    reds = local_reduced_states(rho.matrix, rho.shape).reshape(rho.shape.m, -1)
    a, b = np.triu_indices(rho.shape.m, 1)
    x = reds[a].view(np.float64)
    sq = sq_distance_rows(x, reds[b].view(np.float64), np.empty_like(x))
    gap = float(np.sqrt(sq.max())) if len(sq) else 0.0
    return gap <= tol, gap


def ssc_gap(rho: DensityOperator) -> float:
    """Frobenius distance ``||rho - twirl(rho)||_F`` from the
    permutation-invariant subspace.

    The twirl is the exact group average (see :func:`twirl_matrix`), so this
    is the same quantity at every m. It is taken on the entries: a difference
    of squared norms would cancel near symmetric states.
    """
    return frobenius_distance(rho.matrix, twirl_matrix(rho.matrix, rho.shape))


def check_ssc(rho: DensityOperator, tol: float = DEFAULT_TOL):
    gap = ssc_gap(rho)
    return gap <= tol, gap


def sym_projector(sigma: Observable, m: int) -> np.ndarray:
    """The symmetrized outcome projector ``Pi_sym = K K^dagger`` on m sites as a
    dense d x d matrix, with K from :func:`sym_kets`.

    ``classify`` and ``evolve`` take ``Tr[Pi_sym x]`` from the kets instead;
    the dense matrix serves :func:`nogo_check` (m = 2). It is a projector
    because ``Observable`` checks sigma's spectral family when it is built.
    """
    kets = sym_kets(sigma, m)
    return kets @ kets.conj().T


def sym_kets(sigma: Observable, m: int) -> np.ndarray:
    """``K = [V_1^(x)m | V_2^(x)m | ...]`` with ``K K^dagger = Pi_sym``.

    ``V_j`` is the ``n x r_j`` isometry of sigma's spectral group j
    (``Observable.isometries``), so ``V_j^(x)m (V_j^(x)m)^dagger = P_j^(x)m``.
    K has ``sum_j r_j**m <= n**m`` columns, one per outcome when sigma is
    nondegenerate. Each power is built by broadcast outer products, site 1
    leftmost as in :func:`kron_all`, and K is C-contiguous.
    """
    blocks = []
    for v in sigma.isometries:
        k = v
        for _ in range(m - 1):
            k = (k[:, None, :, None] * v[None, :, None, :]).reshape(
                k.shape[0] * v.shape[0], k.shape[1] * v.shape[1])
        blocks.append(k)
    return np.ascontiguousarray(np.hstack(blocks))


def sym_overlap_rows(rows: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``Re Tr[Pi_sym x_r] = Re sum_j Tr[K_j^dagger x_r K_j]`` for every row
    ``x_r = x.ravel()`` of a complex ``(rows, d**2)`` array, with K the
    :func:`sym_kets` matrix and no d x d ``Pi_sym``.

    One stacked product ``x_r K`` (numpy runs the same BLAS product per row
    as for one matrix), O(d**2) per column of K, then the inner product with
    K on the ``float64`` views, summed per row on its own: a row's value does
    not depend on how many rows there are.
    """
    d = kets.shape[0]
    xk = np.matmul(rows.reshape(-1, d, d), kets)
    terms = xk.view(np.float64) * kets.view(np.float64)
    return np.add.reduce(terms.reshape(len(xk), -1), axis=1)


def smc_defect_rows(rows: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``max(1 - Tr[Pi_sym x_r], 0)`` for every row of a complex ``(rows, d**2)``
    array, the overlap from :func:`sym_overlap_rows`.

    This is the one definition of the SMC defect: :func:`matrix_smc_defect`
    is its one-row case, which :func:`check_smc` calls, and a trajectory
    records it a block of states at a time.
    """
    return np.maximum(1.0 - sym_overlap_rows(rows, kets), 0.0)


def matrix_smc_defect(x: np.ndarray, kets: np.ndarray) -> float:
    """``max(1 - Tr[Pi_sym x], 0)`` for a raw matrix: the one-row case of
    :func:`smc_defect_rows`."""
    return float(smc_defect_rows(np.ascontiguousarray(x).reshape(1, -1), kets)[0])


def smc_pairwise_gap(rho: DensityOperator, sigma: Observable) -> float:
    """Raw pairwise agreement deviation over all outcomes j and site pairs.

    ``max_{j,k!=l} |Tr[Pi_j^(k) Pi_j^(l) rho] - Tr[Pi_j^(l) rho]|``, the
    definition the symmetrized projector criterion compresses.

    Computed from two-site reduced states, with no d x d lift and nothing
    shared with :func:`sym_overlap_rows`'s kets. Since ``Pi_j^(k)`` and
    ``Pi_j^(l)`` act on different sites, the joint term is
    ``Tr[(Pi_j (x) Pi_j) rho_kl]``, symmetric in (k, l), and the single-site
    terms are ``Tr[(Pi_j (x) I) rho_kl]`` and ``Tr[(I (x) Pi_j) rho_kl]``.
    Each ``rho_kl`` is one gather through :func:`trace_index` and one
    sum, a pair at a time, so at most ``n**(m+2)`` entries (16 KB at m=8,
    n=2) are gathered at once.
    """
    n = rho.shape.n
    idx = trace_index(rho.shape.m, n, 2)
    flat = rho.matrix.ravel()
    pair_states = np.empty(idx.shape[:3], dtype=np.complex128)
    for p, pair_idx in enumerate(idx):
        np.sum(flat[pair_idx], axis=-1, out=pair_states[p])
    t = pair_states.reshape(-1, n, n, n, n)  # [pair, a_k, a_l, b_k, b_l]
    projs = np.array(sigma.projectors)
    joint = np.einsum("pabcd,jca,jdb->pj", t, projs, projs).real
    first = np.einsum("pabcb,jca->pj", t, projs).real
    second = np.einsum("pabad,jdb->pj", t, projs).real
    return float(np.maximum(abs(joint - first), abs(joint - second)).max(initial=0.0))


def check_smc(rho: DensityOperator, sigma: Observable, tol: float = DEFAULT_TOL):
    """Return (flag, defect) with defect = 1 - Tr[Pi_sym rho] in [0, 1].

    Two independent routes must agree on the verdict. The defect takes its
    overlap from sigma's product kets (:func:`sym_kets`, no d x d
    ``Pi_sym``); the raw pairwise definition (:func:`smc_pairwise_gap`) reads
    the two-site reduced states. A disagreement at the same tolerance
    indicates an internal fault and raises ConsistencyError.
    """
    if sigma.dim != rho.shape.n:
        raise ValidationError("observable dimension does not match the network")
    defect = matrix_smc_defect(rho.matrix, sym_kets(sigma, rho.shape.m))
    flag = defect <= tol
    pairwise = smc_pairwise_gap(rho, sigma)
    if (pairwise <= tol) != flag:
        raise ConsistencyError(
            f"symmetrized-projector defect {defect:.3e} and pairwise gap "
            f"{pairwise:.3e} disagree at tolerance {tol:.1e}")
    return flag, defect


def classify(rho: DensityOperator, sigma, tol: float = DEFAULT_TOL) -> ConsensusReport:
    """Run all four classifiers and enforce the implication hierarchy."""
    obs = sigma if isinstance(sigma, Observable) else Observable(as_operator(sigma))
    ec_flag, ec_gap = check_sigma_ec(rho, obs, tol)
    rsc_flag, rsc_gap = check_rsc(rho, tol)
    ssc_flag, gap_ssc = check_ssc(rho, tol)
    smc_flag, smc_defect = check_smc(rho, obs, tol)
    report = ConsensusReport(
        sigma_ec=ec_flag, sigma_ec_gap=ec_gap,
        rsc=rsc_flag, rsc_gap=rsc_gap,
        ssc=ssc_flag, ssc_gap=gap_ssc,
        smc=smc_flag, smc_defect=smc_defect,
        sigma_nondegenerate=obs.nondegenerate, tolerance=tol)
    _assert_hierarchy(report)
    return report


def _assert_hierarchy(report: ConsensusReport):
    failures = []
    if report.ssc and not report.rsc:
        failures.append("SSC without RSC")
    if report.rsc and not report.sigma_ec:
        failures.append("RSC without sigma-EC")
    if report.smc and not report.sigma_ec:
        failures.append("sigma-SMC without sigma-EC")
    if report.smc and report.sigma_nondegenerate and not report.ssc:
        failures.append("nondegenerate sigma-SMC without SSC")
    if failures:
        raise ConsistencyError(
            "consensus hierarchy violated (internal numerical fault): "
            + "; ".join(failures))


def rsc_iff_all_sigma_ec(rho: DensityOperator, tol: float = DEFAULT_TOL) -> bool:
    """Check that RSC holds exactly when sigma-EC holds for every sigma.

    Sweeps an orthonormal Hermitian basis of the local operator space; the
    basis spans all observables, so expectation agreement on it is agreement
    everywhere. Returns True when the two verdicts coincide.
    """
    rsc_flag, _ = check_rsc(rho, tol)
    all_ec = all(check_sigma_ec(rho, b, tol)[0]
                 for b in local_hermitian_basis(rho.shape.n))
    return rsc_flag == all_ec


def pure_rsc_implies_ssc_check(kets, tol: float = DEFAULT_TOL) -> bool:
    """Verify on a product of pure states: RSC plus pure reduced states force SSC.

    ``kets`` is one ket per site; vacuously true when the assembled product
    state is not in RSC. A counterexample raises ConsistencyError since the
    implication is a theorem.
    """
    vecs = [np.asarray(k, dtype=np.complex128).ravel() for k in kets]
    n = vecs[0].size
    if any(v.size != n for v in vecs):
        raise ValidationError("all kets must share one local dimension")
    vecs = [v / np.linalg.norm(v) for v in vecs]
    shape = NetworkShape(len(vecs), n)
    joint = kron_all(np.outer(v, v.conj()) for v in vecs)
    rho = DensityOperator.trusted(joint, shape)
    rsc_flag, _ = check_rsc(rho, tol)
    purity_ok = all(
        abs(np.einsum("ij,ji->", r, r).real - 1.0) <= 10 * tol
        for r in local_reduced_states(rho.matrix, shape))
    if not (rsc_flag and purity_ok):
        return True
    ssc_flag, gap = check_ssc(rho, tol)
    if not ssc_flag:
        raise ConsistencyError(
            f"pure RSC product state failed SSC with gap {gap:.3e}")
    return True


# ---------------------------------------------------------------------------
# witness: RSC does not imply SSC for mixed reduced states
# ---------------------------------------------------------------------------

def rsc_not_ssc_witness(rho_bar, m: int, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Construct a state in RSC but not SSC with every reduced state ``rho_bar``.

    Requires ``rho_bar`` of rank >= 2 and m >= 2. Writing
    ``rho_bar = p1 R1 + p2 R2`` with ``R1`` the projector on the top two
    eigenvectors ``e1, e2`` (and ``p1`` their smaller eigenvalue), the state

        q2 * R2_hat^(x)m  +  q1 * |Phi><Phi| (x) (R1/2)^(x)(m-2),
        |Phi> = (|e1 f1> + |e2 f2|) / sqrt(2),

    with ``{f1, f2}`` the 45-degree proper rotation of ``{e1, e2}`` inside
    the R1-subspace, reproduces ``rho_bar`` at every site while the
    asymmetric entanglement breaks permutation invariance. Rank-one inputs are rejected:
    for pure reduced states RSC forces SSC, so no witness exists.

    The returned state is verified against the classifiers before returning.
    """
    rb = as_operator(rho_bar)
    if m < 2:
        raise ValidationError("the witness needs at least two sites")
    w, v = eigh(rb)
    tr = float(np.trace(rb).real)
    if abs(tr - 1.0) > 1e-8:
        raise ValidationError("rho_bar must have unit trace")
    order = np.argsort(w)[::-1]
    lam = w[order]
    vecs = v[:, order]
    if lam[-1] < -linalg.PSD_TOL:
        raise ValidationError("rho_bar must be positive semidefinite")
    if lam[1] <= 1e-10:
        raise ValidationError(
            "rho_bar has rank < 2: pure reduced states admit no RSC-not-SSC witness")
    n = rb.shape[0]
    shape = NetworkShape(m, n)
    e1, e2 = vecs[:, 0], vecs[:, 1]
    # 45-degree proper rotation of the e-basis; a reflection would make the
    # pair coefficient matrix symmetric and the entangled block swap-invariant
    f1 = (e1 + e2) / np.sqrt(2.0)
    f2 = (e2 - e1) / np.sqrt(2.0)
    r1 = np.outer(e1, e1.conj()) + np.outer(e2, e2.conj())
    p1 = float(lam[1])
    q1 = 2.0 * p1
    q2 = 1.0 - q1

    phi = (np.kron(e1, f1) + np.kron(e2, f2)) / np.sqrt(2.0)
    ent = np.outer(phi, phi.conj())
    tail = kron_all(r1 / 2.0 for _ in range(m - 2))
    mat = q1 * np.kron(ent, tail)
    if q2 > 1e-12:
        r2_hat = (rb - p1 * r1) / q2
        mat = mat + q2 * kron_all(r2_hat for _ in range(m))
    witness = DensityOperator(mat, shape)

    for r in local_reduced_states(witness.matrix, shape):
        if frobenius_distance(r, rb) > 10 * tol:
            raise ConsistencyError("witness reduced state drifted from rho_bar")
    rsc_flag, rsc_g = check_rsc(witness, tol)
    ssc_flag, ssc_g = check_ssc(witness, tol)
    if not rsc_flag or ssc_flag:
        raise ConsistencyError(
            f"witness construction failed: rsc_gap={rsc_g:.3e}, ssc_gap={ssc_g:.3e}")
    return witness


# ---------------------------------------------------------------------------
# no-go: no state is SMC for two mutually unbiased observables (except n=2 pairs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NogoReport:
    """Spectral feasibility data for simultaneous two-observable SMC on m=2."""

    n: int
    lambda_max: float
    feasible: bool
    triple_pauli_fixed_dim: int | None

    def as_dict(self) -> dict:
        return asdict(self)


def nogo_check(n: int) -> NogoReport:
    """Probe simultaneous measurement consensus for a Fourier-conjugate pair.

    Builds ``H = Pi_sym Pi'_sym Pi_sym`` on two n-dimensional subsystems
    from the symmetrized projectors of ``diag(0..n-1)`` and of its
    discrete-Fourier conjugate ``F diag(0..n-1) F^dagger``. A joint SMC
    state exists only if the top eigenvalue reaches 1; ``feasible`` reports
    ``lambda_max >= 1 - 1e-10``. For n=2 the report also
    carries the dimension of the joint fixed space of the three Pauli
    symmetrized projectors (zero: no state survives all three).
    """
    if not isinstance(n, int) or not 2 <= n <= 8:
        raise ValidationError(f"n must be an integer in 2..8, got {n!r}")
    j = np.arange(n)
    levels = np.diag(j)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    pi_sym = sym_projector(Observable(levels), 2)
    pi_prime = sym_projector(Observable(fourier @ levels @ fourier.conj().T), 2)
    h = pi_sym @ pi_prime @ pi_sym
    lam_max = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[-1])
    feasible = lam_max >= 1.0 - 1e-10

    triple_dim = None
    if n == 2:
        eye4 = np.eye(4, dtype=np.complex128)
        total = np.zeros((4, 4), dtype=np.complex128)
        for name in ("x", "y", "z"):
            obs = Observable(PAULI[name])
            total += eye4 - sym_projector(obs, 2)
        evals = np.linalg.eigvalsh((total + total.conj().T) / 2.0)
        triple_dim = int(np.sum(evals < 1e-10))
    return NogoReport(n=n, lambda_max=lam_max, feasible=feasible,
                      triple_pauli_fixed_dim=triple_dim)
