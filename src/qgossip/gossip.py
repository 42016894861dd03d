"""Quasi-local gossip dynamics on a network of quantum subsystems.

A single gossip interaction on edge (j, k) applies the channel

    E_jk(rho) = (1 - alpha) rho + alpha U_jk rho U_jk^dagger,

with swap unitary ``U_jk`` and mixing parameter ``alpha`` in (0, 1). Edge
schedules: one random edge per step (weights q), a fixed cyclic order, or the
synchronous/expected map ``E(rho) = sum q_jk E_jk(rho)``. On a connected
graph every schedule drives rho to the permutation twirl of the initial
state; fixed points of the expected map are exactly the operators commuting
with every edge swap.

A swap only relabels computational basis indices, so the map is applied by
moving entries. :func:`gossip_update`, the one trajectory step kernel, reads
``rho`` as its ``(n,)*2m`` tensor, one axis per site for the rows and one for
the columns: ``U_jk rho U_jk^dagger`` is the view with axes ``(j, k)`` and
``(m+j, m+k)`` exchanged, so a step builds no index. The ensemble, which
applies a different edge on each trial row, the superoperators and the
spectrum's class plans index entries through the swap's basis map instead,
the same axis exchange on the ``(n,)*m`` tensor of basis indices
(:func:`_swap_maps`). A superoperator is the ``(d**2, d**2)`` array
``(1 - alpha) I + alpha sum_e q_e P_e`` acting on ``rho.ravel()``, with
``P_e`` the flat gather of edge e's swap, which keeps every entry in its
orbit. A swap is a real symmetric permutation matrix, so these maps commute
with transposition and need no other flattening. Orbits whose letter
counts agree have permutation-similar, real symmetric blocks, so the
spectrum is certified from one block per isomorphism class
(:func:`synchronous_classes`, solved with ``eigvalsh``, its eigenvalues
kept as (value, multiplicity) pairs, never expanded); its size, not the
dense ``MAX_SUPEROP_DIM``, is what is capped. A class's rows are one orbit,
read off :func:`orbit_labels` at a representative entry, the same labels
the twirl takes its means over. The classes' counts, rows and every
in-component swap's block columns depend only on ``(m, n, components)``:
they are built once per key (:func:`_class_plans`, which keeps the two most
recent, at most 1.9 MB each: ``m = 8``, ``n = 2``, one component), so a call
only fills the blocks from the weights and ``alpha``, and a one-shot run
pays one build, as before.
The dense :func:`synchronous_superoperator`, whose orbit blocks the tests
slice out, and the brute-force :func:`commutant_dimension` are kept as
independent references for the tests.

:func:`evolve` steps a trajectory into a block of states, one ``rho.ravel()``
per row of a buffer of ``RECORD_BLOCK_BYTES`` (128 KiB, and never fewer than
the current state and the next one), and records the whole block at once:
one gather for every ``z`` row, one distance per row, one stacked SMC overlap
product. Every per-row sum is :func:`linalg.row_dots`, whose result for a row
depends on that row's entries only; the functions that measure one matrix are
the record kernels' one-row case, so a row's record does not depend on the
block.

The random-gossip ensemble (:func:`probability_one_convergence_experiment`)
steps all trials of a chunk at once, as one ``(trials, d**2)`` array, on
:func:`evolve`'s pattern: edges drawn a block at a time, one gather, an
in-place mix and one :func:`sq_distance_rows` per time step into a row of
the block's distances, and one rise check per block. Every swap's flat
gather, the edge table of small shapes and the per-step index of large ones,
comes from :func:`_flat_gathers`. A chunk's working arrays fit in
``ENSEMBLE_CHUNK_BYTES`` (4 MiB), or it is one trial. The whole-chunk arrays
(states, gathers, gather index, tiled twirl and, with an edge table, row
offsets) start on 64-byte boundaries (:func:`_aligned_empty`), so no vector
load of a step's passes straddles two cache lines and a chunk's speed does
not depend on where the allocator put it.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .consensus import smc_defect_rows, sym_kets
from .errors import ConsistencyError, DimensionError, ResourceLimitError, ValidationError
from .linalg import (MAX_LISTED_EIGENVALUES, MAX_SUPEROP_DIM, MAX_TOTAL_DIM, NetworkShape,
                     _is_int, _is_real, check_sites, frobenius_distance, require_hermitian,
                     sq_distance_rows)
from .rng import draw_index, make_rng, trial_rng
# conjugate_by_basis_map is unused here, but perfbench/spans.py wraps this
# module's binding of it as its gossip.step layer
from .states import (DensityOperator, as_observable, conjugate_by_basis_map,  # noqa: F401
                     is_permutation_invariant, lift_local, local_expectation_rows,
                     local_expectations, local_reduced_states, orbit_labels,
                     site_average, twirl_matrix)

ALL_EDGE_STRATEGIES = ("synchronous", "expected")  # every step applies every edge
STRATEGIES = ("random", "cyclic") + ALL_EDGE_STRATEGIES
CONSERVATION_TOL = 1e-10
CONTRACTION_TOL = 1e-12    # largest rise of a (squared) distance to twirl(rho_0)
DISK_TOL = 1e-9           # spectral certificate: disk violation and unit eigenvalues
DECOMPOSITION_TOL = 1e-10  # s_average_check: residual of S against single-site lifts
ENSEMBLE_CHUNK_BYTES = 1 << 22  # working arrays of one chunk of ensemble trials
RECORD_BLOCK_BYTES = 1 << 17    # the block of trajectory states evolve records at once


# ---------------------------------------------------------------------------
# interaction graphs and run configuration
# ---------------------------------------------------------------------------

def check_alpha(alpha: float) -> None:
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):  # NaN fails too
        raise ValidationError(f"alpha must lie strictly in (0, 1), got {alpha!r}")


def _check_steps(steps) -> None:
    if not _is_int(steps) or steps < 0:
        raise ValidationError(f"steps must be a nonnegative integer, got {steps!r}")


def _check_edge(e, m: int) -> tuple[int, int]:
    """``e`` as a sorted pair of distinct site labels in 1..m, else ``ValidationError``."""
    if not isinstance(e, (list, tuple, np.ndarray)) or len(e) != 2:
        raise ValidationError(f"edge {e!r} must be a pair of site labels")
    pair = tuple(sorted(check_sites(e, m, f"edge {e!r} outside sites 1..{m}")))
    if pair[0] == pair[1]:
        raise ValidationError(f"edge {e!r} must join two distinct sites")
    return pair


def _listed(items, what: str) -> list:
    """``items`` as a list, else ``ValidationError`` for what cannot be iterated."""
    try:
        return list(items)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {items!r}") from None


class InteractionGraph:
    """Undirected interaction graph on sites 1..m with positive edge weights.

    Edges are pairs of distinct site labels (:func:`linalg.check_sites`: integers
    in 1..m; bools, floats and strings are rejected, never truncated), stored
    sorted without duplicates. Weights are real numbers in (0, 1] that default
    to uniform and sum to one within 1e-12. A graph may be disconnected
    (evolution then only symmetrizes within components) but consumers that
    need global consensus warn or reject.
    """

    __slots__ = ("shape", "edges", "weights")

    def __init__(self, shape: NetworkShape, edges: Sequence[Sequence[int]],
                 weights: Sequence[float] | None = None):
        norm_edges = []
        seen = set()
        for e in _listed(edges, "edges"):
            pair = _check_edge(e, shape.m)
            if pair in seen:
                raise ValidationError(f"duplicate edge {pair}")
            seen.add(pair)
            norm_edges.append(pair)
        if weights is None:
            w = [1.0 / len(norm_edges)] * len(norm_edges) if norm_edges else []
        else:
            weights = _listed(weights, "edge weights")
            if any(not _is_real(x) or not 0.0 < x <= 1.0 for x in weights):
                raise ValidationError(
                    f"edge weights must be real numbers in (0, 1], got {weights!r}")
            w = [float(x) for x in weights]
            if len(w) != len(norm_edges):
                raise ValidationError(
                    f"{len(w)} weights for {len(norm_edges)} edges")
            if norm_edges and abs(sum(w) - 1.0) > 1e-12:
                raise ValidationError(f"edge weights sum to {sum(w)!r}, not 1")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "weights", tuple(w))

    def __setattr__(self, *_):
        raise AttributeError("InteractionGraph is immutable")

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted site tuples, ordered by smallest site."""
        comps = [{i} for i in self.shape.sites()]
        for j, k in self.edges:
            cj, ck = (next(c for c in comps if v in c) for v in (j, k))
            if cj is not ck:
                cj |= ck
                comps.remove(ck)
        return tuple(sorted(tuple(sorted(c)) for c in comps))

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def laplacian_gap(self) -> float:
        """``lambda_2`` of the weighted Laplacian
        ``L_q = sum_e q_e (e_j - e_k)(e_j - e_k)^T``; a graph needs at least
        two sites to have one."""
        if self.shape.m < 2:
            raise ValidationError(
                f"the Laplacian gap needs at least two sites, the graph has {self.shape.m}")
        lap = np.zeros((self.shape.m, self.shape.m))
        for (j, k), q in zip(self.edges, self.weights):
            lap[[j - 1, k - 1], [j - 1, k - 1]] += q
            lap[[j - 1, k - 1], [k - 1, j - 1]] -= q
        return float(np.linalg.eigvalsh(lap)[1])


@dataclass(frozen=True)
class GossipConfig:
    """Evolution parameters.

    ``strategy`` is one of "random", "cyclic", "synchronous", "expected"
    (the last two are the same map; the label is kept for records).
    ``steps`` and ``seed`` are nonnegative integers (bools and floats are
    rejected, never truncated); "random" needs a seed. ``cycle_order``
    lists 0-based indices into the graph's edge tuple and must cover every
    edge at least once; it defaults to the natural order.
    ``stop_gap``, when set, is a finite nonnegative real (bools rejected)
    and ends the run early once the recorded ssc gap falls below it.
    """

    alpha: float
    strategy: str
    steps: int
    seed: int | None = None
    cycle_order: tuple[int, ...] | None = None
    stop_gap: float | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy {self.strategy!r} not in {STRATEGIES}")
        _check_steps(self.steps)
        if self.seed is not None and (not _is_int(self.seed) or self.seed < 0):
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.strategy == "random" and self.seed is None:
            raise ValidationError("random strategy requires a seed")
        if self.cycle_order is not None and self.strategy != "cyclic":
            raise ValidationError("cycle_order is only meaningful for the cyclic strategy")
        if self.stop_gap is not None and not (
                _is_real(self.stop_gap) and 0.0 <= self.stop_gap < math.inf):
            raise ValidationError(
                f"stop_gap must be a finite nonnegative number, got {self.stop_gap!r}")

    def resolved_cycle_order(self, graph: InteractionGraph) -> tuple[int, ...]:
        if self.cycle_order is None:
            return _check_cycle_order(range(len(graph.edges)), graph)
        return _check_cycle_order(self.cycle_order, graph)


def _warn_if_disconnected(graph: InteractionGraph) -> None:
    """Warn, at the caller of the function calling this, that no schedule can
    reach the global twirl on ``graph``."""
    if not graph.is_connected():
        warnings.warn("interaction graph is disconnected; consensus will be "
                      "blockwise only", stacklevel=3)


def _check_cycle_order(order, graph: InteractionGraph) -> tuple[int, ...]:
    """Validate a sweep of 0-based edge indices that covers every edge.

    Entries must be integers (bools and integral floats or strings are
    rejected, never truncated).
    """
    order = tuple(order)
    if not all(map(_is_int, order)):
        raise ValidationError(
            f"cycle order must contain 0-based edge indices, got {list(order)!r}")
    order = tuple(int(i) for i in order)
    if not order:
        raise ValidationError("cycle order must not be empty")
    if any(i < 0 or i >= len(graph.edges) for i in order):
        raise ValidationError("cycle order indexes a nonexistent edge")
    if set(order) != set(range(len(graph.edges))):
        raise ValidationError("cycle order must cover every edge at least once")
    return order


def edge_schedule(graph: InteractionGraph, config: GossipConfig,
                  rng: np.random.Generator | None = None,
                  block: int | None = None) -> Iterator:
    """The edge each step applies: an endless iterator of 0-based edge indices.

    "random" draws one index per step by inverse CDF over the edge weights
    (Boyd et al., randomized gossip) from ``make_rng(config.seed)``, or from
    ``rng`` when given (one sub-stream per ensemble trial);
    "cyclic" repeats ``config.resolved_cycle_order(graph)``. Synchronous and
    expected steps touch every edge at once and yield None, as does every
    step on a graph with no edges. With ``block``, the same sequence comes
    ``block`` steps at a time, as arrays of indices (or None): random blocks
    are one :func:`draw_index` call each, which draws exactly what ``block``
    single draws give. :func:`evolve` and the ensemble read their edges from
    here, and classical replays take the edges a trajectory recorded, so
    every engine sees the same sequence.
    """
    if config.strategy in ALL_EDGE_STRATEGIES or not graph.edges:
        return itertools.repeat(None)
    if config.strategy == "cyclic":
        order = config.resolved_cycle_order(graph)
        if block is None:
            return itertools.cycle(order)
        # every window of `block` steps, starting anywhere in the first sweep
        sweeps = np.tile(np.array(order, dtype=np.intp), block // len(order) + 2)
        starts = itertools.cycle([i * block % len(order) for i in range(len(order))])
        return (sweeps[p:p + block] for p in starts)
    rng = make_rng(config.seed) if rng is None else rng
    cum = np.cumsum(graph.weights)
    return (draw_index(rng, cum, size=block) for _ in itertools.count())


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _swap_axes(m: int, j: int, k: int) -> tuple[int, ...]:
    """The axis order of the ``(n,)*2m`` tensor of a ``d x d`` matrix that
    swaps sites j and k: row axes ``(j-1, k-1)`` and column axes
    ``(m+j-1, m+k-1)`` exchanged."""
    axes = list(range(2 * m))
    for a in (j - 1, m + j - 1):
        axes[a], axes[a + k - j] = axes[a + k - j], axes[a]
    return tuple(axes)


def _swap_maps(m: int, n: int, pairs) -> np.ndarray:
    """The ``(len(pairs), n**m)`` basis maps of the swaps of the site pairs
    ``(j, k)``: ``U_jk |x> = |b[x]>``, the basis indices as an ``(n,)*m``
    tensor with site axes j and k exchanged."""
    index = np.arange(n ** m).reshape((n,) * m)
    return np.array([index.transpose(_swap_axes(m, j, k)[:m]).ravel() for j, k in pairs],
                    dtype=np.intp).reshape(-1, n ** m)


def gossip_update(x: np.ndarray, shape: NetworkShape, edges, weights, alpha: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """One gossip step ``(1 - alpha) x + alpha sum_e q_e U_e x U_e^dagger``.

    ``x`` is a ``d x d`` matrix on ``shape`` (else ``DimensionError``); ``edges``
    are pairs ``(j, k)`` of distinct site labels, each with a real weight ``q_e``,
    and ``alpha`` is in (0, 1) (else ``ValidationError``). Reshaped to the
    ``(n,)*2m`` tensor, ``U_jk x U_jk^dagger`` is ``x`` with its axes ``(j, k)``
    and ``(m+j, m+k)`` exchanged, a transposed view. Each edge copies that view
    into one scratch ``d x d`` matrix (a plain copy costs less than a ufunc
    reading the view, which buffers the short strided runs of small shapes),
    scales it by ``alpha q_e`` and adds it to the result, so no index is built
    and nothing is allocated per edge. The ensemble, which applies a different
    edge on each trial row, and the superoperators keep the flat gathers of
    :func:`_flat_gathers`.

    A single edge of weight 1.0 gives exactly ``(1 - alpha) x + alpha U x
    U^dagger``; no edges give a copy of ``x``. The result is written into
    ``out`` (which must not overlap ``x``) when it is given, and returned.
    """
    check_alpha(alpha)
    x = np.asarray(x)
    if x.shape != (shape.total_dim,) * 2:
        raise DimensionError(f"matrix shape {x.shape} on a network of total dim {shape.total_dim}")
    pairs = [_check_edge(e, shape.m) for e in edges]
    if len(weights) != len(pairs) or not all(map(_is_real, weights)):
        raise ValidationError(f"expected a real weight for each of {len(pairs)} edges, "
                              f"got {list(weights)!r}")
    return _gossip_update(x, shape, pairs, weights, alpha, out)


def _gossip_update(x: np.ndarray, shape: NetworkShape, edges, weights, alpha: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """:func:`gossip_update` unchecked, for the trajectory loops and their graph's edges."""
    if not len(edges):
        if out is None:
            return x.copy()
        np.copyto(out, x)
        return out
    out = np.multiply(x, 1.0 - alpha, out=out)
    scratch = np.empty(x.shape, dtype=x.dtype)
    dims = (shape.n,) * (2 * shape.m)
    tensor, moved = x.reshape(dims), scratch.reshape(dims)
    for (j, k), q in zip(edges, weights):
        moved[...] = tensor.transpose(_swap_axes(shape.m, j, k))
        scratch *= alpha * q
        out += scratch
    return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    """Per-step data for one gossip run.

    ``edges[t]`` is the interaction applied to move from step t to t+1
    (None for synchronous/expected steps, which touch all edges at once).
    Arrays hold one row per recorded time 0..T. ``s_expect`` is the mean of
    the ``z`` row, ``Tr[S rho_t]`` for ``S = (1/m) sum_i sigma^(i)``, and
    ``ssc_gap`` is ``||rho_t - twirl(rho_0)||_F``; :func:`evolve` checks both.
    """

    strategy: str
    alpha: float
    edges: list
    z: np.ndarray
    s_expect: np.ndarray
    ssc_gap: np.ndarray
    smc_defect: np.ndarray
    termination: str

    @property
    def steps(self) -> int:
        return len(self.edges)


def _record_rows(block: np.ndarray, shape: NetworkShape, sigma: np.ndarray,
                 star_row: np.ndarray, kets: np.ndarray, z, s_expect, gap, defect) -> None:
    """Write the record of every row of a complex ``(rows, d**2)`` block of
    states into the given rows of the record arrays: ``z``, its row means,
    the distance to the ``float64`` row ``star_row`` and the SMC defect."""
    z[...] = local_expectation_rows(block, shape, sigma)
    np.mean(z, axis=1, out=s_expect)
    f = block.view(np.float64)
    np.sqrt(sq_distance_rows(f, star_row, np.empty_like(f)), out=gap)
    defect[...] = smc_defect_rows(block, kets)


def evolve(rho0: DensityOperator, graph: InteractionGraph, config: GossipConfig,
           sigma) -> tuple[TrajectoryRecord, DensityOperator]:
    """Run a gossip trajectory, recording consensus diagnostics at every step.

    Records, for t = 0..steps: the local expectations
    ``z_l(t) = Tr[sigma^(l) rho_t]``, their mean ``Tr[S rho_t]`` (conserved),
    the SSC gap ``||rho_t - T||_F`` on the entries, with ``T = twirl(rho_0)``
    computed once (every gossip channel fixes it), and the sigma-SMC defect.
    A drift of ``Tr[S rho_t]``, a rise of the gap, or a final twirl off ``T``
    raises ConsistencyError naming the step; ``stop_gap`` ends the run at the
    first step whose gap is below it.

    States advance a block at a time in one complex ``(rows, d**2)`` buffer
    of ``RECORD_BLOCK_BYTES``, or of two rows when one state does not fit:
    row 0 holds the last recorded state and each further row is one
    :func:`gossip_update` of the row before, O(d^2) per edge touched, with
    the block's edges drawn from :func:`edge_schedule` at once. The new rows
    are then recorded at once (``rho_0`` on its own, first): the ``z`` rows
    from one gather (:func:`local_expectation_rows`), ``S_expect`` as row
    means, the gaps from one :func:`sq_distance_rows` and the SMC defects
    from one stacked product (:func:`smc_defect_rows`). Each kernel sums a
    row with :func:`linalg.row_dots`, so it measures a row as its one-row
    case measures a single matrix, bit for bit. The checks then run on the
    block in step order, so an error names the step a step-by-step loop
    would name; a stop inside a block truncates the record and returns that
    step's state.
    """
    shape = rho0.shape
    if graph.shape != shape:
        raise ValidationError("graph and state shapes differ")
    obs = as_observable(sigma, shape.n)
    if shape.m > 1 and not graph.edges:
        raise ValidationError(f"{config.strategy} strategy needs at least one edge")
    _warn_if_disconnected(graph)

    kets = sym_kets(obs, shape.m)
    star = twirl_matrix(rho0.matrix, shape)
    star_row = star.reshape(1, -1).view(np.float64)
    steps, d = config.steps, shape.total_dim
    rows = min(max(2, RECORD_BLOCK_BYTES // (16 * d * d)), steps + 1)
    schedule = edge_schedule(graph, config, block=rows - 1)

    z = np.empty((steps + 1, shape.m))
    s_expect, gap_arr, defect_arr = np.empty((3, steps + 1))
    edges_used: list = []
    buf = np.empty((rows, d * d), dtype=np.complex128)
    buf[0] = rho0.matrix.ravel()
    # buf[0] is rho_t; a block steps rows 1..k and records them (the first
    # block takes no step and records rho_0 alone)
    t, k, last = 0, 0, None
    while last is None:
        if k:
            idx = next(schedule)
            for r in range(k):
                edges, weights = ((graph.edges, graph.weights) if idx is None
                                  else ((graph.edges[idx[r]],), (1.0,)))
                _gossip_update(buf[r].reshape(d, d), shape, edges, weights, config.alpha,
                               out=buf[r + 1].reshape(d, d))
            edges_used += [None] * k if idx is None else [graph.edges[i] for i in idx[:k].tolist()]
        first = 1 if k else 0
        lo, hi = t + first, t + k + 1
        _record_rows(buf[first:k + 1], shape, obs.matrix, star_row, kets,
                     z[lo:hi], s_expect[lo:hi], gap_arr[lo:hi], defect_arr[lo:hi])
        # the checks of a step run before its stop test, in step order
        u0 = max(lo, 1)
        drift = np.abs(np.diff(s_expect[u0 - 1:hi]))
        rise = np.diff(gap_arr[u0 - 1:hi])
        failed = np.flatnonzero((drift > CONSERVATION_TOL) | (rise > CONTRACTION_TOL))
        stops = [] if config.stop_gap is None else np.flatnonzero(
            gap_arr[lo:min(hi, steps)] < config.stop_gap) + lo
        if len(failed) and (not len(stops) or u0 + failed[0] <= stops[0]):
            j = int(failed[0])
            if drift[j] > CONSERVATION_TOL:
                raise ConsistencyError(
                    f"conserved quantity drifted by {drift[j]:.3e} at step {u0 + j}")
            raise ConsistencyError(
                f"distance to the twirl increased by {rise[j]:.3e} at step {u0 + j}")
        if len(stops):
            last = int(stops[0])
            termination = f"converged_at_step_{last}"
            del edges_used[last:]
        elif hi == steps + 1:
            last, termination = steps, "steps_exhausted"
        else:
            if k:
                buf[0] = buf[k]
            t += k
            k = min(rows - 1, steps - t)
    mat = buf[last - t].reshape(d, d).copy()
    del buf  # the final check holds one state besides T
    drift = float(np.max(np.abs(twirl_matrix(mat, shape) - star)))
    if drift > CONSERVATION_TOL:
        raise ConsistencyError(
            f"twirl of the final state drifted by {drift:.3e} from twirl(rho_0)")

    t_count = last + 1
    rec = TrajectoryRecord(
        strategy=config.strategy, alpha=config.alpha, edges=edges_used,
        z=z[:t_count], s_expect=s_expect[:t_count], ssc_gap=gap_arr[:t_count],
        smc_defect=defect_arr[:t_count], termination=termination)
    return rec, DensityOperator.trusted(mat, shape)


# ---------------------------------------------------------------------------
# superoperators and certificates
# ---------------------------------------------------------------------------

def _check_superop_dim(shape: NetworkShape) -> int:
    d = shape.total_dim
    if d > MAX_SUPEROP_DIM:
        raise ResourceLimitError(
            f"superoperator work limited to total dimension {MAX_SUPEROP_DIM}, got {d}")
    return d


def _flat_gathers(bmaps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row r is the flat gather of the swap whose basis map is ``bmaps[r]``:
    ``(U x U).ravel() == x.ravel()[row]``. A transposition's basis map ``b``
    is its own inverse, so entry ``(i, j)`` of ``U x U`` is ``x[b[i], b[j]]``.
    Written into the ``(len(bmaps), d**2)`` intp array ``out`` when given."""
    rows, d = bmaps.shape
    if out is None:
        out = np.empty((rows, d * d), dtype=np.intp)
    np.add(bmaps[:, :, None] * d, bmaps[:, None, :], out=out.reshape(rows, d, d))
    return out


def synchronous_superoperator(graph: InteractionGraph, alpha: float) -> np.ndarray:
    """``(1 - alpha) I + alpha sum_e q_e P_e``, the ``(d**2, d**2)`` array acting
    on ``x.ravel()``, with ``P_e`` the entry permutation of edge e's swap."""
    if not graph.edges:
        raise ValidationError("the synchronous map needs at least one edge")
    d = _check_superop_dim(graph.shape)
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    rows = np.arange(d * d)
    acc[rows, rows] = 1.0 - alpha
    gathers = _flat_gathers(_swap_maps(graph.shape.m, graph.shape.n, graph.edges))
    for gather, q in zip(gathers, graph.weights):
        acc[rows, gather] += alpha * q
    return acc


class ClassBlock(NamedTuple):
    """One isomorphism class of orbit blocks: the real block of a representative
    orbit, whose ``rho.ravel()`` indices are ``rows`` (increasing), and the
    number of orbits, ``count``, whose blocks are permutation-similar to it."""

    block: np.ndarray
    count: int
    rows: np.ndarray


def _multinomial(counts) -> int:
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def _partitions(total: int, parts: int, top: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into at most ``parts`` parts, largest first (none above
    ``top`` when it is set)."""
    if total == 0:
        yield ()
    elif parts:
        for p in range(min(total, top or total), 0, -1):
            yield from ((p,) + rest for rest in _partitions(total - p, parts - 1, p))


@functools.lru_cache(maxsize=2)
def _class_plans(m: int, n: int, comps: tuple[tuple[int, ...], ...]) -> tuple[tuple, ...]:
    """The shape-only part of :func:`synchronous_classes`: one read-only
    ``(count, rows, positions)`` per class, where ``positions[(j, k)]`` is the
    column of each row's image under the swap of sites j and k, for every
    swap inside a component. A class's representative puts letter ``s``
    ``lam[s]`` times on each component's sites, in site order; ``rows`` are
    the entries whose :func:`orbit_labels` label is that of its transposed
    entry. Built once per ``(m, n, comps)``; the caps run before anything is
    built or labelled, so a refused shape is never cached."""
    d, q = n ** m, n ** 2
    largest = math.prod(_multinomial([len(c) // q + (k < len(c) % q) for k in range(q)])
                        for c in comps)
    if largest > MAX_TOTAL_DIM:
        raise ResourceLimitError(
            f"the largest orbit block of the synchronous map has {largest} rows "
            f"({largest * largest * 8 / 2 ** 20:.0f} MiB as float64), over the cap "
            f"{MAX_TOTAL_DIM}")
    if d * d > MAX_LISTED_EIGENVALUES:
        raise ResourceLimitError(
            f"the synchronous map has {d * d} eigenvalues to list, over the cap "
            f"{MAX_LISTED_EIGENVALUES}")
    swaps = [e for c in comps for e in itertools.combinations(c, 2)]
    bmaps = _swap_maps(m, n, swaps)
    labels = orbit_labels(m, n, comps)[0]
    where = np.empty(d * d, dtype=np.intp)  # where[rows[r]] = r, for the class at hand
    plans = []
    for profile in itertools.product(*(_partitions(len(c), q) for c in comps)):
        count = math.prod(_multinomial([q - len(lam), *Counter(lam).values()])
                          for lam in profile)
        letters = np.empty(m, dtype=np.intp)
        for comp, lam in zip(comps, profile):
            letters[[s - 1 for s in comp]] = np.repeat(np.arange(len(lam)), lam)
        entry = np.ravel_multi_index((*(letters % n), *(letters // n)), (n,) * (2 * m))
        rows = np.flatnonzero(labels == labels[entry])
        where[rows] = np.arange(len(rows))
        # a swap keeps the class's orbit, so every image is one of its rows
        cols = where[bmaps[:, rows % d] + d * bmaps[:, rows // d]]
        for a in (rows, cols):
            a.setflags(write=False)
        plans.append((count, rows, MappingProxyType(dict(zip(swaps, cols)))))
    return tuple(plans)


def synchronous_classes(graph: InteractionGraph, alpha: float) -> Iterator[ClassBlock]:
    """The orbit blocks of :func:`synchronous_superoperator`, one per isomorphism class.

    Relabelling the ``n**2`` pair letters on one component's sites commutes
    with every edge swap, so orbits whose joint types have the same sorted
    letter counts on each component have permutation-similar blocks. A class
    is one partition of each component's size into at most ``n**2`` parts. Its
    representative orbit takes letters ``0, 1, ...`` with those counts, its
    rows are that orbit's entries under :func:`orbit_labels`, and its
    ``count`` is the number of ways to give the parts distinct letters.
    Letter ``i_k n + j_k`` stands for entry ``(i, j)``, but ``rows`` holds
    ``i + d j``: the ``rho.ravel()`` indices of the transposed representative,
    an orbit of the same class.
    The block is ``float64``, bitwise the real part of the dense block, and
    exactly symmetric, since each ``P_e`` is an involution. Before anything is
    built, the largest block (the most even split of each component) is sized
    from multinomials and may have at most ``MAX_TOTAL_DIM`` rows, and the
    map's ``d**2`` eigenvalues, which ``qgossip spectrum`` lists, at most
    ``MAX_LISTED_EIGENVALUES``.

    The counts, the (read-only) rows and each swap's block columns depend on
    the shape and the components alone and are built once for the last two
    of them (:func:`_class_plans`); a call only fills the blocks from the
    edge weights and ``alpha``.
    """
    if not graph.edges:
        raise ValidationError("the synchronous map needs at least one edge")
    for count, rows, positions in _class_plans(graph.shape.m, graph.shape.n,
                                               graph.components()):
        diag = np.arange(len(rows))
        block = np.zeros((len(rows), len(rows)))
        block[diag, diag] = 1.0 - alpha
        for e, w in zip(graph.edges, graph.weights):
            block[diag, positions[e]] += alpha * w
        yield ClassBlock(block, count, rows)


@dataclass(frozen=True)
class SpectralCertificate:
    """Eigenvalue-location certificate for gossip-form superoperators.

    Maps of the form ``q0 X + sum_e q_e U_e X U_e`` with ``q0 > 0`` have all
    eigenvalues inside the disk centred at ``q0`` with radius ``1 - q0``,
    tangent to the unit circle only at 1. ``disk_ok`` is the disk check.
    ``spectral_gap`` is the modulus gap, one minus the largest non-unit
    eigenvalue modulus: for ``q0 < 1/2`` it can be set by the negative end of
    the spectrum. ``second_largest_eigenvalue`` is the largest real part of a
    non-unit eigenvalue (None when every eigenvalue is a unit one); for the
    synchronous map on a connected graph it is ``1 - alpha lambda_2(L_q)``.
    ``block_count`` is the number of diagonal blocks certified, counting each
    orbit of a :class:`ClassBlock`.

    The spectrum is held as (value, multiplicity) pairs: each bit pattern
    once in ``distinct_eigenvalues``, in the order ``np.sort_complex`` gives
    (real part, then imaginary part; of two that tie, ``+0.0`` before
    ``-0.0``), and how often it occurs in ``multiplicities``. The checks and
    the unit count (a sum of multiplicities) read the distinct values only.
    ``eigenvalues`` is the expanded, sorted array of all of them.
    """

    distinct_eigenvalues: np.ndarray
    multiplicities: np.ndarray
    q0: float
    disk_ok: bool
    max_disk_violation: float
    unit_eigenvalue_count: int
    spectral_gap: float
    second_largest_eigenvalue: float | None
    max_imag: float
    block_count: int

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue, sorted, each as often as it occurs."""
        return np.repeat(self.distinct_eigenvalues, self.multiplicities)


def _group_spectrum(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` with equal bit patterns merged and their ``counts`` summed,
    sorted by real part, then imaginary part, then bit pattern (``+0.0``
    before ``-0.0``, the only equal values with other bits)."""
    bits = np.stack((values.real.view(np.uint64), values.imag.view(np.uint64)))
    order = np.lexsort((bits[1], bits[0], values.imag, values.real))
    bits = bits[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    return values[order[starts]], np.add.reduceat(counts[order], starts)


def spectral_certificate(blocks: Iterable[np.ndarray | ClassBlock],
                         q0: float) -> SpectralCertificate:
    """Locate every eigenvalue of a map given by its diagonal ``blocks``.

    A :class:`ClassBlock` (from :func:`synchronous_classes`) is real
    symmetric: it is solved once with ``eigvalsh``, and each of its
    eigenvalues occurs ``count`` times, once per orbit it stands for. Any
    other item is a square matrix solved with ``eigvals``, each eigenvalue
    once: an orbit block sliced out of :func:`synchronous_superoperator`, or
    ``[sop]`` for a dense map such as a cyclic sweep, which is not symmetric.
    The spectrum is never expanded: equal values merge into one
    (value, multiplicity) pair (:class:`SpectralCertificate`).
    """
    if not 0.0 < q0 <= 1.0:
        raise ValidationError(
            f"the certificate requires an identity weight q0 in (0, 1], got {q0}")
    spectra, counts = [], []
    for item in blocks:
        if isinstance(item, ClassBlock):
            spectra.append(np.linalg.eigvalsh(item.block))
            counts.append(item.count)
        else:
            spectra.append(np.linalg.eigvals(item))
            counts.append(1)
    if not spectra:
        raise ValidationError("the certificate needs at least one block")
    values, mult = _group_spectrum(np.concatenate(spectra),
                                   np.repeat(counts, [len(s) for s in spectra]))
    max_imag = float(np.max(np.abs(values.imag)))
    violation = float(np.max(np.abs(values - q0) - (1.0 - q0)))
    disk_ok = violation <= DISK_TOL
    unit_mask = np.abs(values - 1.0) <= DISK_TOL
    rest = values[~unit_mask]
    gap = float(1.0 - np.max(np.abs(rest))) if rest.size else 1.0
    return SpectralCertificate(
        distinct_eigenvalues=values, multiplicities=mult, q0=q0, disk_ok=disk_ok,
        max_disk_violation=max(violation, 0.0),
        unit_eigenvalue_count=int(mult[unit_mask].sum()), spectral_gap=gap,
        second_largest_eigenvalue=float(np.max(rest.real)) if rest.size else None,
        max_imag=max_imag, block_count=sum(counts))


# ---------------------------------------------------------------------------
# fixed-point space
# ---------------------------------------------------------------------------

def commutant_dimension(graph: InteractionGraph) -> int:
    """Dimension of {X : [X, U_e] = 0 for every edge}, by brute force.

    Solves the stacked linear system ``(I (x) U - U (x) I) x.ravel() = 0``,
    i.e. ``X U - U X = 0`` (each swap ``U`` is symmetric), through the nullity
    of the positive semidefinite normal matrix. This is the independent oracle
    for :func:`fixed_point_space`.
    """
    d = _check_superop_dim(graph.shape)
    if not graph.edges:
        return d * d
    eye = np.eye(d, dtype=np.complex128)
    normal = np.zeros((d * d, d * d), dtype=np.complex128)
    for b in _swap_maps(graph.shape.m, graph.shape.n, graph.edges):
        u = eye[b]
        c = np.kron(eye, u) - np.kron(u, eye)
        normal += c.conj().T @ c
    evals = np.linalg.eigvalsh((normal + normal.conj().T) / 2.0)
    return int(np.sum(evals < 1e-9))


def fixed_point_space(graph: InteractionGraph):
    """Fixed points of the expected gossip map: ``(dimension, Hermitian basis)``.

    They commute with every permutation within each connected component, so
    the entry-orbit indicators ``E_o`` (:func:`orbit_labels`) span them
    (Schur-Weyl duality). The orthonormal basis is ``E_o`` for an orbit that is
    its own transpose, else ``E_o + E_o^dagger`` and ``i (E_o - E_o^dagger)``,
    normalized; the dimension is the orbit count.
    """
    d = _check_superop_dim(graph.shape)
    labels, sizes = orbit_labels(graph.shape.m, graph.shape.n, graph.components())
    grid = labels.reshape(d, d)
    adjoint = np.empty_like(sizes)
    adjoint[grid] = grid.T  # the orbit of E_o^dagger
    basis = []
    for o, a in enumerate(adjoint):
        e = (grid == o).astype(np.complex128)
        if a == o:
            basis.append(e / np.sqrt(sizes[o]))
        elif o < a:
            scale = np.sqrt(2.0 * sizes[o])
            basis += [(e + e.T) / scale, 1j * (e - e.T) / scale]
    return len(basis), basis


# ---------------------------------------------------------------------------
# conserved site averages and their duals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SAverageReport:
    """Outcome of the site-average decomposition and consensus check."""

    decomposable: bool
    residual: float
    sigma: np.ndarray | None
    conservation_drift: float
    limit_deviation: float
    limit_mismatch: float


def s_average_check(s_operator, graph: InteractionGraph, alpha: float,
                    rho0_samples: Sequence[DensityOperator],
                    steps: int = 400) -> SAverageReport:
    """Test whether a conserved S supports S-average consensus.

    ``S`` must be Hermitian and permutation invariant. The check projects S
    onto the span of single-site lifts: decomposable means
    ``S = (1/m) sum_i sigma^(i)`` for some local sigma (residual below
    ``DECOMPOSITION_TOL``; the recovered sigma is returned). The projection's
    sigma is ``m r - (m-1) (Tr r / n) I`` for S's mean one-site marginal
    ``r = (1/m) sum_i Tr_{!=i}(S) / n**(m-1)`` (:func:`local_reduced_states`). For
    decomposable S each sample state is driven by the synchronous map and
    the limiting local expectations must all equal ``Tr[S rho_0]`` (reported as
    ``limit_deviation``, measured both on the evolved state and on the exact
    twirl limit). For non-decomposable S the trajectory still conserves
    ``Tr[S rho_t]`` (``conservation_drift``), but no local observable reaches
    it: ``limit_mismatch`` reports the gap between ``Tr[S rho_0]`` and the
    consensus values produced by the best local approximation of S.
    ``alpha`` must lie in (0, 1) and ``steps`` be a nonnegative integer.
    """
    check_alpha(alpha)
    _check_steps(steps)
    shape = graph.shape
    s_mat = require_hermitian(s_operator, what="site-average candidate")
    if s_mat.shape[0] != shape.total_dim:
        raise ValidationError("S does not match the network dimension")
    if not is_permutation_invariant(s_mat, shape, tol=1e-9):
        raise ValidationError("S must be permutation invariant")
    if not graph.is_connected():
        raise ValidationError("the consensus check needs a connected graph")

    m, n = shape.m, shape.n
    r = local_reduced_states(s_mat, shape).mean(axis=0) / n ** (m - 1)
    probe = m * r - (m - 1) * (np.trace(r) / n) * np.eye(n)
    probe = (probe + probe.conj().T) / 2.0
    residual = frobenius_distance(s_mat, site_average(probe, shape))
    decomposable = residual <= DECOMPOSITION_TOL
    sigma = probe if decomposable else None

    drift = limit_dev = limit_mismatch = 0.0
    for rho0 in rho0_samples:
        if rho0.shape != shape:
            raise ValidationError("sample state does not match the network shape")
        target = float(np.einsum("ij,ji->", s_mat, rho0.matrix).real)
        mat = rho0.matrix.copy()
        for _ in range(steps):
            mat = _gossip_update(mat, shape, graph.edges, graph.weights, alpha)
            drift = max(drift, abs(
                float(np.einsum("ij,ji->", s_mat, mat).real) - target))
        star = twirl_matrix(rho0.matrix, shape)
        z_final = local_expectations(mat, shape, probe)
        z_star = local_expectations(star, shape, probe)
        if decomposable:
            limit_dev = max(limit_dev,
                            float(np.max(np.abs(z_final - target))),
                            float(np.max(np.abs(z_star - target))))
        else:
            limit_mismatch = max(limit_mismatch,
                                 float(np.max(np.abs(z_star - target))))
    return SAverageReport(decomposable=decomposable, residual=residual,
                          sigma=sigma, conservation_drift=drift,
                          limit_deviation=limit_dev,
                          limit_mismatch=limit_mismatch)


@dataclass(frozen=True)
class DualFixedPointReport:
    """Heisenberg-picture checks for gossip maps."""

    s_invariant: bool
    max_invariance_defect: float
    iteration_deviation: float
    ok: bool


def dual_fixed_point_check(graph: InteractionGraph, alpha: float, s_operator,
                           sigma=None, steps: int = 300) -> DualFixedPointReport:
    """Verify S is a dual fixed point and local lifts converge to the average.

    Each per-edge map is its own dual (a swap is real symmetric) and leaves a
    permutation-invariant S exactly invariant (defect below 1e-12). Given
    ``sigma``, the iterated cyclic dual of ``sigma^(1)`` must approach its
    twirl ``(1/m) sum_i sigma^(i)`` within 1e-8 after ``steps`` sweep steps.
    """
    shape = graph.shape
    s_mat = require_hermitian(s_operator, what="dual fixed-point candidate")
    if s_mat.shape[0] != shape.total_dim:
        raise ValidationError("S does not match the network dimension")
    check_alpha(alpha)
    _check_steps(steps)
    if shape.m > 1 and not graph.edges:
        raise ValidationError("the dual fixed-point check needs at least one edge")
    sweep = [[e] for e in graph.edges] or [[]]  # one site: no edge
    defect = max(float(np.abs(_gossip_update(s_mat, shape, step, [1.0], alpha) - s_mat).max())
                 for step in sweep)
    s_ok = defect <= 1e-12

    iter_dev = 0.0
    if sigma is not None:
        x = lift_local(as_observable(sigma, shape.n).matrix, 1, shape)
        target = twirl_matrix(x, shape)
        for t in range(steps):
            x = _gossip_update(x, shape, sweep[t % len(sweep)], [1.0], alpha)
        iter_dev = float(np.max(np.abs(x - target)))
    return DualFixedPointReport(s_invariant=s_ok, max_invariance_defect=defect,
                                iteration_deviation=iter_dev, ok=s_ok and iter_dev <= 1e-8)


# ---------------------------------------------------------------------------
# probability-one convergence experiment
# ---------------------------------------------------------------------------

def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-contiguous array whose first byte lies on a 64-byte
    boundary. numpy has no aligned ``empty``: this slices a ``uint8`` buffer
    64 bytes too long at its first aligned byte and views it as ``dtype``.
    On a row of a multiple of 64 bytes no vector load of the ensemble's
    whole-chunk passes then straddles two cache lines, wherever the
    allocator put the buffer."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


@dataclass(frozen=True)
class ConvergenceExperiment:
    """Ensemble statistics for random-gossip convergence to the twirl."""

    num_trials: int
    horizon: int
    eps: float
    successes: int
    empirical_probability: float
    max_final_sq_distance: float
    max_distance_increase: float


def probability_one_convergence_experiment(
        graph: InteractionGraph, alpha: float, rho0: DensityOperator,
        eps: float, num_trials: int, horizon: int, seed: int) -> ConvergenceExperiment:
    """Sample random-edge trajectories and test convergence to the twirl.

    Success for one trial means the squared Frobenius distance
    ``Tr[(rho_T - rho*)^2]`` at the horizon is at most ``eps``, with
    ``rho* = twirl(rho_0)``. The distance must never increase; a rise beyond
    ``CONTRACTION_TOL`` raises ConsistencyError (hard failure, since every
    gossip channel fixes rho* and contracts Frobenius distances);
    ``max_distance_increase`` is the largest rise observed (0.0 if none).
    Per-trial randomness comes from the documented sub-seed splitting rule,
    so results are reproducible and trials independent.

    Trials run a chunk at a time, each chunk as one ``(trials, d**2)`` array
    that takes one array step per time step. Trial ``k``'s edges are the
    blocks :func:`edge_schedule` yields for ``trial_rng(seed, k)``, a block of
    steps at a time. A step gathers every trial's entries through its edge's
    swap (a transposition is its own inverse, so the gather is
    ``U x U^dagger``), mixes in place, and writes all squared distances, in
    one :func:`sq_distance_rows` against the twirl tiled to the chunk's rows
    (a difference, then one :func:`linalg.row_dots` per trial row, so a
    trial's distance does not depend on the chunk), into the step's row of
    the block's distances. After each block one difference along the steps
    gives the largest rise and the first one above ``CONTRACTION_TOL``, in
    step order and then trial order. Chunks run in trial order; a chunk stops
    at its first rise, later chunks stop at that rise's step, and the error
    names the earliest rise of the run, at its lowest trial, whatever the
    chunk size. The gather index comes from :func:`_flat_gathers`, with
    trial r's row offset ``r d**2`` added so the gather reads its own row of
    the states. When a table of every edge's flat gather fits in a quarter of
    ``ENSEMBLE_CHUNK_BYTES``, each step copies its rows of the table and adds
    a ``(trials, d**2)`` array of the offsets, a same-shape add; otherwise it
    builds the index from the step's rows of the edges' :func:`_swap_maps`
    and adds the offsets as a ``(trials, 1)`` column.
    Half the budget holds the table and the chunk's states, gathers, gather
    indices, twirl rows and, with a table, offsets: 64 bytes per trial and
    entry of ``rho`` with a table, 56 without; the other half holds the edge
    draws and distances, 16 bytes per trial and step. The states, gathers,
    gather index, twirl rows and offsets array start on 64-byte boundaries
    (:func:`_aligned_empty`); the arithmetic is the same wherever they lie,
    only its time is not. When one trial's state does not fit, a chunk is a
    single trial, whose state, gather, gather index and twirl take 3.5
    complex ``d x d`` matrices besides ``rho_0``.

    A disconnected graph gets the ``UserWarning`` that :func:`evolve` gives: no
    trial can reach ``twirl(rho_0)`` there.
    """
    shape = rho0.shape
    if graph.shape != shape:
        raise ValidationError("graph and state shapes differ")
    if not graph.edges:
        raise ValidationError("the experiment needs at least one edge")
    if not (_is_int(num_trials) and _is_int(horizon)) or num_trials < 1 or horizon < 1:
        raise ValidationError(f"num_trials and horizon must be positive integers, "
                              f"got {num_trials!r} and {horizon!r}")
    if not (_is_real(eps) and 0.0 <= eps < math.inf):
        raise ValidationError(f"eps must be a finite nonnegative number, got {eps!r}")
    config = GossipConfig(alpha=alpha, strategy="random", steps=horizon, seed=seed)
    _warn_if_disconnected(graph)
    dd = shape.total_dim ** 2
    bmaps = _swap_maps(shape.m, shape.n, graph.edges)
    table = _flat_gathers(bmaps) if 8 * len(bmaps) * dd <= ENSEMBLE_CHUNK_BYTES // 4 else None
    trial_bytes = ENSEMBLE_CHUNK_BYTES // 2 - (0 if table is None else table.nbytes)
    chunk = min(num_trials, max(1, trial_bytes // ((56 if table is None else 64) * dd)))
    block = min(horizon, max(1, ENSEMBLE_CHUNK_BYTES // (2 * 16 * chunk)))
    star = _aligned_empty((chunk, 2 * dd), np.float64)
    star[:] = twirl_matrix(rho0.matrix, shape).reshape(1, dd).view(np.float64)
    x = _aligned_empty((chunk, dd), np.complex128)
    g = _aligned_empty((chunk, dd), np.complex128)
    index = _aligned_empty((chunk, dd), np.intp)
    # trial r reads its entries from row r of x; with a table the offsets are
    # a (chunk, d**2) array, so adding them to the copied index is no broadcast
    offsets = np.arange(chunk)[:, None] * dd
    if table is not None:
        offsets, rows_at = _aligned_empty((chunk, dd), np.intp), offsets
        offsets[:] = rows_at
    edges = np.empty((block, chunk), dtype=np.intp)
    dist = np.empty((block + 1, chunk))  # row 0: the distances before the block's steps
    flat = x.reshape(-1)

    successes, worst_final, worst_rise = 0, 0.0, 0.0
    first_rise = None  # (step, trial, rise): the earliest, at the lowest trial
    for lo in range(0, num_trials, chunk):
        k = min(chunk, num_trials - lo)
        # once a rise is found, a later chunk can only name one at an earlier step
        end = horizon if first_rise is None else first_rise[0]
        schedules = [edge_schedule(graph, config, trial_rng(seed, trial), block)
                     for trial in range(lo, lo + k)]
        xs, gs, index_k, offsets_k, star_k = x[:k], g[:k], index[:k], offsets[:k], star[:k]
        xs_f, gs_f = xs.view(np.float64), gs.view(np.float64)
        xs[:] = rho0.matrix.reshape(1, dd)
        sq_distance_rows(xs_f, star_k, gs_f, dist[0, :k])
        for t0 in range(0, end, block):
            steps = min(block, end - t0)
            for j, trial_edges in enumerate(schedules):
                edges[:steps, j] = next(trial_edges)[:steps]
            for step_edges, step_dist in zip(edges[:steps, :k], dist[1:, :k]):
                # entry (i, j) of trial r is read from (b[i], b[j]) of the same trial
                if table is None:
                    _flat_gathers(bmaps[step_edges], out=index_k)
                else:
                    table.take(step_edges, axis=0, out=index_k, mode="clip")
                index_k += offsets_k
                flat.take(index_k, out=gs, mode="clip")
                xs *= 1.0 - alpha
                gs *= alpha
                xs += gs
                sq_distance_rows(xs_f, star_k, gs_f, step_dist)
            rise = np.diff(dist[:steps + 1, :k], axis=0)
            up = np.flatnonzero(rise > CONTRACTION_TOL)
            if len(up):
                t, j = divmod(int(up[0]), k)
                first_rise = (t0 + t, lo + j, rise[t, j])
                break
            worst_rise = max(worst_rise, float(rise.max()))
            dist[0] = dist[steps]
        worst_final = max(worst_final, float(dist[0, :k].max()))
        successes += int(np.count_nonzero(dist[0, :k] <= eps))
    if first_rise is not None:
        _, trial, value = first_rise
        raise ConsistencyError(f"squared distance to the twirl increased by {value:.3e} "
                               f"in trial {trial}")
    return ConvergenceExperiment(
        num_trials=num_trials, horizon=horizon, eps=eps, successes=successes,
        empirical_probability=successes / num_trials,
        max_final_sq_distance=worst_final, max_distance_increase=worst_rise)
