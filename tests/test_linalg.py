"""Tests for the dense multipartite linear algebra layer."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgossip as qg
from qgossip.linalg import (as_operator, check_sites, hermiticity_defect, frobenius_norm,
                            require_hermitian, row_dots, sq_distance_rows)
from qgossip.rng import complex_ginibre, make_rng

SZ = np.diag([1.0 + 0j, -1.0])
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# shapes and coercion
# ---------------------------------------------------------------------------

def test_network_shape_basics():
    shape = qg.NetworkShape(3, 2)
    assert shape.total_dim == 8
    assert list(shape.sites()) == [1, 2, 3]
    assert qg.NetworkShape(4, 3).total_dim == 81


def test_network_shape_rejects_bad_arguments():
    with pytest.raises(qg.ValidationError):
        qg.NetworkShape(0, 2)
    with pytest.raises(qg.ValidationError):
        qg.NetworkShape(2, 1)
    # bools, floats and strings are refused, never read as 1, 2, ...
    for m, n in ((True, 2), (2, True), (2.0, 2), (2, 2.0), ("2", 2), (2, "2")):
        with pytest.raises(qg.ValidationError):
            qg.NetworkShape(m, n)
    # numpy integers count, and are stored as plain ints
    shape = qg.NetworkShape(np.int64(3), np.uint8(2))
    assert shape == qg.NetworkShape(3, 2)
    assert type(shape.m) is int and type(shape.n) is int


def test_network_shape_enforces_dimension_cap():
    qg.NetworkShape(12, 2)  # 4096 is the largest admissible qubit network
    with pytest.raises(qg.ResourceLimitError):
        qg.NetworkShape(13, 2)


def test_network_shape_refuses_a_huge_m_at_once():
    # 2**m is over the cap from m = 13 on, so n**m is never built
    for m, n in ((10**9, 2), (10**9, 3), (13, 2)):
        start = time.perf_counter()
        with pytest.raises(qg.ResourceLimitError):
            qg.NetworkShape(m, n)
        assert time.perf_counter() - start < 0.5


def test_as_operator_rejects_nonsquare():
    with pytest.raises(qg.DimensionError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(qg.DimensionError):
        as_operator(np.zeros(4))


_SHAPE = qg.NetworkShape(2, 2)


# values numpy cannot convert, and edges or weights that are no sequence, are
# bad input: ValidationError, not numpy's ValueError or Python's TypeError
@pytest.mark.parametrize("call", [
    lambda: qg.DensityOperator("abc", _SHAPE),
    lambda: qg.Observable([["a"]]),
    lambda: qg.twirl_matrix("x", _SHAPE),
    lambda: qg.lift_local("x", 1, _SHAPE),
    lambda: qg.frobenius_distance("a", "b"),
    lambda: qg.run_classical(["a", "b"], qg.InteractionGraph(_SHAPE, [(1, 2)]), 0.5, []),
    lambda: qg.classical_gossip_step([[1], [2, 3]], (1, 2), 0.5),
    lambda: qg.InteractionGraph(_SHAPE, None),
    lambda: qg.InteractionGraph(_SHAPE, 5),
    lambda: qg.InteractionGraph(_SHAPE, [(1, 2)], 5),
], ids=["density_operator", "observable", "twirl_matrix", "lift_local", "frobenius_distance",
        "run_classical", "classical_gossip_step", "graph_edges_none", "graph_edges_int",
        "graph_weights_int"])
def test_conversion_failures_raise_validation_error(call):
    with pytest.raises(qg.ValidationError):
        call()


def test_hermiticity_defect_and_gate():
    assert hermiticity_defect(SZ) == 0.0
    skew = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    assert hermiticity_defect(skew) == 1.0
    with pytest.raises(qg.ValidationError):
        require_hermitian(skew)


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_matches_hand_example():
    expected = np.diag([1.0, 1.0, -1.0, -1.0])
    np.testing.assert_allclose(qg.kron(SZ, np.eye(2)), expected, atol=0)


def test_kron_all_site_order():
    # site 1 is the leftmost factor
    got = qg.kron_all([SZ, np.eye(2), SX])
    expected = np.kron(np.kron(SZ, np.eye(2)), SX)
    np.testing.assert_allclose(got, expected, atol=0)
    np.testing.assert_allclose(qg.kron_all([]), [[1.0]], atol=0)


def test_kron_associativity_random():
    rng = make_rng(7)
    for _ in range(20):
        a = complex_ginibre(rng, 2)
        b = complex_ginibre(rng, 3)
        c = complex_ginibre(rng, 2)
        left = qg.kron(qg.kron(a, b), c)
        right = qg.kron(a, qg.kron(b, c))
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_kron_enforces_cap():
    with pytest.raises(qg.ResourceLimitError):
        qg.kron(np.eye(128), np.eye(64))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_of_product_state():
    rng = make_rng(11)
    shape = qg.NetworkShape(2, 3)
    a = complex_ginibre(rng, 3)
    a = a @ a.conj().T
    b = complex_ginibre(rng, 3)
    b = b @ b.conj().T
    joint = qg.kron(a, b)
    np.testing.assert_allclose(qg.partial_trace(joint, shape, [1]),
                               a * np.trace(b), atol=1e-12)
    np.testing.assert_allclose(qg.partial_trace(joint, shape, [2]),
                               b * np.trace(a), atol=1e-12)


def test_partial_trace_keep_all_is_identity():
    rng = make_rng(12)
    shape = qg.NetworkShape(3, 2)
    x = complex_ginibre(rng, shape.total_dim)
    np.testing.assert_allclose(qg.partial_trace(x, shape, [1, 2, 3]), x, atol=0)


def test_partial_trace_preserves_trace():
    rng = make_rng(13)
    shape = qg.NetworkShape(3, 2)
    for _ in range(10):
        x = complex_ginibre(rng, shape.total_dim)
        for keep in ([1], [2], [3], [1, 3], [2, 3]):
            np.testing.assert_allclose(np.trace(qg.partial_trace(x, shape, keep)),
                                       np.trace(x), atol=1e-11)


def test_partial_trace_composition():
    rng = make_rng(14)
    shape = qg.NetworkShape(3, 2)
    x = complex_ginibre(rng, 8)
    two = qg.partial_trace(x, shape, [1, 2])
    one_direct = qg.partial_trace(x, shape, [1])
    one_via_two = qg.partial_trace(two, qg.NetworkShape(2, 2), [1])
    np.testing.assert_allclose(one_direct, one_via_two, atol=1e-12)


def test_partial_trace_duality_with_lift():
    # Tr[Tr_rest(X) Y] == Tr[X (Y lifted to the kept site)]
    rng = make_rng(15)
    shape = qg.NetworkShape(3, 2)
    for _ in range(25):
        x = complex_ginibre(rng, 8)
        y = complex_ginibre(rng, 2)
        site = int(rng.integers(1, 4))
        lhs = np.trace(qg.partial_trace(x, shape, [site]) @ y)
        rhs = np.trace(x @ qg.lift_local(y, site, shape))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_partial_trace_rejects_bad_keep():
    shape = qg.NetworkShape(2, 2)
    x = np.eye(4)
    with pytest.raises(qg.ValidationError):
        qg.partial_trace(x, shape, [])
    with pytest.raises(qg.ValidationError):
        qg.partial_trace(x, shape, [0])
    with pytest.raises(qg.ValidationError):
        qg.partial_trace(x, shape, [3])
    with pytest.raises(qg.DimensionError):
        qg.partial_trace(np.eye(8), shape, [1])


def test_site_labels_are_integers_in_range_never_truncated():
    assert check_sites([1, np.int64(3), 2], 3, "bad") == (1, 3, 2)
    assert [type(s) for s in check_sites(np.array([2, 1]), 3, "bad")] == [int, int]
    assert check_sites(iter([]), 3, "bad") == ()
    for bad in ([0], [4], [1.7], [2.0], [np.float64(1.0)], [True], [np.True_], ["1"], [None],
                [1, 1.5]):
        with pytest.raises(qg.ValidationError, match="^bad labels$"):
            check_sites(bad, 3, "bad labels")


@pytest.mark.parametrize("keep", [[1.7], [True], [1, 2.0], ["1"]])
def test_partial_trace_refuses_non_integer_sites(keep):
    # 1.7 and True used to be truncated to site 1
    shape = qg.NetworkShape(2, 2)
    with pytest.raises(qg.ValidationError, match="keep labels must be integers in 1..2"):
        qg.partial_trace(qg.random_density(shape, 3).matrix, shape, keep)


# ---------------------------------------------------------------------------
# eigh
# ---------------------------------------------------------------------------

def test_eigh_known_spectra():
    w, v = qg.eigh(SZ)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=0)
    w, v = qg.eigh(SX)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, SX, atol=1e-15)


def test_eigh_reconstruction_random():
    rng = make_rng(21)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        g = complex_ginibre(rng, d)
        h = (g + g.conj().T) / 2
        w, v = qg.eigh(h)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(qg.ValidationError):
        qg.eigh(np.array([[0, 1], [0, 0]], dtype=np.complex128))


# ---------------------------------------------------------------------------
# norms and vectorization
# ---------------------------------------------------------------------------

def test_frobenius_distance_hand_value():
    assert qg.frobenius_distance(SZ, np.eye(2)) == 2.0
    assert qg.frobenius_distance(SZ, SZ) == 0.0
    with pytest.raises(qg.DimensionError):
        qg.frobenius_distance(np.eye(2), np.eye(3))


def test_frobenius_norm_value():
    assert frobenius_norm(np.ones((2, 2))) == 2.0


# ---------------------------------------------------------------------------
# row_dots, the one per-row reduction
# ---------------------------------------------------------------------------

# float64 widths of complex d x d rows on both sides of the 8192-float slab:
# n = 2 at m = 6 (one slab) and m = 7 (four), n = 3 at m = 4 (13 122 floats,
# one and a part), and a slab and one float; plus a few small ones
ROW_WIDTHS = [1, 7, 32, 2 * 4**6, 2 * 4**7, 2 * 9**4, 8193]


def _rows(seed, rows, width, layout):
    """``(a, b)``: ``rows`` random rows of ``width`` floats over six decades,
    as a C-contiguous block, as row views offset by one float, or with ``b``
    one row broadcast across a's rows."""
    rng = np.random.default_rng(seed)
    size = (2, rows, width + 1)
    buf = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
    if layout == "offset":
        return buf[0, :, 1:], buf[1, :, 1:]
    a, b = np.ascontiguousarray(buf[:, :, :width])
    return (a, b) if layout == "block" else (a, b[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4),
       width=st.sampled_from(ROW_WIDTHS), layout=st.sampled_from(["block", "offset", "broadcast"]))
def test_row_dots_rows_are_their_one_row_calls(seed, rows, width, layout):
    a, b = _rows(seed, rows, width, layout)
    one_b = (lambda r: b) if layout == "broadcast" else (lambda r: b[r:r + 1])
    dots = row_dots(a, b)
    scratch = np.empty_like(a)
    sq = sq_distance_rows(a, b, scratch)
    out = np.empty(rows)
    assert row_dots(a, b, out) is out
    assert sq.shape == dots.shape == (rows,)
    for r in range(rows):
        assert dots[r:r + 1].view(np.uint64) == row_dots(a[r:r + 1], one_b(r)).view(np.uint64)
        assert out[r:r + 1].view(np.uint64) == dots[r:r + 1].view(np.uint64)
        one_sq = sq_distance_rows(a[r:r + 1], one_b(r), scratch[:1])
        assert sq[r:r + 1].view(np.uint64) == one_sq.view(np.uint64)
        terms = a[r] * (b if layout == "broadcast" else b[r])
        assert abs(dots[r] - math.fsum(terms)) <= 1e-14 * math.fsum(np.abs(terms))


def test_row_dots_takes_leading_axes():
    a, b = _rows(3, 6, 2 * 9**4, "block")
    stacked = row_dots(a.reshape(2, 3, -1), b[0])
    assert stacked.shape == (2, 3)
    assert stacked.reshape(-1).view(np.uint64).tolist() == \
        row_dots(a, b[0]).view(np.uint64).tolist()


def test_row_dots_allocates_only_the_slab_sums():
    a = np.ones((2, 16 * 8192 + 5))
    row_dots(a, a[0])  # warm numpy's caches outside the measurement
    tracemalloc.start()
    try:
        row_dots(a, a[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 17 * 8 + 4096  # the (rows, slabs) sums; a product would be 2 MB


def test_row_dots_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS threads a dot of more than 10 000 floats; a slabbed row never is
    code = ("import numpy as np; from qgossip.linalg import row_dots; "
            "a = np.random.default_rng(5).standard_normal((2, 131072)); "
            "print(row_dots(a, a[::-1]).tobytes().hex())")
    here = np.random.default_rng(5).standard_normal((2, 131072))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(qg.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == row_dots(here, here[::-1]).tobytes().hex()
