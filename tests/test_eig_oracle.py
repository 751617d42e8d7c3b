"""Eigenvalue ordering against the stacked-argsort oracle.

The package orders the three analytic roots with a network of strict
compare-swaps on magnitude; the oracle stacks them and gathers through
a stable argsort.  Bit-equal results (compared as uint64, so -0.0 and
0.0 differ) pin ties, signed zeros and the degenerate q*I fallback.  The
fallback runs only for a field that holds a degenerate matrix, so fields
with none, with only such matrices and with both are drawn apart, along
with the float32 extremes.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import eig3_symmetric_field_oracle
from tubekit.vesselness import _invariants, eig3_symmetric_field


def _field(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "integers":  # exact ties, signed zeros, q*I matrices
        c = rng.integers(-2, 3, (n, 6)) * rng.choice([-1.0, 1.0], (n, 6))
        diag = rng.random(n) < 0.3
        c[diag, 1] = c[diag, 2] = c[diag, 4] = 0.0
        c[diag, 3] = c[diag, 5] = c[diag, 0]
        return c
    if kind == "normal":
        scale = rng.choice([1e-3, 1.0, 1e3], (n, 1))
        return (rng.standard_normal((n, 6)) * scale).astype(np.float32)
    # Diagonals whose entries share one magnitude with mixed signs.
    c = np.zeros((n, 6), dtype=np.float32)
    mag = rng.integers(0, 3, (n, 1)) * rng.standard_normal((n, 1))
    c[:, [0, 3, 5]] = mag * rng.choice([-1.0, 1.0], (n, 3))
    return c


@given(st.sampled_from(["integers", "normal", "opposite"]),
       st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
def test_eigen_order_matches_argsort_oracle(kind, n, seed):
    comps = _field(kind, n, seed)
    got = eig3_symmetric_field(comps)
    want = eig3_symmetric_field_oracle(comps)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


_F32_EXTREMES = np.array([3.4028235e38, -3.4028235e38, 1e-45, -1e-45, 0.0, -0.0, 1.0, -2.0],
                         dtype=np.float32)  # 1e-45 rounds to the smallest subnormal


def _path_field(kind, n, seed):
    rng = np.random.default_rng(seed)
    generic = rng.standard_normal((n, 6)) * rng.choice([1e-3, 1.0, 1e30], (n, 1))
    scalar = np.zeros((n, 6))  # q*I, q drawn with the float32 edges
    scalar[:, [0, 3, 5]] = rng.choice(_F32_EXTREMES, (n, 1))
    if kind == "generic":
        return generic.astype(np.float32)
    if kind == "scalar":
        return scalar.astype(np.float32)
    if kind == "mixed":  # n // 2 >= 1 of each
        return np.where((rng.permutation(n) < n // 2)[:, None], generic, scalar).astype(np.float32)
    return rng.choice(_F32_EXTREMES, (n, 6))  # every component an extreme


def _degenerate(comps):
    return _invariants(np.moveaxis(comps.reshape(-1, 6), -1, 0))[2]


@given(st.sampled_from(["generic", "scalar", "mixed", "extremes"]),
       st.integers(2, 64), st.integers(0, 2 ** 32 - 1))
def test_eigen_fields_match_oracle_with_and_without_fallback(kind, n, seed):
    comps = _path_field(kind, n, seed)
    degenerate = _degenerate(comps)
    if kind == "generic":
        assert not degenerate.any()  # the fallback is skipped
    elif kind == "scalar":
        assert degenerate.all()
    elif kind == "mixed":
        assert degenerate.any() and not degenerate.all()
    got = eig3_symmetric_field(comps)
    want = eig3_symmetric_field_oracle(comps)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n,)
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_eigen_single_matrix_returns_0d_values():
    for row in ([2.0, 0.5, -0.25, -1.0, 0.0, 3.0], [-0.0, 0.0, 0.0, -0.0, 0.0, -0.0]):
        comps = np.array(row)
        got = eig3_symmetric_field(comps)
        want = eig3_symmetric_field_oracle(comps)
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.shape == () and g.dtype == np.float64
            assert g.view(np.uint64) == np.asarray(w).view(np.uint64)


def test_eigen_order_keeps_signed_zero_positions():
    comps = np.array([[-0.0, 0.0, 0.0, 0.0, 0.0, -0.0],
                      [2.0, 0.0, 0.0, -2.0, 0.0, 2.0]])
    got = eig3_symmetric_field(comps)
    want = eig3_symmetric_field_oracle(comps)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
