"""Eigenvalue ordering against the stacked-argsort oracle.

The package orders the three analytic roots with a network of strict
compare-swaps on magnitude; the oracle stacks them and gathers through
a stable argsort.  Bit-equal results (compared as uint64, so -0.0 and
0.0 differ) pin ties, signed zeros and the degenerate q*I fallback.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import eig3_symmetric_field_oracle
from tubekit.vesselness import eig3_symmetric_field


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


def test_eigen_order_keeps_signed_zero_positions():
    comps = np.array([[-0.0, 0.0, 0.0, 0.0, 0.0, -0.0],
                      [2.0, 0.0, 0.0, -2.0, 0.0, 2.0]])
    got = eig3_symmetric_field(comps)
    want = eig3_symmetric_field_oracle(comps)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
