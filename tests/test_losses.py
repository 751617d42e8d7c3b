import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import NumericDomainError, ParameterError, PhantomSpec, make_phantom
from tubekit.gradcheck import rel_errors, tie_free_rel_errors
from tubekit.losses import (DEFAULT_EPSILON, GatedKernelParams, loss_con_array,
                            loss_con_signature, loss_gsb,
                            loss_mix_array, loss_r_sup_array,
                            loss_spatial_array, resolve_beta,
                            uncertain_prediction_array)

from oracles import spatial_pair_sum_bruteforce


def _rand_setup(seed, n=6):
    rng = np.random.default_rng(seed)
    yhat = 0.1 + 0.8 * rng.random((n, n, n))
    y = (rng.random((n, n, n)) < 0.25).astype(np.float64)
    if y.sum() < 1:
        y[0, 0, 0] = 1.0
    roi = np.zeros((n, n, n), dtype=bool)
    roi[1:-1, 1:-1, 1:-1] = True
    return rng, yhat, y, roi


# ---------------------------------------------------------------------------
# uncertain prediction / beta
# ---------------------------------------------------------------------------

def test_uncertain_prediction_identity_on_certain_voxels():
    rng = np.random.default_rng(1)
    yhat = rng.random((6, 6, 6))
    y = np.ones((6, 6, 6))
    roi = np.ones((6, 6, 6), dtype=bool)
    yp, w = uncertain_prediction_array(y, yhat, roi, beta=0.3)
    assert np.array_equal(yp, yhat)
    assert np.array_equal(w, np.ones_like(w))


def test_uncertain_prediction_beta_scalar_example():
    # sum(y)=100, sum(y^c)=10000 -> beta = 1/ln(100)
    dims = (101, 10, 10)
    y = np.zeros(dims)
    y.ravel()[:100] = 1.0
    beta = resolve_beta(y)
    assert abs(beta - 0.21714724) <= 1e-6
    yhat = np.ones(dims)
    roi = np.ones(dims, dtype=bool)
    yp, _ = uncertain_prediction_array(y, yhat, roi, beta)
    uncertain_voxel = yp[y == 0.0]
    assert np.abs(uncertain_voxel - beta).max() <= 1e-12


def test_uncertain_prediction_outside_roi_passthrough():
    rng = np.random.default_rng(2)
    yhat = rng.random((5, 5, 5))
    y = np.zeros((5, 5, 5))
    y[2, 2, 2] = 1.0
    roi = np.zeros((5, 5, 5), dtype=bool)
    roi[2:4, 2:4, 2:4] = True
    yp, _ = uncertain_prediction_array(y, yhat, roi, beta=0.5)
    outside_negative = (~roi) & (y == 0.0)
    assert np.array_equal(yp[outside_negative], yhat[outside_negative])


@pytest.mark.parametrize("beta", [-5.0, -1e-12, float("nan"), float("inf")])
def test_r_sup_rejects_beta_outside_domain(beta):
    _, yhat, y, roi = _rand_setup(3)
    with pytest.raises(ParameterError, match="beta must be finite and non-negative"):
        loss_r_sup_array(y, yhat, roi, beta)


def test_auto_beta_undefined_cases():
    y = np.ones((4, 4, 4))
    with pytest.raises(NumericDomainError, match="beta undefined"):
        resolve_beta(y)
    with pytest.raises(NumericDomainError):
        resolve_beta(np.zeros((4, 4, 4)))


def test_explicit_beta_checked_then_used_as_given():
    y = np.ones((4, 4, 4))  # auto beta would be undefined
    assert resolve_beta(y, 0.0) == 0.0
    assert resolve_beta(y, 0.3) == 0.3
    for bad in (-5.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ParameterError, match="beta must be finite and non-negative"):
            resolve_beta(y, bad)


def test_r_sup_validates_inputs():
    y = np.ones((4, 4, 4))
    roi = np.ones((4, 4, 4), dtype=bool)
    with pytest.raises(ParameterError, match=r"prediction values must lie in \[0, 1\]"):
        loss_r_sup_array(y, np.full((4, 4, 4), 1.5), roi, 0.5)
    with pytest.raises(ParameterError, match="label and prediction shapes differ"):
        loss_r_sup_array(y, np.full((4, 4, 5), 0.5), roi, 0.5)
    with pytest.raises(NumericDomainError, match="at least one positive voxel"):
        loss_r_sup_array(np.zeros((4, 4, 4)), np.full((4, 4, 4), 0.5), roi, 0.5)


# ---------------------------------------------------------------------------
# relaxed supervision loss
# ---------------------------------------------------------------------------

def test_r_sup_perfect_prediction_dice_is_half():
    _, _, y, _ = _rand_setup(3)
    roi = np.ones(y.shape, dtype=bool)
    beta = resolve_beta(y)
    value, _ = loss_r_sup_array(y, y.copy(), roi, beta)
    s = y.sum()
    expected_dice = -s / (2 * s + DEFAULT_EPSILON)
    # CE term at yhat = y is -log(1+eps) ~ 0 on positives
    assert abs(value - expected_dice) <= 1e-6


def test_r_sup_zero_prediction_limits():
    _, _, y, roi = _rand_setup(4)
    beta = resolve_beta(y)
    value, _ = loss_r_sup_array(y, np.zeros_like(y), roi, beta)
    expected_ce = -(y * math.log(DEFAULT_EPSILON)).sum() / y.size
    assert abs(value - expected_ce) <= 1e-9  # dice term is exactly 0


def test_r_sup_gradient_matches_fd():
    rng, yhat, y, roi = _rand_setup(5)
    beta = resolve_beta(y)
    _, grad = loss_r_sup_array(y, yhat, roi, beta)
    voxels = [tuple(rng.integers(0, 6, 3)) for _ in range(50)]
    errs = rel_errors(lambda x: loss_r_sup_array(y, x, roi, beta)[0], grad, yhat, voxels)
    assert max(errs) <= 1e-4


# ---------------------------------------------------------------------------
# connectivity loss
# ---------------------------------------------------------------------------

def _tube_pred(gap_voxels=0):
    dims = (17, 17, 17)
    spec = PhantomSpec("gapped_cylinder" if gap_voxels else "cylinder",
                       radius_mm=1.5, gap_len_voxels=gap_voxels)
    _, label = make_phantom(spec, dims)
    return label.data.astype(np.float64)


def test_con_connected_unit_skeleton_is_near_zero():
    pred = _tube_pred()
    value, grad = loss_con_array(pred, iterations=4)
    assert abs(value) <= 1e-6
    assert grad.shape == pred.shape


def test_con_empty_skeleton_returns_zero():
    value, grad = loss_con_array(np.full((8, 8, 8), 0.2), iterations=3)
    assert value == 0.0
    assert not grad.any()


def test_con_gap_penalized_and_fill_decreases():
    gapped = _tube_pred(gap_voxels=1) * 0.9
    before, _ = loss_con_array(gapped, iterations=4)
    assert before > 0.0
    filled = gapped.copy()
    z0 = (17 - 1) // 2
    solid = _tube_pred() > 0
    filled[:, :, z0][solid[:, :, z0]] = 0.9
    after, _ = loss_con_array(filled, iterations=4)
    assert after < before


def test_con_gradient_matches_fd_at_tie_free_voxels():
    rng = np.random.default_rng(6)
    size, iters = 8, 3
    lab = _tube_pred()[:size, :size, :size]
    jitter = rng.uniform(-0.02, 0.02, (size, size, size))
    pred = np.clip(0.12 + 0.78 * lab + jitter, 0.1, 0.9)
    _, grad = loss_con_array(pred, iterations=iters)
    live = np.argsort(-np.abs(grad), axis=None)[:40]
    candidates = [tuple(int(c) for c in np.unravel_index(f, pred.shape)) for f in live]
    errs = tie_free_rel_errors(pred, grad, iters, candidates, 20)
    assert len(errs) >= 10
    assert max(errs) <= 1e-3


@given(st.sampled_from(["tube", "random", "below_half"]), st.tuples(*[st.integers(1, 9)] * 3),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_con_signature_value_is_the_loss_value_bit_for_bit(kind, dims, iters, seed):
    rng = np.random.default_rng(seed)
    pred = rng.random(dims)
    if kind == "tube":  # a jittered cylinder, cut to dims
        lab = _tube_pred()[:dims[0], :dims[1], :dims[2]]
        pred = np.clip(0.12 + 0.78 * lab + 0.02 * (pred - 0.5), 0.1, 0.9)
    elif kind == "below_half":  # the hard skeleton is empty
        pred *= 0.49
    value, _ = loss_con_array(pred, iterations=iters)
    _, sig_value = loss_con_signature(pred, iterations=iters)
    assert np.float64(sig_value).tobytes() == np.float64(value).tobytes()
    if kind == "below_half":
        assert np.float64(value).tobytes() == np.float64(0.0).tobytes()


# ---------------------------------------------------------------------------
# spatial loss
# ---------------------------------------------------------------------------

def test_spatial_zeros_and_single_voxel():
    params = GatedKernelParams()
    z = np.zeros((6, 6, 6))
    value, grad, n = loss_spatial_array(z, z, params)
    assert value == 0.0 and not grad.any() and n == 0
    one = z.copy()
    one[3, 3, 3] = 1.0
    value, _, n = loss_spatial_array(one, z, params)
    assert value == 0.0 and n == 0


def test_spatial_two_adjacent_voxels_closed_form():
    params = GatedKernelParams(sigma_l=1.0, sigma_c=0.5, radius=2)
    yhat = np.zeros((7, 7, 7))
    yhat[3, 3, 3] = 1.0
    yhat[4, 3, 3] = 1.0
    guide = np.full((7, 7, 7), 0.25)
    value, grad, n = loss_spatial_array(yhat, guide, params)
    assert n == 2
    assert abs(value - math.exp(-0.5)) <= 1e-12
    assert abs(grad[3, 3, 3] - 2 * math.exp(-0.5) / 2) <= 1e-12


def test_spatial_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    yhat = rng.random((5, 5, 5))
    guide = rng.random((5, 5, 5))
    params = GatedKernelParams(sigma_l=1.3, sigma_c=0.4, radius=2)
    value, _, n = loss_spatial_array(yhat, guide, params)
    total, n_expected = spatial_pair_sum_bruteforce(yhat, guide, 1.3, 0.4, 2)
    assert n == n_expected
    assert abs(value - total / n_expected) <= 1e-10


def test_spatial_gradient_matches_fd():
    rng = np.random.default_rng(8)
    yhat = 0.1 + 0.8 * rng.random((6, 6, 6))
    guide = rng.random((6, 6, 6))
    params = GatedKernelParams()
    _, grad, _ = loss_spatial_array(yhat, guide, params)
    voxels = [tuple(rng.integers(0, 6, 3)) for _ in range(50)]
    errs = rel_errors(lambda x: loss_spatial_array(x, guide, params)[0], grad, yhat, voxels)
    assert max(errs) <= 1e-4


def test_spatial_peak_memory_is_bounded():
    # Block buffers of about 2^14 voxels, not padded whole-volume copies:
    # the gradient, the offset's product buffer and the domain checks
    # peak near 3.7 float64 volumes at 48^3.
    rng = np.random.default_rng(9)
    yhat = rng.random((48, 48, 48))
    yhat[rng.random(yhat.shape) < 0.5] = 0.0
    guide = rng.random(yhat.shape)
    tracemalloc.start()
    try:
        n_pairs = loss_spatial_array(yhat, guide, GatedKernelParams())[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_pairs > 0
    assert peak <= 5 * 8 * yhat.size, peak / (8 * yhat.size)


def test_spatial_shape_mismatch():
    with pytest.raises(ParameterError):
        loss_spatial_array(np.zeros((4, 4, 4)), np.zeros((4, 4, 5)),
                           GatedKernelParams())


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------

def test_mix_loss_identical_and_orthogonal():
    m = np.zeros((5, 5, 5))
    m[1:3, 1:3, 1:3] = 1.0
    value, _ = loss_mix_array(m.copy(), m)
    assert abs(value + 1.0) <= 1e-12
    other = np.zeros((5, 5, 5))
    other[4, 4, 4] = 1.0
    value, _ = loss_mix_array(other, m)
    assert abs(value) <= 1e-12


def test_mix_loss_degenerate_error():
    with pytest.raises(NumericDomainError, match="degenerate cosine"):
        loss_mix_array(np.zeros((4, 4, 4)), np.ones((4, 4, 4)))


def test_mix_gradient_matches_fd():
    rng = np.random.default_rng(10)
    yhat = 0.1 + 0.8 * rng.random((6, 6, 6))
    m = (rng.random((6, 6, 6)) < 0.3).astype(np.float64)
    m[0, 0, 0] = 1.0
    _, grad = loss_mix_array(yhat, m)
    voxels = [tuple(rng.integers(0, 6, 3)) for _ in range(50)]
    errs = rel_errors(lambda x: loss_mix_array(x, m)[0], grad, yhat, voxels)
    assert max(errs) <= 1e-4


def test_mix_value_range_for_nonnegative_inputs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        yhat = rng.random((5, 5, 5)) + 1e-6
        m = rng.random((5, 5, 5)) + 1e-6
        value, _ = loss_mix_array(yhat, m)
        assert -1.0 - 1e-12 <= value <= 0.0


def test_mix_blended_labels_and_shape_check():
    pred = np.full((4, 4, 4), 0.5)
    y1, y2, alpha = np.ones((4, 4, 4)), np.zeros((4, 4, 4)), 0.5
    value, grad = loss_mix_array(pred, alpha * y1 + (1.0 - alpha) * y2)
    assert abs(value + 1.0) <= 1e-9  # constant fields are collinear
    assert grad.shape == pred.shape
    with pytest.raises(ParameterError, match="shapes differ"):
        loss_mix_array(pred, np.ones((4, 4, 5)))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def _fake_values(rng):
    return tuple(float(v) for v in rng.standard_normal(4))


def test_gsb_lambda_zero_and_one():
    rng = np.random.default_rng(12)
    r_sup, con, spatial, mix = _fake_values(rng)
    off = loss_gsb(r_sup, con, spatial, mix, 0.0)
    assert abs(off - (r_sup + con)) <= 1e-12
    on = loss_gsb(r_sup, con, spatial, mix, 1.0)
    assert abs(on - (r_sup + con + spatial + mix)) <= 1e-12
    with pytest.raises(ParameterError):
        loss_gsb(r_sup, con, spatial, mix, -0.5)


def test_gsb_linearity_over_lambda_grid():
    rng = np.random.default_rng(13)
    for _ in range(5):
        r_sup, con, spatial, mix = _fake_values(rng)
        for lam in (0.0, 0.5, 0.75, 1.0, 1.5, 2.0):
            total = loss_gsb(r_sup, con, spatial, mix, lam)
            lhs = total - (r_sup + con)
            rhs = lam * (spatial + mix)
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


def test_gsb_breakdown_total_recomputable():
    rng = np.random.default_rng(14)
    r_sup, con, spatial, mix = _fake_values(rng)
    total = loss_gsb(r_sup, con, spatial, mix, 1.5)
    assert type(total) is float
    assert total == r_sup + con + 1.5 * (spatial + mix)

