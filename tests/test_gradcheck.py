"""The gradient-check harness that the gradient tests call: it passes a
true gradient, flags a wrong one, and certifies only tie-free voxels."""

import itertools

import numpy as np

from tubekit.gradcheck import rel_errors, tie_free_rel_errors
from tubekit.losses import loss_con_array, loss_r_sup_array, resolve_beta

DIMS = (8, 8, 8)
EVERY_VOXEL = list(itertools.product(range(8), repeat=3))


def _r_sup_setup():
    rng = np.random.default_rng(12)
    yhat = 0.1 + 0.8 * rng.random(DIMS)
    y = (rng.random(DIMS) < 0.25).astype(np.float64)
    roi = np.zeros(DIMS, dtype=bool)
    roi[1:-1, 1:-1, 1:-1] = True
    voxels = [tuple(rng.integers(0, 8, 3)) for _ in range(20)]
    beta = resolve_beta(y)
    grad = loss_r_sup_array(y, yhat, roi, beta)[1]
    return lambda x: loss_r_sup_array(y, x, roi, beta)[0], grad, yhat, voxels


def test_rel_errors_pass_the_true_gradient():
    value, grad, yhat, voxels = _r_sup_setup()
    errs = rel_errors(value, grad, yhat, voxels)
    assert len(errs) == len(voxels)
    assert max(errs) <= 1e-4


def test_rel_errors_flag_a_gradient_one_percent_off():
    value, grad, yhat, voxels = _r_sup_setup()
    assert max(rel_errors(value, 1.01 * grad, yhat, voxels)) >= 5e-3


def test_tie_free_certifies_no_voxel_of_a_constant_field():
    # Every probe of a flat field breaks a pooling tie.
    pred = np.full(DIMS, 0.7)
    grad = loss_con_array(pred, iterations=3)[1]
    assert tie_free_rel_errors(pred, grad, 3, EVERY_VOXEL, len(EVERY_VOXEL)) == []


def test_tie_free_certifies_most_voxels_of_a_random_field_up_to_want():
    pred = np.random.default_rng(13).random(DIMS)
    grad = loss_con_array(pred, iterations=3)[1]
    errs = tie_free_rel_errors(pred, grad, 3, EVERY_VOXEL, len(EVERY_VOXEL))
    assert len(errs) >= 0.9 * len(EVERY_VOXEL)  # 498 of 512
    assert max(errs) <= 1e-3
    assert len(tie_free_rel_errors(pred, grad, 3, EVERY_VOXEL, 7)) == 7
