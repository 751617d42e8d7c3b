"""Finite-difference checks of the loss gradients.

``rel_errors`` and ``tie_free_rel_errors`` are the one harness that the
audit and every gradient test, acceptance criterion 01 among them, share
rather than a finite-difference loop of their own: central differences
of step ``GRADCHECK_H``.  ``tests/test_gradcheck.py`` tests the harness
itself.  The audit runs them at seeded voxels of seeded inputs,
so a fixed (seed, size) gives a fixed report.
"""

import itertools
import math

import numpy as np

from . import losses
from .errors import ParameterError
from .rng import uniform01, uniform_range
from .volume import PhantomSpec, make_phantom

GRADCHECK_H = 1e-3
POINTS = 20      # voxels checked per smooth term
CON_POINTS = 20  # tie-free voxels wanted for the connectivity term
SKEL_ITERS = 4   # skeleton iterations of the checked connectivity loss


def _nudged(x: np.ndarray, voxel, step: float) -> np.ndarray:
    x = x.copy()
    x[voxel] += step  # adding -h has the bits of subtracting h
    return x


def _rel_err(analytic: float, f_plus: float, f_minus: float) -> float:
    fd = (f_plus - f_minus) / (2.0 * GRADCHECK_H)
    return abs(analytic - fd) / max(abs(fd), 1e-8)


def rel_errors(value, grad: np.ndarray, x, voxels) -> list:
    """|grad[v] - fd| / max(|fd|, 1e-8) at each voxel v, fd the central
    difference of the scalar function ``value`` at x (as float64)."""
    x = np.asarray(x, dtype=np.float64)
    return [_rel_err(grad[v], value(_nudged(x, v, GRADCHECK_H)),
                     value(_nudged(x, v, -GRADCHECK_H))) for v in voxels]


def tie_free_rel_errors(x, grad: np.ndarray, iterations: int, candidates,
                        want: int) -> list:
    """The connectivity loss's ``rel_errors`` at the first ``want``
    candidates whose +h and -h probes both leave every pooling/relu/
    threshold selection as at x (``losses.loss_con_signature``, one
    connectivity forward per probe that returns the signature and the
    value together); the difference is taken from the two probes'
    values."""
    x = np.asarray(x, dtype=np.float64)
    sig0, _ = losses.loss_con_signature(x, iterations)
    errs = []
    for v in candidates:
        if len(errs) >= want:
            break
        sig_p, f_p = losses.loss_con_signature(_nudged(x, v, GRADCHECK_H), iterations)
        if sig_p != sig0:
            continue
        sig_m, f_m = losses.loss_con_signature(_nudged(x, v, -GRADCHECK_H), iterations)
        if sig_m == sig0:
            errs.append(_rel_err(grad[v], f_p, f_m))
    return errs


def _sample_voxels(dims, seed, count, interior=0):
    lo = interior
    pts = []
    n = 0
    while len(pts) < count:
        u = uniform01(seed, np.arange(n * 3, n * 3 + 3, dtype=np.uint64))
        v = tuple(lo + int(u[i] * (dims[i] - 2 * lo)) for i in range(3))
        n += 1
        if v not in pts:
            pts.append(v)
    return pts


def _tube_prediction(size: int, seed: int) -> np.ndarray:
    """Connected-tube probability field with tie-breaking jitter."""
    spec = PhantomSpec("cylinder", radius_mm=1.5, seed=seed)
    _, label = make_phantom(spec, (max(size, 16),) * 3, (1.0, 1.0, 1.0))
    lab = label.data[:size, :size, :size].astype(np.float64)
    jitter = uniform_range(seed + 77, size ** 3, -0.02, 0.02).reshape((size,) * 3)
    return np.clip(0.07 + 0.83 * lab + jitter, 0.05, 0.95)


def gradcheck_report(seed: int, size: int) -> dict:
    """Max relative error of each analytic gradient vs central FD:
    ``rel_errors`` at ``POINTS`` seeded voxels for each smooth term
    (relaxed supervision, spatial, mix), ``tie_free_rel_errors`` for up
    to ``CON_POINTS`` tie-free voxels of the connectivity term.

    The connectivity loss is checked only at tie-free voxels: candidate
    perturbations must leave every pooling/relu/threshold selection
    unchanged at x-h, x, x+h (certified via selection signatures).
    The sample needs ``POINTS`` distinct voxels and ``2 * CON_POINTS``
    distinct interior ones, which sets the smallest size.
    """
    smallest = next(s for s in itertools.count(3)
                    if s ** 3 >= POINTS and (s - 2) ** 3 >= 2 * CON_POINTS)
    if size < smallest:
        raise ParameterError(f"gradcheck size must be >= {smallest}, got {size}")
    dims = (size,) * 3
    n = size ** 3

    # Stay clear of 0/1: the FD truncation of the log terms grows as
    # h^2/x^2 and would swamp the comparison below ~0.1.
    yhat = 0.1 + 0.8 * uniform01(seed * 8 + 1, np.arange(n, dtype=np.uint64)).reshape(dims)
    guide = uniform01(seed * 8 + 2, np.arange(n, dtype=np.uint64)).reshape(dims)
    y = (uniform01(seed * 8 + 3, np.arange(n, dtype=np.uint64)).reshape(dims) < 0.2)
    y = y.astype(np.float64)
    if y.sum() < 1:
        y.flat[0] = 1.0
    roi = np.zeros(dims, dtype=bool)
    roi[1:-1, 1:-1, 1:-1] = True
    beta = 1.0 / math.log((n - y.sum()) / y.sum())

    kparams = losses.GatedKernelParams()
    m = (uniform01(seed * 8 + 4, np.arange(n, dtype=np.uint64)).reshape(dims) < 0.3)
    m = m.astype(np.float64)
    if m.sum() < 1:
        m.flat[-1] = 1.0

    voxels = _sample_voxels(dims, seed * 8 + 5, POINTS)
    report = {"h": GRADCHECK_H, "size": size, "seed": seed}

    smooth = (("r_sup", lambda x: losses.loss_r_sup_array(y, x, roi, beta)),
              ("spatial", lambda x: losses.loss_spatial_array(x, guide, kparams)),
              ("mix", lambda x: losses.loss_mix_array(x, m)))
    for name, term in smooth:
        errs = rel_errors(lambda x: term(x)[0], term(yhat)[1], yhat, voxels)
        report[name] = {"max_rel_err": max(errs), "points": len(errs)}

    tube = _tube_prediction(size, seed * 8 + 6)
    _, g = losses.loss_con_array(tube, SKEL_ITERS)
    # Check where the gradient is live, not only at inert background.
    flat = np.argsort(-np.abs(g), axis=None, kind="stable")[:CON_POINTS * 2]
    candidates = [tuple(int(c) for c in np.unravel_index(i, dims)) for i in flat]
    candidates += _sample_voxels(dims, seed * 8 + 7, CON_POINTS * 2, interior=1)
    errs = tie_free_rel_errors(tube, g, SKEL_ITERS, candidates, CON_POINTS)
    report["con"] = {"max_rel_err": max(errs) if errs else 0.0,
                     "points": len(errs), "tie_free_only": True}
    return report
