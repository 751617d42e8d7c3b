"""One-matrix forms of the vesselness field functions, for tests that
state a single voxel's Hessian or eigenvalues at a time."""

from typing import NamedTuple

import numpy as np

from tubekit import ParameterError
from tubekit.vesselness import JermanParams, _jerman_response, eig3_symmetric_field

EIG3_MAX_COMPONENT = 1e150  # the analytic solve squares it; float64 ends near 1.8e308


class EigenTriple(NamedTuple):
    """Eigenvalues of one symmetric 3x3 matrix, |l1| <= |l2| <= |l3|."""

    l1: float
    l2: float
    l3: float


def eig3_symmetric(comps) -> EigenTriple:
    """Eigenvalues of one symmetric 3x3, components (xx, xy, xz, yy, yz, zz),
    each finite and at most EIG3_MAX_COMPONENT (1e150) in magnitude."""
    c = np.asarray(comps, dtype=np.float64)
    if c.shape != (6,):
        raise ParameterError("expected six components (xx, xy, xz, yy, yz, zz)")
    if not np.all(np.abs(c) <= EIG3_MAX_COMPONENT):  # also false for NaN
        raise ParameterError(f"Hessian components must be finite, |c| <= {EIG3_MAX_COMPONENT:g}")
    l1, l2, l3 = eig3_symmetric_field(c)
    return EigenTriple(float(l1), float(l2), float(l3))


def jerman_response(eigs: EigenTriple, lambda3_max: float, tau: float,
                    polarity: str = "bright") -> float:
    """Tubularity response in [0, 1] for one voxel; lambda3_max is the
    volume-wide maximum of the polarity-adjusted l3 at the scale (>= 0)."""
    JermanParams(tau=tau, polarity=polarity)  # validates both
    if lambda3_max < 0:
        raise ParameterError("lambda3_max must be non-negative")
    sign = -1.0 if polarity == "bright" else 1.0
    l2 = np.array([sign * eigs.l2], dtype=np.float64)
    l3 = np.array([sign * eigs.l3], dtype=np.float64)
    return float(_jerman_response(l2, l3, float(lambda3_max), float(tau))[0])
