"""tubekit: volumetric tubular-structure analysis toolkit.

Subpackages cover phantom/volume plumbing (volume), multi-scale
vesselness filtering (vesselness), skeleton topology repair (skeleton),
growth/suppression segmentation losses with analytic gradients (losses),
evaluation metrics (metrics), attention-fusion forward blocks (fusion),
the finite-difference gradient audit (gradcheck) and the command-line
front end (cli).
"""

from .errors import (FileFormatError, NumericDomainError, ParameterError,
                     TubekitError)
from .volume import (Mask3, PhantomSpec, RoiBox, Volume3, load_tvol,
                     make_phantom, roi_from_label, save_tvol)

__all__ = [
    "TubekitError", "ParameterError", "FileFormatError", "NumericDomainError",
    "Volume3", "Mask3", "RoiBox", "PhantomSpec",
    "make_phantom", "save_tvol", "load_tvol", "roi_from_label",
]

__version__ = "0.1.0"
