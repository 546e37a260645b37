"""Spectral computations for the Dirichlet Laplacian in 3D polyhedral layers.

The package computes essential-spectrum thresholds from L-shaped waveguide
eigenvalues, variational upper bounds certifying a nonempty discrete
spectrum, and parameter scans (monotonicity, truncation convergence,
eigenvalue counting) at desk scale.
"""

import os

# one OpenBLAS thread unless the caller chose otherwise, set before numpy
# loads OpenBLAS, so that it starts no threads for ``fanout.pin_blas`` to idle
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .geometry import (  # noqa: E402
    GeometryError,
    LayerGeometry,
    PolyhedralAngle,
    build_regular,
    build_trihedral,
    fichera_angle,
    from_rays,
    make_layer,
)

__all__ = [
    "GeometryError",
    "LayerGeometry",
    "PolyhedralAngle",
    "build_regular",
    "build_trihedral",
    "fichera_angle",
    "from_rays",
    "make_layer",
]

__version__ = "0.1.0"
