"""Richardson extrapolation for mesh-halving eigenvalue sequences."""

from __future__ import annotations

import numpy as np

# h halves per level and the leading error is O(h^2): (2^2 v_fine - v_coarse) / 3
FACTOR = 4.0


def richardson(values):
    """Eliminate the leading O(h^2) error from halving sequences.

    ``values`` holds estimates on meshes h, h/2, h/4, ... along axis 0, one
    column per eigenvalue when 2D.  Returns (extrapolated, error_indicator,
    extrapolants), each per column.  The indicator is the difference of the
    last two extrapolants; with only two levels it is the magnitude of the
    single Richardson correction, a conservative bound.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise ValueError("extrapolation needs at least two mesh levels")
    ext = (FACTOR * v[1:] - v[:-1]) / (FACTOR - 1.0)
    indicator = np.abs(ext[-1] - (ext[-2] if len(ext) >= 2 else v[-1]))
    return ext[-1], indicator, ext
