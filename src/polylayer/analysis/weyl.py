"""Discretized near-eigenfunction (Weyl) sequence residuals.

The n-th element lives on the wedge of the smallest dihedral angle: the 2D
waveguide eigenfunction times a longitudinal plane wave, windowed in the
axial coordinate to [2^n, 2^(n+1)] and cut off transversally at the outlet
length available at the window's near end.  The factorized structure makes
the residual norm a combination of four 1D window integrals and three 2D
grid integrals; the transverse Laplacian is evaluated with second-order
finite differences on a Cartesian sampling of the finite-element field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..geometry import LayerGeometry
from ..mesh2d import sample_grid
from .waveguide import WaveguideMode

Z_WIDTH = 0.35  # axial window transition; the support stays in [2^n, 2^(n+1)]
CHI_WIDTH = 1.0  # transverse cutoff transition
X_CUT = 14.0  # outlet length cap; the eigenfunction is negligible beyond it


def smoothstep(t):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 in between."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


@dataclass(frozen=True)
class WeylConfig:
    """Parameters of one Weyl-sequence element; ``h_grid`` is the
    finite-difference spacing."""

    index: int
    kappa: float = 0.0
    h_grid: float = 0.08

    def __post_init__(self):
        if not 1 <= self.index <= 1022:  # 2^(index+1) must be a finite double
            raise ConfigError(f"window index {self.index} must lie in [1, 1022]")
        # negated, so that NaN fails them
        if not 0.0 <= self.kappa < math.inf:
            raise ConfigError(f"kappa = {self.kappa} must be finite and >= 0")
        if not 0.0 < self.h_grid:
            raise ConfigError(f"grid spacing h_grid = {self.h_grid} must be positive")
        if not self.h_grid <= min(Z_WIDTH, CHI_WIDTH) / 4.0:
            raise ConfigError("grid too coarse relative to the cut-off derivative scale")


@dataclass(eq=False)
class WeylElement:
    """Residual data of one sequence element."""

    index: int
    kappa: float
    residual: float
    norm: float
    z_support: tuple
    outlet_length: float

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kappa": self.kappa,
            "residual": self.residual,
            "norm": self.norm,
            "z_support": list(self.z_support),
            "outlet_length": self.outlet_length,
        }


def _window_integrals(n: int, width: float):
    """Integrals of the axial window and its derivatives over [2^n, 2^(n+1)].

    The window is X = S((z - 2^n)/w) * S((2^(n+1) - z)/w) with the quintic
    smoothstep S, so its support is exactly the dyadic block.  Its two
    transitions do not meet when 2^n >= 2w: X is 1 between them and one S
    across each.  Over [0, 1], S^2, S'^2 and S''^2 integrate to 181/462, 10/7
    and 120/7; I11 = int X X'' = -I1 by parts, since X vanishes at both ends.
    """
    if not 2.0**n >= 2.0 * width:
        raise ConfigError(f"window transitions of width {width} meet at index {n}")
    i1 = 20.0 / (7.0 * width)
    return {
        "I2": 2.0**n - 2.0 * width * (1.0 - 181.0 / 462.0),
        "I11": -i1,
        "I22": 240.0 / (7.0 * width**3),
        "I1": i1,
    }


def _transverse_fields(layer, mode, config, outlet_len):
    """Sampled B = v * chi and A = -FD_Lap(B) - lambda B on a Cartesian grid.

    Returns sums over the resolved interior (stencil fully inside the
    domain) plus the norm of B over the whole inside region.
    """
    lam = float(mode.threshold.lambda_estimates[-1, 0])
    theta = layer.beta_min
    half = theta / 2.0
    inner = np.array([1.0 / math.sin(half), 0.0])
    d1 = np.array([math.cos(half), math.sin(half)])
    d2 = np.array([math.cos(half), -math.sin(half)])

    h = config.h_grid
    keep = min(outlet_len, X_CUT)
    x_max = float((1.0 / math.tan(half) + keep) * math.cos(half) + 2 * h)
    y_max = float((1.0 / math.tan(half) + keep) * math.sin(half) + 2 * h)
    xs = np.arange(-2 * h, x_max, h)
    ys = np.arange(-y_max, y_max, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)

    # the mode is even in y: the mesh may hold only the half y >= 0
    abs_ys, column = np.unique(np.abs(ys), return_inverse=True)
    V, IN = (a[:, column] for a in sample_grid(mode.mesh, mode.values[:, 0], xs, abs_ys))

    s1 = (pts - inner) @ d1
    s2 = (pts - inner) @ d2
    chi = (
        smoothstep((outlet_len - s1) / CHI_WIDTH)
        * smoothstep((outlet_len - s2) / CHI_WIDTH)
    ).reshape(X.shape)
    B = V * chi  # 0 outside the mesh

    lap = np.zeros_like(B)
    lap[1:-1, 1:-1] = (
        B[2:, 1:-1] + B[:-2, 1:-1] + B[1:-1, 2:] + B[1:-1, :-2] - 4.0 * B[1:-1, 1:-1]
    ) / (h * h)
    stencil_ok = np.zeros_like(IN)
    stencil_ok[1:-1, 1:-1] = (
        IN[1:-1, 1:-1] & IN[2:, 1:-1] & IN[:-2, 1:-1] & IN[1:-1, 2:] & IN[1:-1, :-2]
    )
    A = -lap - lam * B

    cell = h * h
    a2 = float((A[stencil_ok] ** 2).sum() * cell)
    ab = float((A[stencil_ok] * B[stencil_ok]).sum() * cell)
    b2_res = float((B[stencil_ok] ** 2).sum() * cell)
    b2_all = float((B[IN] ** 2).sum() * cell)
    return a2, ab, b2_res, b2_all


def weyl_residual(layer: LayerGeometry, config: WeylConfig, mode: WaveguideMode) -> WeylElement:
    """Relative residual of the n-th discretized Weyl element built on
    ``mode``, the waveguide solved at ``layer.beta_min``.

    The residual factorizes over the axial window:  with A = -Lap_2D(B) -
    lambda B and B = v * chi, the squared norm of the defect equals
    I2 |A|^2 - 2 I11 <A, B> + (I22 + 4 kappa^2 I1) |B|^2, divided by the
    squared element norm I2 |B|^2.
    """
    n = config.index
    a = layer.angle.vertex_angles
    beta = layer.angle.dihedral_angles
    j = int(np.argmin(beta))
    alpha_adj = min(float(a[(j - 1) % layer.n]), float(a[j]))
    slope = math.tan(alpha_adj / 2.0)
    outlet_len = slope * 2.0**n  # smallest outlet at the window's near end

    zi = _window_integrals(n, Z_WIDTH)
    a2, ab, b2_res, b2_all = _transverse_fields(layer, mode, config, outlet_len)

    # the squared defect norm over I2 ~ 2^n, divided first so that none overflows
    defect2 = a2 + (
        -2.0 * zi["I11"] * ab + (zi["I22"] + 4.0 * config.kappa**2 * zi["I1"]) * b2_res
    ) / zi["I2"]
    norm = math.sqrt(2.0 ** (-n) * zi["I2"] * b2_all)
    return WeylElement(
        index=n,
        kappa=config.kappa,
        residual=math.sqrt(max(defect2, 0.0) / b2_all),
        norm=norm,
        z_support=(2.0**n, 2.0 ** (n + 1)),
        outlet_length=outlet_len,
    )


def support_overlap(n: int, m: int, width: float) -> float:
    """L2 overlap of the axial windows n and m.  Distinct dyadic blocks
    [2^n, 2^(n+1)] share at most an endpoint, so only n == m overlaps."""
    return _window_integrals(n, width)["I2"] if n == m else 0.0
