import math

import numpy as np
import pytest

from polylayer.analysis import (
    INCONCLUSIVE,
    NONEMPTY,
    AnalysisError,
    WaveguideNumerics,
    alpha_star,
    certify_discrete,
    veps_certificate,
)
from polylayer.geometry import (
    GeometryError,
    build_trihedral,
    fichera_angle,
    make_layer,
)
from polylayer.errors import ConfigError

PI = math.pi

LIGHT_THRESHOLD = WaveguideNumerics(h=0.1, levels=2, R=6.0)


@pytest.fixture(scope="module")
def fichera_layer():
    return make_layer(fichera_angle())


def test_certify_discrete_structure(fichera_layer):
    cert = certify_discrete(
        fichera_layer,
        R=4.0,
        h=1.0 / 6.0,
        levels=2,
        threshold_numerics=LIGHT_THRESHOLD,
    )
    assert cert.kind == "upper_bound"
    levels = cert.evidence["levels"]
    assert len(levels) == 2
    assert levels[0]["h"] == pytest.approx(1.0 / 3.0)
    assert levels[1]["h"] == pytest.approx(1.0 / 6.0)
    # nested voxel spaces: bounds monotone nonincreasing
    assert levels[1]["upper_bound"] <= levels[0]["upper_bound"] + 1e-10
    assert cert.evidence["upper_bound"] == pytest.approx(
        min(l["upper_bound"] for l in levels)
    )
    # verdict semantics
    if cert.verdict == NONEMPTY:
        assert cert.margin > cert.evidence["combined_indicator"]
    else:
        assert cert.verdict == INCONCLUSIVE
        assert cert.margin <= cert.evidence["combined_indicator"]
    for lev in levels:
        assert lev["residual"] <= 1e-8


def test_certify_discrete_indicator_never_overstated(fichera_layer):
    # coarse grid alone cannot undercut the threshold: INCONCLUSIVE, not error
    cert = certify_discrete(
        fichera_layer,
        R=3.0,
        h=1.0 / 3.0,
        levels=1,
        threshold_numerics=LIGHT_THRESHOLD,
    )
    assert cert.verdict in (NONEMPTY, INCONCLUSIVE)


def test_veps_requires_regular_layer():
    lay = make_layer(build_trihedral((PI / 2, 0.8, PI / 2)))
    with pytest.raises(GeometryError, match="regular"):
        veps_certificate(lay)


def test_veps_requires_three_levels(fichera_layer):
    with pytest.raises(ConfigError, match="3 levels"):
        veps_certificate(
            fichera_layer, mode_numerics=WaveguideNumerics(h=0.2, levels=2, R=4.0)
        )


def test_veps_fichera_light(fichera_layer):
    cert = veps_certificate(
        fichera_layer,
        eps_grid=np.array([1e-3, 1e-2, 0.05, 0.3, 1.0, 10.0]),
        mode_numerics=WaveguideNumerics(h=0.15, levels=3, R=6.0),
    )
    rows = {r["eps"]: r for r in cert.evidence["terms"]}
    assert rows[0.05]["value"] < 0.0  # small eps: boundary term wins
    assert rows[10.0]["value"] > 0.0  # large eps: T1 dominates
    assert rows[10.0]["T1"] > abs(rows[10.0]["T3"])
    assert cert.verdict == NONEMPTY
    assert cert.evidence["T3_zero"] < 0.0


def test_alpha_star_tol_guard():
    with pytest.raises(ConfigError):
        alpha_star(tol=1e-4)


def test_alpha_star_bad_bracket():
    with pytest.raises(AnalysisError, match="bracket"):
        alpha_star(
            tol=5e-2,
            numerics=WaveguideNumerics(h=0.2, levels=2),
            bracket=(0.9, 1.4),  # lambda1 > pi^2/2 on the whole bracket
        )
