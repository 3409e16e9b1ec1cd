"""Principal-branch Lambert W solver."""
import math

import numpy as np
import pytest
import scipy.special

from vbsenergy.errors import LambertDomainError
from vbsenergy.lambertw import BRANCH_POINT_ARG, lambert_w0

# Known values: W(1) is the omega constant, W(e) = 1, W(0) = 0, and the
# branch point W(-1/e) = -1.
OMEGA = 0.5671432904097838


def test_known_values():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-12
    assert lambert_w0(1.0) == pytest.approx(OMEGA, rel=1e-14)
    assert lambert_w0(BRANCH_POINT_ARG) == -1.0
    assert lambert_w0(math.inf) == math.inf


def test_branch_point_snap_and_domain():
    # Arguments a hair below -1/e from rounding snap to the branch value.
    assert lambert_w0(BRANCH_POINT_ARG * (1.0 + 1e-16)) == -1.0
    with pytest.raises(LambertDomainError):
        lambert_w0(BRANCH_POINT_ARG - 1e-9)
    with pytest.raises(LambertDomainError):
        lambert_w0(math.nan)


def _residual(x: float) -> float:
    w = lambert_w0(x)
    return abs(w * math.exp(w) - x)


def test_inverse_identity_near_branch():
    for x in np.linspace(BRANCH_POINT_ARG, -1e-12, 2000):
        assert _residual(float(x)) <= 1e-13 * max(1.0, abs(x))


def test_inverse_identity_wide_range():
    for x in np.geomspace(1e-12, 1e12, 2000):
        assert _residual(float(x)) <= 1e-13 * max(1.0, abs(x))


def test_matches_scipy():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.uniform(BRANCH_POINT_ARG, 0.0, 200),
        10.0 ** rng.uniform(-6, 10, 200),
    ])
    for x in xs:
        ours = lambert_w0(float(x))
        ref = float(scipy.special.lambertw(float(x), 0).real)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_error_stays_below_the_window_margin():
    # optimize._gap_window certifies a gap sign with margin
    # 1e-12 * (2 + |u| + ...), which needs lambert_w0 well inside it
    # wherever a window is allowed: arguments in [0, 1e300].
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        [0.0, 5e-324, 1e-300, 1.0, math.e, 1e300],
        np.geomspace(1e-300, 1e300, 2000),
        10.0 ** rng.uniform(-300, 300, 1000),
        rng.uniform(0.0, 100.0, 1000),
    ])
    for x in xs:
        w = float(scipy.special.lambertw(float(x), 0).real)
        assert abs(lambert_w0(float(x)) - w) <= 1e-14 * (2.0 + abs(w))
