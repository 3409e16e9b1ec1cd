"""Principal-branch Lambert W solver."""
import math

import mpmath
import numpy as np
import pytest
import scipy.special

from vbsenergy.errors import LambertDomainError
from vbsenergy.lambertw import BRANCH_POINT_ARG, _initial_guess, lambert_w0

LARGEST_FLOAT = 1.7976931348623157e308

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
    # Arguments a hair below -1/e from rounding snap to the branch value:
    # one strictly inside the 1e-15 window, and the float next to -1/e.
    assert lambert_w0(BRANCH_POINT_ARG - 5e-16) == -1.0
    assert lambert_w0(math.nextafter(BRANCH_POINT_ARG, -math.inf)) == -1.0
    with pytest.raises(LambertDomainError):
        lambert_w0(BRANCH_POINT_ARG - 2e-15)
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
    # optimize._certified_sign certifies a gap sign, for the window's
    # ends and for a clamped core count, with margin
    # 1e-12 * (2 + |u| + ...), which needs lambert_w0 well inside it
    # wherever a sign is certified: every positive argument, up to the
    # largest float.
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        [0.0, 5e-324, 1e-300, 1.0, math.e, 1e300, math.nextafter(1e300, math.inf),
         1.5e308, LARGEST_FLOAT],
        np.geomspace(1e-300, 1e300, 2000),
        10.0 ** rng.uniform(-300, 300, 1000),
        rng.uniform(0.0, 100.0, 1000),
        np.geomspace(1e300, 1e308, 1000),
        rng.uniform(1e308, LARGEST_FLOAT, 1000),
    ])
    for x in xs:
        w = float(scipy.special.lambertw(float(x), 0).real)
        assert abs(lambert_w0(float(x)) - w) <= 1e-14 * (2.0 + abs(w))


def test_error_near_the_branch_point_stays_within_its_conditioning():
    # On (-1/e, 0] W0 is ill-conditioned toward the branch point, where
    # W'(x) = 1 / (e**W (1 + W)) is unbounded, so the error is measured
    # against the rounding of x carried through W' plus the rounding of
    # W itself. scipy's lambertw is up to 4.7e-9 off near -1/e, so the
    # reference is mpmath at 200 bits.
    rng = np.random.default_rng(17)
    xs = np.concatenate([
        [0.0, -5e-324, -1e-300, -1e-16, -0.25, math.nextafter(BRANCH_POINT_ARG, 0.0)],
        rng.uniform(BRANCH_POINT_ARG, 0.0, 3000),
        BRANCH_POINT_ARG + np.geomspace(1e-16, -BRANCH_POINT_ARG, 3000),
    ])
    for x in xs.tolist():
        if not x > BRANCH_POINT_ARG:
            continue
        with mpmath.workprec(200):
            w = mpmath.lambertw(x)
            assert w.imag == 0, x
            err = float(abs(mpmath.mpf(lambert_w0(x)) - w.real))
        wf = float(w.real)
        slope = 1.0 / (math.exp(wf) * (1.0 + wf))
        assert err <= 2.0 * (math.ulp(x) * slope + math.ulp(wf)), x


def _halley_only(x: float) -> float:
    # lambert_w0 before the log form existed: Halley steps from
    # _initial_guess at every in-domain argument.
    w = _initial_guess(x)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            return w
    assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))
    return w


def test_arguments_up_to_1e300_keep_the_halley_bits():
    # The log form takes over only above 1e300; below it every value
    # keeps its bits, so no rate solved through lambert_w0 moves.
    rng = np.random.default_rng(13)
    xs = np.concatenate([
        [1e300, math.nextafter(1e300, 0.0), 1.0, math.e],
        np.linspace(BRANCH_POINT_ARG, 0.0, 5001)[1:-1],
        np.geomspace(1e-300, 1e300, 20001),
        -(10.0 ** rng.uniform(-300, math.log10(-BRANCH_POINT_ARG), 2000)),
        10.0 ** rng.uniform(-300, 300, 5000),
    ])
    for x in xs.tolist():
        if x > BRANCH_POINT_ARG and x != 0.0:
            assert lambert_w0(x).hex() == _halley_only(x).hex(), x


def test_the_largest_float_solves_without_overflow():
    # In the Halley step w * exp(w) overflowed here and left a relative
    # error of 4e-8; the log form matches scipy.
    w = float(scipy.special.lambertw(LARGEST_FLOAT, 0).real)
    assert lambert_w0(LARGEST_FLOAT) == pytest.approx(w, rel=1e-15)
