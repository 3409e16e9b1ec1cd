"""Principal branch of the Lambert W function.

``lambert_w0(x)`` returns the real w >= -1 with w * exp(w) = x, defined
for x >= -1/e. The implementation is self-contained: a regime-dependent
initial guess (a square-root series near the branch point, a two-term
log expansion for large arguments) refined by Halley iteration until the
step is below machine-level tolerance. Above 1e300, where w * exp(w)
can overflow near the largest float, Newton iteration on the log form
w + ln w = ln x replaces Halley's.

Accuracy target: the residual |w * exp(w) - x| stays within
1e-12 * max(1, |x|) across the whole domain, with the branch point
returned exactly as -1.
"""
from __future__ import annotations

import math

from .errors import ConvergenceError, LambertDomainError

# -1/e, the left end of the principal branch.
BRANCH_POINT_ARG = -math.exp(-1.0)

# Inputs this far below -1/e are treated as rounding noise and snapped
# onto the branch point instead of raising.
_SNAP_BELOW = 1e-15

_MAX_ITER = 50
_STEP_TOL = 1e-16

# Arguments above this take the log form. Its Newton steps settle at
# the rounding of ln x, about 1e-13, so the loop ends at a step below
# 1e-14 of w (about 7e-12).
_LOG_FORM_ABOVE = 1e300
_LOG_STEP_RTOL = 1e-14


def _initial_guess(x: float) -> float:
    if x < -0.3:
        # Series around the branch point in p = sqrt(2 (e x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3
    if x < 0.5:
        # Maclaurin series w = x - x^2 + 1.5 x^3 + ...
        return x * (1.0 - x * (1.0 - 1.5 * x))
    if x < 7.389:
        return math.log1p(x)
    l1 = math.log(x)
    l2 = math.log(l1)
    return l1 - l2 + l2 / l1


def lambert_w0(x: float) -> float:
    """Real principal-branch Lambert W.

    Raises LambertDomainError for x < -1/e (beyond the snap window) and
    ConvergenceError if Halley iteration fails to settle, which does not
    happen for finite in-domain arguments.
    """
    x = float(x)
    if math.isnan(x):
        raise LambertDomainError("lambert_w0 is undefined for NaN")
    if x < BRANCH_POINT_ARG:
        if x >= BRANCH_POINT_ARG - _SNAP_BELOW:
            return -1.0
        raise LambertDomainError(
            f"lambert_w0 argument {x!r} below -1/e = {BRANCH_POINT_ARG!r}"
        )
    if x == BRANCH_POINT_ARG:
        return -1.0
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.inf

    w = _initial_guess(x)
    if x > _LOG_FORM_ABOVE:
        log_x = math.log(x)
        for _ in range(_MAX_ITER):
            dw = (w + math.log(w) - log_x) * w / (w + 1.0)
            w -= dw
            if abs(dw) <= _LOG_STEP_RTOL * w:
                return w
        raise ConvergenceError(f"lambert_w0 failed to converge for x = {x!r}")

    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        # Halley update; the second-order term keeps convergence cubic.
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= _STEP_TOL * (2.0 + abs(w)):
            return w

    # The step never fell below tolerance; accept only if the residual
    # is already at target accuracy.
    if abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x)):
        return w
    raise ConvergenceError(f"lambert_w0 failed to converge for x = {x!r}")
