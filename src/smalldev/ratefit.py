"""Rate-template fitting and the reference curves for the slowly decaying
spectral family.

The template is phi(r) = A |log r|^gamma (log |log r|)^beta, fitted by
least squares in the log domain.  Fits refuse ranges where |log r| varies
by less than a factor of two (the regressors are then nearly collinear).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import BoundCurve
from .errors import CapacityError, PreconditionError

#: minimal ratio of max to min |log r| for a trustworthy fit
_MIN_LOGLOG_SPAN = 2.0

#: log of the largest float
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class RateFitResult:
    A: float | None
    gamma: float | None
    beta: float | None
    rss: float | None
    n_points: int
    r_min: float
    r_max: float
    mode: str
    refused: bool = False
    reason: str = ""


def _refusal(points, mode, reason) -> RateFitResult:
    r = [p[0] for p in points]
    return RateFitResult(A=None, gamma=None, beta=None, rss=None,
                         n_points=len(points), r_min=min(r), r_max=max(r),
                         mode=mode, refused=True, reason=reason)


def fit(points, beta_mode="free") -> RateFitResult:
    """Least squares of log phi on log |log r| and log log |log r|.

    beta_mode is "free" or ("fixed", value); fixing beta removes the second
    regressor and absorbs the fixed term into the response.
    """
    points = list(points)
    if not points:
        raise PreconditionError("no points to fit")
    if beta_mode == "free":
        mode, beta_fixed = "free", None
    else:
        tag, beta_fixed = beta_mode
        if tag != "fixed":
            raise PreconditionError(f"unknown beta_mode {beta_mode!r}")
        if not math.isfinite(beta_fixed):
            raise PreconditionError(f"fixed beta must be finite, got {beta_fixed}")
        mode = f"fixed({beta_fixed})"
    for r, phi in points:
        if not 0 < r < math.exp(-math.e):
            raise PreconditionError(
                "radii must lie in (0, e^-e) so log|log r| exceeds 1"
            )
        if not 0 < phi < math.inf:  # NaN fails too
            raise PreconditionError("phi values must be positive and finite")
    need = 3 if beta_fixed is None else 2
    if len(points) < need:
        return _refusal(points, mode, f"need at least {need} points")
    r = np.array([p[0] for p in points])
    phi = np.array([p[1] for p in points])
    L = np.abs(np.log(r))
    if L.max() / L.min() < _MIN_LOGLOG_SPAN:
        return _refusal(points, mode,
                        "|log r| must span at least a factor of 2")
    y = np.log(phi)
    x1 = np.log(L)
    x2 = np.log(np.log(L))
    # a large fixed beta takes the response, the coefficients or the
    # residuals past the float range: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if beta_fixed is None:
            X = np.column_stack([np.ones_like(x1), x1, x2])
        else:
            X = np.column_stack([np.ones_like(x1), x1])
            y = y - beta_fixed * x2
        coef, res, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        rss = float(np.sum((X @ coef - y) ** 2))
        A = float(np.exp(coef[0]))
    if rank < X.shape[1]:
        return _refusal(points, mode, "collinear regressors")
    if not (0 < A < math.inf and rss < math.inf):  # NaN fails too
        raise CapacityError(f"the fit at {mode} is past the float range: "
                            f"A = {A:.3g}, rss = {rss:.3g}")
    beta = float(coef[2]) if beta_fixed is None else float(beta_fixed)
    return RateFitResult(A=A, gamma=float(coef[1]),
                         beta=beta, rss=rss, n_points=len(points),
                         r_min=float(r.min()), r_max=float(r.max()),
                         mode=mode)


def open_problem_curves(alpha: float, r_list) -> tuple[BoundCurve, BoundCurve]:
    """Two-sided reference bounds for the slowly decaying spectral family.

    lower:  |log r|^{(a-1)/a} exp{(2 |log r|)^{1/a}}
    upper:  |log r| exp{(2 |log r|)^{1/a} + (5/a) |log r|^{2/a - 1}}

    A curve past the float range at some radius is a CapacityError.
    """
    if not 1 < alpha < math.inf:
        raise PreconditionError("alpha must exceed 1 and be finite")
    r = np.asarray(list(r_list), float)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise PreconditionError("radii must lie in (0, 1)")
    L = np.abs(np.log(r))
    core = (2.0 * L) ** (1.0 / alpha)
    extra = (5.0 / alpha) * L ** (2.0 / alpha - 1.0)
    # each shape's log first: exp of a log past the float range is inf
    log_low = ((alpha - 1.0) / alpha) * np.log(L) + core
    log_up = np.log(L) + core + extra
    if np.any(log_low > _LOG_MAX) or np.any(log_up > _LOG_MAX):
        raise CapacityError(f"reference curves at alpha {alpha} and r = "
                            f"{np.min(r):.3g} are past the float range")
    low = L ** ((alpha - 1.0) / alpha) * np.exp(core)
    up = L * np.exp(core + extra)
    lower = BoundCurve(x=r, lower=low, upper=None,
                       label="slow-family-lower", extra={"alpha": alpha})
    upper = BoundCurve(x=r, lower=None, upper=up,
                       label="slow-family-upper", extra={"alpha": alpha})
    return lower, upper
