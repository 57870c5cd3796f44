"""Small-ball probability estimation and the exact L2-norm distribution.

Monte Carlo estimates use common random numbers across the radius list, so
hit counts are monotone in r by construction, and report Wilson 95%
intervals.  The squared L2 norm of the periodic process is a weighted sum
of independent chi-square variables; its CDF is computed exactly by
saddle-point contour inversion of the Laplace transform, in the log domain
so deep tails remain representable.

Each trapezoid pass along the contour evaluates the integrand f in chunks
that double from 64 points to blocks of 4096, and stops on a tail bound
that holds wherever it is taken: by weighted AM-GM on each factor,
|f(t)| <= |f(t_hi)| (t_hi / t)^p_eff for t >= t_hi, so once p_eff > 1 the
rest of the sum is at most |f(t_hi)| t_hi / ((p_eff - 1) step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import dawsn, erf

from . import pathgen
from .curves import BoundCurve
from .errors import NumericFailure, PreconditionError

#: 97.5% standard normal quantile for Wilson intervals
_Z95 = 1.959963984540054

#: relative tolerance of the contour inversion refinement
_INV_RTOL = 1e-10

#: a trapezoid pass stops once its tail is bounded by this share of its sum
_TAIL_RTOL = 1e-13

#: integrand points in the first chunk of a trapezoid pass, and in the
#: blocks that are summed as one array once the points reach it
_FIRST_CHUNK = 64
_BLOCK = 4096

#: integrand points one trapezoid pass may evaluate before giving up
_MAX_POINTS = 1 << 24


@dataclass(frozen=True)
class SmallBallEstimate:
    r: float
    norm: str
    n_samples: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    phi_hat: float
    phi_lo: float
    phi_hi: float
    seed: int
    grid_points: int
    config: dict


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise PreconditionError("n must be positive")
    p, z = hits / n, _Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(center - half, 0.0), min(center + half, 1.0)


def estimate(cfg: pathgen.PeriodicGenConfig, grid: pathgen.GridSpec, norm: str,
             r_list, n_samples: int, seed: int) -> list[SmallBallEstimate]:
    """Monte Carlo small-ball estimates on common random numbers.

    One batch of paths serves every radius, so p_hat is nondecreasing in r
    exactly, not just statistically.
    """
    if n_samples < 100:
        raise PreconditionError("n_samples must be >= 100")
    r_arr = np.asarray(list(r_list), dtype=float)
    if np.any(r_arr <= 0):
        raise PreconditionError("radii must be positive")
    cfg_desc = {"kind": "periodic", "nu": cfg.nu, "K": cfg.K}
    norms = pathgen.batch_norms(cfg.amplitudes(), grid, seed, n_samples, norm)
    out = []
    for r in r_arr:
        hits = int(np.count_nonzero(norms <= r))
        p = hits / n_samples
        lo, hi = wilson_interval(hits, n_samples)
        phi = -math.log(p) if hits > 0 else math.inf
        phi_lo = -math.log(hi)
        phi_hi = -math.log(lo) if lo > 0 else math.inf
        out.append(SmallBallEstimate(
            r=float(r), norm=norm, n_samples=n_samples, hits=hits, p_hat=p,
            ci_low=lo, ci_high=hi, phi_hat=phi, phi_lo=phi_lo, phi_hi=phi_hi,
            seed=seed, grid_points=grid.n_points, config=cfg_desc,
        ))
    return out


@dataclass(frozen=True)
class WeightedChiSquareSpec:
    """Weights of the quadratic form sum_j lambda_j Z_j^2.

    weights[j] with multiplicity mults[j]; the periodic-process L2 norm
    squared has lambda_0 = 1 (multiplicity 1) and lambda_k = exp(-k^nu)
    with multiplicity 2 for k = 1..K.
    """

    weights: tuple
    mults: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        if len(w) == 0 or np.any(w <= 0):
            raise PreconditionError("weights must be positive and nonempty")
        if np.any(np.diff(w) > 0):
            raise PreconditionError("weights must be sorted descending")
        if len(self.mults) != len(w):
            raise PreconditionError("weights and mults must align")

    @classmethod
    def periodic(cls, nu: float, K: int) -> "WeightedChiSquareSpec":
        w = [1.0] + [math.exp(-k ** nu) for k in range(1, K + 1)]
        m = [1] + [2] * K
        return cls(tuple(w), tuple(m))


def _saddle(w: np.ndarray, h: np.ndarray,
            x: float) -> tuple[float, float, float]:
    """Real saddle s0 of g(z) = x z - log z
    - (1/2) sum h_j log(1 + 2 lambda_j z), with g(s0) and g''(s0)."""

    def gprime(s):
        return x - 1.0 / s - np.sum(h * w / (1.0 + 2.0 * w * s))

    hi = 1.0
    while gprime(hi) < 0.0:
        hi *= 4.0
        if hi > 1e300:
            raise NumericFailure("saddle search diverged")
    s0 = brentq(gprime, 1e-300, hi, rtol=8.9e-16)
    g0 = x * s0 - math.log(s0) - 0.5 * float(np.sum(h * np.log1p(2.0 * w * s0)))
    gpp = 1.0 / s0 ** 2 + float(np.sum(2.0 * h * w ** 2 / (1.0 + 2.0 * w * s0) ** 2))
    return s0, g0, gpp


def _integrand(w: np.ndarray, h: np.ndarray, x: float, s0: float, g0: float,
               t: np.ndarray) -> np.ndarray:
    """Bromwich integrand exp(g(s0 + i t) - g0) at every t of a 1-d array."""
    z = s0 + 1j * t
    gz = x * z - np.log(z) - 0.5 * np.sum(
        h[:, None] * np.log1p(2.0 * w[:, None] * z[None, :]), axis=0
    )
    return np.exp(gz - g0)


def _tail_bound(w: np.ndarray, h: np.ndarray, s0: float, t_hi: float,
                mag: float, step: float) -> float:
    """Bound on sum_{k >= 1} |f(t_hi + k step)| from mag = |f(t_hi)|; inf
    unless the decay exponent p_eff exceeds 1.

    |f(t)|^-2 is proportional to |z|^2 prod_j |1 + 2 lambda_j z|^h_j with
    z = s0 + i t.  Each squared modulus A + B t^2 is at least
    (A + B t_hi^2) (t / t_hi)^(2 q) for t >= t_hi, with
    q = B t_hi^2 / (A + B t_hi^2), by weighted AM-GM.  So
    |f(t)| <= mag (t_hi / t)^p_eff with p_eff = q_0 + (1/2) sum_j h_j q_j,
    and since |f| decreases the sum is at most mag t_hi / ((p_eff - 1) step).
    """
    b = 2.0 * w * t_hi
    q = (b / np.hypot(1.0 + 2.0 * w * s0, b)) ** 2
    p_eff = (t_hi / math.hypot(s0, t_hi)) ** 2 + 0.5 * float(np.sum(h * q))
    if p_eff <= 1.0:
        return math.inf
    return mag * t_hi / ((p_eff - 1.0) * step)


def _trapezoid(w: np.ndarray, h: np.ndarray, x: float, s0: float, g0: float,
               step: float) -> tuple[float, int]:
    """(1/pi) times the trapezoid sum of Re f over t >= 0 at this step, and
    the number of points of t > 0 it evaluated.

    The points evaluated so far double, from _FIRST_CHUNK up to blocks of
    _BLOCK, until `_tail_bound` is below _TAIL_RTOL of the sum.  Each block
    is summed as one zero-padded array from its own base t, so the points
    kept are added as a single _BLOCK-point chunk would add them.
    """
    done = 0.5  # t = 0 contributes exp(0) = 1, half weight
    t_base, n = 0.0, 0
    re = np.zeros(_BLOCK)
    while True:
        m = n % _BLOCK
        chunk = min(max(n, _FIRST_CHUNK), _BLOCK - m)
        t = t_base + step * np.arange(m + 1, m + chunk + 1)
        vals = _integrand(w, h, x, s0, g0, t)
        re[m:m + chunk] = vals.real
        n += chunk
        total = done + float(np.sum(re))
        tail = _tail_bound(w, h, s0, t[-1], abs(vals[-1]), step)
        if tail < _TAIL_RTOL * abs(total) + 1e-300:
            return total * step / math.pi, n
        if n >= _MAX_POINTS:
            raise NumericFailure("contour truncation did not converge")
        if m + chunk == _BLOCK:
            done, t_base = total, t[-1]
            re[:] = 0.0


def _log_cdf_contour(w: np.ndarray, h: np.ndarray,
                     x: float) -> tuple[float, float, int, int]:
    """log P(sum h_j-fold lambda_j chi-squares <= x) by saddle-point contour,
    with the saddle s0, the number of step halvings and the integrand points
    evaluated.

    The Bromwich integrand exp(g(z)) is integrated along the vertical line
    through the real saddle; trapezoid steps are halved until two
    refinements agree to _INV_RTOL.
    """
    s0, g0, gpp = _saddle(w, h, x)
    step = 0.5 / math.sqrt(gpp)
    prev, points = _trapezoid(w, h, x, s0, g0, step)
    for refinements in range(1, 41):
        step /= 2.0
        cur, n = _trapezoid(w, h, x, s0, g0, step)
        points += n
        if abs(cur - prev) <= _INV_RTOL * abs(cur):
            if cur <= 0:
                raise NumericFailure("contour inversion returned nonpositive mass")
            return g0 + math.log(cur), s0, refinements, points
        prev = cur
    raise NumericFailure("contour inversion did not reach tolerance")


def _log_exact_l2(spec: WeightedChiSquareSpec,
                  r: float) -> tuple[float, float, int, int]:
    """`log_exact_l2` with the contour's s0, refinements and points (NaN, 0
    and 0 when a closed form gave the value)."""
    if r <= 0:
        raise PreconditionError("r must be positive")
    w = np.asarray(spec.weights, float)
    h = np.asarray(spec.mults, float)
    x = r * r
    if len(w) == 1 and h[0] == 1:
        # single chi-square: P(Z^2 <= x/lambda) = erf(sqrt(x/(2 lambda)))
        return math.log(erf(math.sqrt(x / (2.0 * w[0])))), math.nan, 0, 0
    if len(w) == 2 and h[0] == 1 and h[1] == 2:
        # chi^2_1 + lambda chi^2_2 in closed form via Dawson's integral
        lam = w[1] / w[0]
        y = x / w[0]
        a = 1.0 / (2.0 * lam) - 0.5
        base = erf(math.sqrt(y / 2.0))
        corr = math.sqrt(2.0 / (math.pi * a)) * math.exp(-y / 2.0) \
            * dawsn(math.sqrt(a * y))
        val = base - corr
        if val > 1e-280:
            return math.log(val), math.nan, 0, 0
        # fall through to the contour in the extreme tail
    return _log_cdf_contour(w, h, x)


def log_exact_l2(spec: WeightedChiSquareSpec, r: float) -> float:
    """log P(sum lambda_j Z_j^2 <= r^2), exact up to quadrature tolerance."""
    return _log_exact_l2(spec, r)[0]


def exact_l2(spec: WeightedChiSquareSpec, r: float) -> float:
    """P(sum lambda_j Z_j^2 <= r^2)."""
    return math.exp(log_exact_l2(spec, r))


def phi_l2_curve(nu: float, K: int, r_list) -> BoundCurve:
    """phi(r) = -log P(L2 norm <= r) for the periodic process, exact.

    `extra` carries, per r, the contour's saddle `s0`, its step
    `refinements` and the integrand `points` it evaluated.
    """
    spec = WeightedChiSquareSpec.periodic(nu, K)
    r_arr = np.asarray(list(r_list), float)
    rows = [_log_exact_l2(spec, r) for r in r_arr]
    log_p, s0, refinements, points = (np.array([row[i] for row in rows])
                                      for i in range(4))
    phi = -log_p
    with np.errstate(divide="ignore"):
        ratio = phi / np.log(r_arr) ** 2  # infinite at r = 1 by convention
    return BoundCurve(x=r_arr, lower=phi, upper=phi, label="l2-exact",
                      extra={"nu": nu, "K": K, "phi_over_log2": ratio,
                             "s0": s0, "refinements": refinements,
                             "points": points})
