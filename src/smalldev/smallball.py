"""Small-ball probability estimation and the exact L2-norm distribution.

Monte Carlo estimates use common random numbers across the radius list, so
hit counts are monotone in r by construction, and report Wilson 95%
intervals.  The squared L2 norm of the periodic process is a weighted sum
of chi-squares, h_j-fold lambda_j Z^2.  One chi-square is an erf; other
sums are inverted on the parabola z(u) = s0 + mu ((1 + i u)^2 - 1), u >= 0
(Weideman and Trefethen 2007), through a real saddle s0 of g(z) = x z
- log z - (1/2) sum_j h_j log(1 + 2 lambda_j z), with mu the distance from
s0 to the nearest singularity.  The mass is exp(log_scale) times
int_0^inf Re f du, f(u) = (1 + i u) exp(x mu eta) prod_j (1 + b_j eta)^(-h_j/2)
with eta = u (2i - u), b_0 = mu / s0 for the pole at 0 (h_0 = 2) and
b_j = 2 lambda_j mu / (1 + 2 lambda_j s0) <= 1.  So f(0) = 1, |f| decays
like exp(-x mu u^2), and no power of s0 is formed.  Trapezoid passes stop
on a tail bound that holds for every u beyond them.  Where p > 1/2, the
saddle in (-1/(2 lambda_1), 0) gives Q = 1 - p, and log p = log1p(-Q).
r^2 must be a normal float (1.5e-154 <= r < 1.3e154).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, erfc, erfcx, expit

from . import pathgen, spectra
from .curves import BoundCurve
from .errors import NumericFailure, PreconditionError

#: 97.5% standard normal quantile for Wilson intervals
_Z95 = 1.959963984540054

#: contour passes refine until two agree to _INV_RTOL; a pass adds _CHUNK
#: integrand points at a time until its tail bound is _TAIL_RTOL of its sum
_INV_RTOL, _TAIL_RTOL, _CHUNK = 1e-10, 1e-13, 64

#: a contour as the module docstring writes it, cx = x mu, the pole first
_Parabola = namedtuple("_Parabola", "s0 cx b h log_scale")

#: what an exact-L2 value took: `method` is "erf", "parabola" or
#: "parabola-complement", `tail_share` the last pass's tail bound over its sum
_Inversion = namedtuple("_Inversion", "log_p s0 refinements points method tail_share")


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
    if not np.all(r_arr > 0):
        raise PreconditionError("radii must be positive")
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
            seed=seed, grid_points=grid.n_points))
    return out


@dataclass(frozen=True)
class WeightedChiSquareSpec:
    """Weights of the quadratic form sum_j lambda_j Z_j^2.

    weights[j] with multiplicity mults[j]; the periodic-process L2 norm
    squared has lambda_0 = 1 (multiplicity 1) and the atom masses
    lambda_k = exp(-k^nu) with multiplicity 2 for k = 1..K.
    """

    weights: tuple
    mults: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        if len(w) == 0 or not np.all(w > 0):
            raise PreconditionError("weights must be positive and nonempty")
        if np.any(np.diff(w) > 0):
            raise PreconditionError("weights must be sorted descending")
        if len(self.mults) != len(w) or np.any(np.asarray(self.mults) <= 0):
            raise PreconditionError("mults must be positive and align with weights")

    @classmethod
    def periodic(cls, nu: float, K: int) -> "WeightedChiSquareSpec":
        w = np.exp(spectra.discrete_log_masses(nu, K))
        return cls(tuple(w.tolist()), (1,) + (2,) * K)


def _parabola(w: np.ndarray, h: np.ndarray, x: float) -> _Parabola:
    """Contour for p through the saddle s0 > 0, mu = s0.  t = log s0 solves
    s0 g'(s0) = x s0 - 1 - sum_j h_j b_j / 2 = 0, b_j = expit(log(2 lambda_j)
    + t), within 1 <= x s0 <= 1 + sum_j h_j / 2; s0 is formed only for the
    record (inf past 1e308).  Weights whose b_j underflows to 0 drop out."""
    lx, la = math.log(x), np.log(2.0 * w)
    t = brentq(lambda t: math.exp(lx + t) - 1.0 - 0.5 * float(h @ expit(la + t)),
               -lx, math.log(2.0 + 0.5 * float(np.sum(h))) - lx,
               xtol=1e-300, rtol=8.9e-16)
    cx, la = math.exp(lx + t), la + t
    b = expit(la)
    log_scale = cx - 0.5 * float(h @ np.logaddexp(0.0, la)) + math.log(2.0 / math.pi)
    return _Parabola(cx / x, cx, np.append(1.0, b[b > 0]),
                     np.append(2.0, h[b > 0]), log_scale)


def _complement_parabola(w: np.ndarray, h: np.ndarray, x: float) -> _Parabola:
    """Contour for Q = 1 - p through the saddle s0 in (-1/(2 lambda_1), 0),
    solved for d = s0 + 1/(2 lambda_1) so that 1 + 2 lambda_j s0 keeps its
    relative accuracy as d -> 0.  g' < 0 at the bracket's lower end by its
    j = 1 term, > 0 at its upper end, where each 1 + 2 lambda_j s0 >= 1/2."""
    lam = float(w[0])
    half, gap = 0.5 / lam, (lam - w) / lam  # 1 + 2 lambda_j s0 = 2 lambda_j d + gap_j
    d = brentq(lambda d: x + 1.0 / (half - d) - float(h @ (w / (2.0 * w * d + gap))),
               min(0.5 * half, 0.25 * h[0] / (x + 4.0 * lam)),
               half - 0.25 / float(h @ w), xtol=1e-300, rtol=8.9e-16)
    s0, mu, one = d - half, min(d, half - d), 2.0 * w * d + gap
    b = 2.0 * mu * w / one
    log_scale = (x * s0 - math.log(-s0) - 0.5 * float(h @ np.log(one))
                 + math.log(2.0 * mu / math.pi))
    return _Parabola(s0, x * mu, np.append(mu / s0, b[b > 0]),
                     np.append(2.0, h[b > 0]), log_scale)


def _log_mod2(b, v):
    """log |1 + b eta|^2 at u^2 = v, that is log((1 - b v)^2 + 4 b^2 v)."""
    return np.log1p(b * v * (b * (4.0 + v) - 2.0))


def _log_min_mod2(b: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """log of the minimum of |1 + b eta|^2 over lo <= u^2 <= hi.  It is
    convex in u^2, with vertex 4 b (1 - b) at u^2 = (1 - 2 b) / b."""
    out = _log_mod2(b, lo)
    inside = b * lo < 1.0 - 2.0 * b
    out[inside] = np.log(4.0 * b[inside]) + np.log1p(-b[inside])
    beyond = b * hi < 1.0 - 2.0 * b
    out[beyond] = _log_mod2(b[beyond], hi)
    return out


def _integrand(par: _Parabola, u: np.ndarray) -> np.ndarray:
    """f(u) at every u of a 1-d array, from log |1 + b_j eta| and
    arg(1 + b_j eta), which is continuous in [-pi/2, pi) along u >= 0."""
    v, bu = u * u, par.b[:, None] * u
    re = -par.cx * v - 0.25 * (par.h @ _log_mod2(par.b[:, None], v))
    im = 2.0 * par.cx * u - 0.5 * (par.h @ np.arctan2(2.0 * bu, 1.0 - bu * u))
    return (1.0 + 1j * u) * np.exp(re + 1j * im)


def _log_tail(par: _Parabola, u_hi: float, step: float) -> float:
    """log of a bound on sum_{k >= 1} |f(u_hi + k step)|.  On lo <= u <= top,
    |f(u)| <= exp(-cx u^2) prod_{j >= 1} m_j^(-h_j / 2) / (min(1, |b_0|)
    sqrt(1 + lo^2)), m_j^2 the minimum of |1 + b_j eta|^2 there.  The
    Gaussian's lattice sum beyond lo is at most its integral over the step.
    The range is split where the Gaussian has absorbed the minima over all
    u >= u_hi, so tiny b_j, whose vertices lie far out, spare the near part.
    """
    b, h, cx = par.b[1:], par.h[1:], par.cx

    def piece(lo, top):
        y = math.sqrt(cx) * lo
        return (-math.log(min(1.0, abs(par.b[0]))) - 0.5 * math.log1p(lo * lo)
                - 0.25 * float(h @ _log_min_mod2(b, lo * lo, top * top)) - y * y
                + math.log(0.5 * math.sqrt(math.pi / cx) * erfcx(y) / step))

    far = -0.25 * float(h @ _log_min_mod2(b, u_hi * u_hi, math.inf))
    u_mid = u_hi + step * math.ceil(
        (math.sqrt(u_hi * u_hi + max(far, 0.0) / cx) - u_hi) / step)
    return float(np.logaddexp(piece(u_hi, u_mid), piece(u_mid, math.inf)))


def _invert(par: _Parabola) -> tuple[float, int, int, float]:
    """log of the mass, step halvings, integrand points and tail share.  A
    trapezoid pass sums Re f by _CHUNK points until its tail bound is below
    _TAIL_RTOL of the sum; steps halve from 0.5 / sqrt(x mu) until two
    passes agree to _INV_RTOL."""
    step, prev, points = 1.0 / math.sqrt(par.cx), math.nan, 0
    for refinements in range(41):
        step /= 2.0
        total, n, tail = 0.5, 0, math.inf  # f(0) = 1 at half weight
        while tail >= _TAIL_RTOL * abs(total):
            u = step * np.arange(n + 1, n + _CHUNK + 1)
            total += float(np.sum(_integrand(par, u).real))
            n += _CHUNK
            if not math.isfinite(total):
                raise NumericFailure("contour integrand is not finite")
            tail = math.exp(min(_log_tail(par, u[-1], step), 700.0))
        points += n
        if abs(total * step - prev) <= _INV_RTOL * abs(total * step):
            if total <= 0:
                raise NumericFailure("contour inversion returned nonpositive mass")
            return (par.log_scale + math.log(total * step), refinements,
                    points, tail / abs(total))
        prev = total * step
    raise NumericFailure("contour inversion did not reach tolerance")


def _log_cdf_contour(w: np.ndarray, h: np.ndarray, x: float) -> _Inversion:
    """log P(sum h_j-fold lambda_j chi-squares <= x) as an `_Inversion`; past
    p = 1/2 the contour passes the pole at 0, of residue 1, to give 1 - p."""
    par = _parabola(w, h, x)
    log_p, refinements, points, share = _invert(par)
    if log_p <= -math.log(2.0):
        return _Inversion(log_p, par.s0, refinements, points, "parabola", share)
    par = _complement_parabola(w, h, x)
    log_q, refinements, more, share = _invert(par)
    return _Inversion(math.log1p(-math.exp(log_q)), par.s0, refinements,
                      points + more, "parabola-complement", share)


def _log_exact_l2(spec: WeightedChiSquareSpec, r: float) -> _Inversion:
    """`log_exact_l2` with the work behind it."""
    if not r > 0:
        raise PreconditionError("r must be positive")
    x = float(r) * float(r)
    if not np.finfo(float).tiny <= x < math.inf:
        raise NumericFailure(f"r = {r:g}: r^2 is not a normal float")
    w, h = np.asarray(spec.weights, float), np.asarray(spec.mults, float)
    if len(w) > 1 or h[0] != 1:
        return _log_cdf_contour(w, h, x)
    y = math.sqrt(x / (2.0 * w[0]))  # one chi-square: p = erf(y)
    p = erf(y)
    log_p = math.log(p) if p <= 0.5 else math.log1p(-erfc(y))
    return _Inversion(log_p, math.nan, 0, 0, "erf", math.nan)


def log_exact_l2(spec: WeightedChiSquareSpec, r: float) -> float:
    """log P(sum lambda_j Z_j^2 <= r^2), exact up to quadrature tolerance."""
    return _log_exact_l2(spec, r).log_p


def exact_l2(spec: WeightedChiSquareSpec, r: float) -> float:
    """P(sum lambda_j Z_j^2 <= r^2)."""
    return math.exp(log_exact_l2(spec, r))


def phi_l2_curve(nu: float, K: int, r_list) -> BoundCurve:
    """phi(r) = -log P(L2 norm <= r) for the periodic process, exact.
    `extra` carries, per r, `s0`, `refinements`, `points`, `method` and
    `tail_share` as `_Inversion` defines them."""
    spec = WeightedChiSquareSpec.periodic(nu, K)
    r_arr = np.asarray(list(r_list), float)
    rows = [_log_exact_l2(spec, r) for r in r_arr]
    extra = {key: np.array([getattr(row, key) for row in rows])
             for key in _Inversion._fields}
    phi = -extra.pop("log_p")
    with np.errstate(divide="ignore"):
        ratio = phi / np.log(r_arr) ** 2  # infinite at r = 1 by convention
    return BoundCurve(x=r_arr, lower=phi, upper=phi, label="l2-exact",
                      extra={"nu": nu, "K": K, "phi_over_log2": ratio, **extra})
