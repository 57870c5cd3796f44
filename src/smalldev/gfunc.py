"""The auxiliary infinite product G(t) = prod_k sinc(a_k t) with
a_k = c k^{-1-gamma} and c = 1/zeta(1+gamma), so that sum a_k = 1.

Evaluation is log-domain: factors up to a depth D are multiplied
explicitly, and the rest through the series

    log(sin x / x) = -sum_{n>=1} zeta(2n) x^{2n} / (n pi^{2n}),  |x| < pi,

whose terms all have one sign.  Beyond D every factor has x = a_k t <= 1,
so the first N = `_SERIES_TERMS` terms of the tail are summed exactly as
Hurwitz-zeta sums, and the rest is bounded by the (N+1)-th term times
1 / (1 - (a_{D+1} t / pi)^2); D doubles until that bound is below 1e-12,
up to MAX_DEPTH.
The zeta sums are taken in the scaled form (a_{D+1} t)^{2n} (D+1)^s
zeta(s, D+1), so no power of t can overflow.  Small t costs almost
nothing, and t = 1e4 needs D <= 1024 for gamma >= 0.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import zeta

from .errors import CapacityError, PreconditionError

#: absolute log-scale error allowed from the truncated product tail
_TAIL_TOL = 1e-12

#: largest explicit depth D; a |t| that needs more is a CapacityError
MAX_DEPTH = 2_000_000

#: start of the window [FIT_T_MIN, t_max] of the certified decay
FIT_T_MIN = 10.0

#: N, the log-sinc series terms summed exactly over the tail
_SERIES_TERMS = 10

#: zeta(2n) / (n pi^{2n}) for n = 1..N+1: the log-sinc series coefficients
_SERIES_COEF = np.array([float(zeta(2.0 * n, 1.0)) / (n * math.pi ** (2 * n))
                         for n in range(1, _SERIES_TERMS + 2)])


@dataclass(frozen=True)
class GFunctionSpec:
    gamma: float

    def __post_init__(self):
        if not (0 < self.gamma < 1 and 1.0 + self.gamma > 1.0):  # zeta(1 + gamma) finite
            raise PreconditionError("gamma must be in (0, 1), with 1 + gamma > 1 in floats")

    @cached_property
    def c(self) -> float:
        return 1.0 / float(zeta(1.0 + self.gamma, 1.0))

    def a(self, k) -> np.ndarray:
        return self.c * np.asarray(k, float) ** (-1.0 - self.gamma)

    def _tail_coef(self, D: int) -> np.ndarray:
        """b_n, n = 1..N+1, with sum_{k>D} of the n-th log-sinc series term
        at x = a_k t equal to b_n (a_{D+1} t)^{2n}: the series coefficient
        times (D+1)^s zeta(s, D+1), s = 2n(1+gamma)."""
        s = 2.0 * (1.0 + self.gamma) * np.arange(1, _SERIES_TERMS + 2)
        q = D + 1.0
        return _SERIES_COEF * q ** s * zeta(s, q)

    def _tail_bound(self, D: int, t) -> np.ndarray:
        """Bound on the error of the N-term tail series beyond depth D at
        |t|, valid where x = a_{D+1} |t| <= 1.  Each factor's series terms
        shrink by at least (x / pi)^2 per step in n, so the (N+1)-th term
        sets a geometric bound."""
        x = float(self.a(D + 1)) * np.abs(t)
        return self._tail_coef(D)[-1] * x ** (2 * _SERIES_TERMS + 2) \
            / (1.0 - (x / math.pi) ** 2)

    def depth_needed(self, tmax: float) -> int:
        D = 16
        # beyond depth D: need a_{D+1} t <= 1 so the log-sinc series
        # converges factorwise, and the remainder below tolerance; a bound
        # that overflows to inf or nan at a huge depth fails the test
        while float(self.a(D + 1)) * tmax > 1.0 or not self._tail_bound(D, tmax) <= _TAIL_TOL:
            D *= 2
            if D > MAX_DEPTH:
                raise CapacityError(
                    f"depth cap {MAX_DEPTH} cannot certify |t| = {tmax:.4g}"
                )
        return D


def log_abs_g(spec: GFunctionSpec, t) -> np.ndarray:
    """log |G(t)| elementwise; -inf at zeros of the product.

    Each chunk of 64 points multiplies D = depth_needed(max |t|) factors
    and sums the N-term zeta series of the rest."""
    t = np.atleast_1d(np.asarray(t, float))
    if not np.all(np.isfinite(t)):
        raise PreconditionError("t must be finite")
    out = np.empty(len(t))
    for s in range(0, len(t), 64):  # chunked so the (t, k) matrix stays small
        tc = np.abs(t[s : s + 64])
        D = spec.depth_needed(float(np.max(tc)))
        x = tc[:, None] * spec.a(np.arange(1, D + 1))[None, :]
        # log |sin x / x| in one buffer; x = 0 (t = 0) gives nan, set to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.sin(x)
            np.divide(logs, x, out=logs)
            np.abs(logs, out=logs)
            np.log(logs, out=logs)
        logs[x == 0.0] = 0.0
        # tail sum_n b_n y^{2n}, y = a_{D+1} t, by Horner in y^2
        y2 = (float(spec.a(D + 1)) * tc) ** 2
        tail = np.zeros_like(y2)
        for b in spec._tail_coef(D)[-2::-1]:
            tail = (tail + b) * y2
        out[s : s + 64] = np.sum(logs, axis=1) - tail
    return out


@dataclass(frozen=True)
class GCertificate:
    spec: GFunctionSpec
    theta_G: float
    #: always true: every factor of G is a sinc, so |G| <= 1
    bounded_by_one: bool
    #: log |G(t)| <= -C_G t^decay_exponent for t in fit_t_range
    C_G: float
    decay_exponent: float
    fit_t_range: tuple
    #: the depth D that log_abs_g needs at t_max
    max_depth: int


def g_certify(spec: GFunctionSpec, t_max: float = 1e4) -> GCertificate:
    """Certify the working properties of G.

    * theta_G = inf |G| over [0, 1] = |G(1)|, as there every a_k t <= c
      < pi, so every factor is positive and decreasing: exp(log_abs_g(1)
      - _TAIL_TOL - 4 eps (D + 1)), D the depth at t = 1.  The omitted tail
      terms are all negative, so the log overestimates by at most
      _TAIL_TOL; 4 eps (D + 1) allows for rounding, 2 eps per log-sinc
      term (sin, quotient, log) and as much again in the sums;
    * |G| <= 1 everywhere, as every factor is a sinc (`bounded_by_one`);
    * decay: log |G(t)| <= -C_G t^p on [FIT_T_MIN, t_max], p = 1/(1+gamma).
      With k0(t) the least k with a_k t <= pi, every factor from k0 on has
      log(sin x / x) <= -x^2/6, the first series term, and every earlier
      one |sinc| <= 1: log |G(t)| <= -(c t)^2 zeta(2 + 2 gamma, k0(t)) / 6.
      On (pi/a_{k-1}, pi/a_k], where k0 = k (a_0 = inf), that over -t^p is
      c^2 zeta(2 + 2 gamma, k) t^(2-p) / 6, growing in t as p < 1.  C_G is
      its least value at the left ends clipped to the window, less 256 eps
      of it for rounding (a few ulps in zeta, c^2 and the products, eps ln t
      in each power).  k runs from the floor of the float estimate of k0 at
      FIT_T_MIN to one past its ceiling at t_max, so rounding drops none.

    Needs a finite t_max above FIT_T_MIN.
    """
    if not FIT_T_MIN < t_max < math.inf:
        raise PreconditionError(
            f"t_max must be finite and above FIT_T_MIN = {FIT_T_MIN:g}, got {t_max}")
    # the depth that log |G| needs at t_max: a t_max past MAX_DEPTH is a
    # CapacityError, and a_{D+1} t_max <= 1 gives k0(t_max) <= D + 1
    max_depth = spec.depth_needed(t_max)
    eps = np.finfo(float).eps
    rounding = 4.0 * eps * (spec.depth_needed(1.0) + 1)
    theta = math.exp(float(log_abs_g(spec, 1.0)[0]) - _TAIL_TOL - rounding)
    p = 1.0 / (1.0 + spec.gamma)

    def k0(t):  # float estimate of the least k with a_k t <= pi
        return (spec.c * t / math.pi) ** p

    k = np.arange(max(1, math.floor(k0(FIT_T_MIN))), math.ceil(k0(t_max)) + 2)
    with np.errstate(divide="ignore"):  # a_0 = inf: the first interval starts at 0
        left = np.clip(math.pi / spec.a(k - 1), FIT_T_MIN, t_max)
    bound = spec.c ** 2 * zeta(2.0 + 2.0 * spec.gamma, k) * left ** (2.0 - p) / 6.0
    return GCertificate(spec=spec, theta_G=theta, bounded_by_one=True,
                        C_G=float(np.min(bound) * (1.0 - 256.0 * eps)),
                        decay_exponent=p, fit_t_range=(FIT_T_MIN, t_max),
                        max_depth=max_depth)
