"""Spectral measures of the studied processes and their derived quantities.

A `SpectralModel` is one of four spectral densities: exp(-|u|^nu), the
bandlimited flat density on [-cutoff, cutoff], the slowly decaying test
family exp(-(log+ |u|)^alpha), and exp(-|u|^nu) truncated to
|u| <= cutoff.  The discrete measures with atoms exp(-|k|^nu) at
frequency 2*pi*k are no model: their atoms up to K, their tail past K and
their series amplitudes come from the (nu, K) functions below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc, gammaincc, gammainccinv, gammaln

from .errors import CapacityError, DomainError, NumericFailure, PreconditionError

CONTINUOUS_NU = "continuous-nu"
DISCRETE_NU = "discrete-nu"
BANDLIMITED = "bandlimited"
LOG_POWER_ALPHA = "log-power-alpha"
TRUNCATED_CONTINUOUS_NU = "truncated-continuous-nu"

#: relative size below which the further atoms of a discrete sum are dropped
_ATOM_TOL = 1e-18

#: absolute error allowed in the sum of a `_spectral_integral`
_COV_ATOL = 1e-10

#: log of the largest float
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class SpectralModel:
    kind: str
    nu: float | None = None
    alpha: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if self.kind in (CONTINUOUS_NU, TRUNCATED_CONTINUOUS_NU):
            if self.nu is None or not 0 < self.nu < math.inf:
                raise PreconditionError(f"{self.kind} requires finite nu > 0, got {self.nu}")
        if self.kind == LOG_POWER_ALPHA:
            if self.alpha is None or not self.alpha > 1:
                raise PreconditionError(f"{self.kind} requires alpha > 1, got {self.alpha}")
        if self.kind in (BANDLIMITED, TRUNCATED_CONTINUOUS_NU):
            if self.cutoff is None or not self.cutoff > 0:
                raise PreconditionError(f"{self.kind} requires cutoff > 0, got {self.cutoff}")
        if self.kind not in (CONTINUOUS_NU, BANDLIMITED, LOG_POWER_ALPHA,
                             TRUNCATED_CONTINUOUS_NU):
            raise PreconditionError(f"unknown spectral model kind {self.kind!r}")


def continuous_nu(nu: float) -> SpectralModel:
    return SpectralModel(CONTINUOUS_NU, nu=float(nu))


def bandlimited(cutoff: float = 1.0) -> SpectralModel:
    return SpectralModel(BANDLIMITED, cutoff=float(cutoff))


def log_power_alpha(alpha: float) -> SpectralModel:
    return SpectralModel(LOG_POWER_ALPHA, alpha=float(alpha))


def truncated_continuous_nu(nu: float, cutoff: float) -> SpectralModel:
    return SpectralModel(TRUNCATED_CONTINUOUS_NU, nu=float(nu), cutoff=float(cutoff))


@dataclass(frozen=True)
class CovarianceValue:
    lag: float
    value: float


def density(model: SpectralModel, u) -> np.ndarray:
    """Spectral density f(u) over an array of frequencies; even in u."""
    a = np.abs(np.asarray(u, dtype=float))
    if model.kind == LOG_POWER_ALPHA:  # log+ u = log max(u, 1)
        return np.exp(-np.log(np.maximum(a, 1.0)) ** model.alpha)
    f = np.ones_like(a) if model.nu is None else np.exp(-a ** model.nu)
    return f if model.cutoff is None else np.where(a <= model.cutoff, f, 0.0)


def density_eval(model: SpectralModel, u: float) -> float:
    """f(u) at one frequency, computed in an array as by `density` (`**` on
    a numpy scalar takes libm's pow, which can differ in the last bit)."""
    return float(density(model, [u])[0])


def discrete_log_masses(nu: float, K: int) -> np.ndarray:
    """Log masses -k^nu of the discrete-nu atoms at 2*pi*k, k = 0..K.

    The one place the atom sequence is formed; nu must be finite and
    positive, and K nonnegative and below 2^22 (32 MB of float64).
    """
    if not (0 < nu < math.inf and K >= 0):
        raise PreconditionError(
            f"{DISCRETE_NU} atoms need finite nu > 0 and K >= 0, got nu = {nu}, K = {K}")
    if K >= 1 << 22:
        raise CapacityError(f"{DISCRETE_NU} atoms to k = {K:.3g} exceed 2^22 (nu = {nu})")
    with np.errstate(over="ignore"):  # k^nu past the float range: mass 0
        return -np.arange(K + 1, dtype=float) ** nu


def discrete_log_amplitudes(nu: float, K: int) -> np.ndarray:
    """Log amplitudes of the discrete-nu series, k = 0..K, the one place
    they are formed: 0 for the constant term, (log 2 - k^nu) / 2 per pair."""
    log_amp = 0.5 * (math.log(2.0) + discrete_log_masses(nu, K))
    log_amp[0] = 0.0
    return log_amp


def discrete_tail(nu: float, K: int) -> float:
    """sum_{k > K} exp(-k^nu), the mass of the atoms at k > K on one side,
    summed down to _ATOM_TOL times the first of them."""
    discrete_log_masses(nu, K)  # refuses a bad nu or K
    # end = ((K+1)^nu + log(1/_ATOM_TOL))^(1/nu) = (K+1) base^(1/nu), sized in
    # logs first: for a tiny nu the power overflows long before k = 2^22
    base = 1.0 - math.log(_ATOM_TOL) * (K + 1.0) ** -nu
    log_end = math.log(K + 1.0) + math.log(base) / nu
    if log_end >= 22.0 * math.log(2.0):
        raise CapacityError(
            f"{DISCRETE_NU} atoms to k = 10^{log_end / math.log(10.0):.4g} "
            f"exceed 2^22 (nu = {nu})")
    end = math.ceil((K + 1) * base ** (1.0 / nu))
    return float(np.sum(np.exp(discrete_log_masses(nu, end)[K + 1:])))


def _power(c: float, nu: float) -> float:
    """c^nu for a cutoff c >= 0, the argument of P(1/nu, .) and Q(1/nu, .):
    inf once nu log c is within 1 of the float range, so the power cannot
    round past it, where P is already 1 and Q already 0 in floats."""
    if c > 1.0 and nu * math.log(c) > _LOG_MAX - 1.0:
        return math.inf
    return c ** nu


def _tail_point(model: SpectralModel, rate: float) -> float:
    """The cutoff, or sooner the first c of 1, 1.5, 1.5^2, ... past which the
    decaying tilted density's tail is negligible: exp(rate c - c^nu) c <= 1e-16.
    A c or c^nu past the float range is a CapacityError, before c^nu is formed."""
    nu, c = model.nu, 1.0
    while c < (model.cutoff or math.inf):
        if rate * c - c ** nu + math.log(c) <= math.log(1e-16):
            return c
        c *= 1.5
        if not max(nu, 1.0) * math.log(c) < _LOG_MAX:
            raise CapacityError(f"{model.kind} tail at nu {nu}, rate {rate} is past the float range")
    return model.cutoff


@functools.lru_cache(maxsize=32)
def _quad_upper_limit(model: SpectralModel) -> float:
    """U beyond which the density's tail is negligible; cached."""
    if model.cutoff is not None:
        return model.cutoff
    if model.kind == CONTINUOUS_NU:
        return _tail_point(model, 0.0)
    # log-power family: density * u eventually decreasing; double until small
    U = math.e
    while density_eval(model, U) * U > 1e-17:  # inf gives nan and stops
        U *= 2.0
    if U == math.inf:
        raise CapacityError(f"{model.kind} tail at alpha = {model.alpha} runs past 1e308")
    return U


def _spectral_integral(model: SpectralModel, f, t: float = 0.0) -> float:
    """2 * integral_0^U f(u) cos(u t) du, U = _quad_upper_limit(model), as
    one QUADPACK pass per piece [0, 1], [1, e], [e, e^2], ..., so that a slowly
    decaying integrand is sampled at every scale.  A flagged piece, or a summed
    error that is not within _COV_ATOL (NaN included), is a NumericFailure."""
    U = _quad_upper_limit(model)
    cuts = [0.0]
    while cuts[-1] < U:
        cuts.append(min(math.exp(len(cuts) - 1), U))
    weight = {"weight": "cos", "wvar": t} if t else {}
    val = err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        v, e, _, *flag = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400,
                              full_output=1, **weight)
        if flag:
            raise NumericFailure(f"{model.kind} quadrature on [{a:.6g}, {b:.6g}]: "
                                 + " ".join(flag[0].split()))
        val, err = val + v, err + e
    if not err <= _COV_ATOL:
        raise NumericFailure(f"{model.kind} quadrature error {err:.3e} > {_COV_ATOL:.1e}")
    return 2.0 * val


def total_mass(model: SpectralModel) -> float:
    """Total spectral mass, the integral of the density."""
    if model.kind in (CONTINUOUS_NU, TRUNCATED_CONTINUOUS_NU):
        # int_0^c exp(-u^nu) du = Gamma(1 + 1/nu) P(1/nu, c^nu); P = 1 at c = inf
        c, nu = model.cutoff, model.nu
        if gammaln(1.0 + 1.0 / nu) > _LOG_MAX - math.log(2.0):
            raise CapacityError(f"{model.kind} mass at nu {nu} is past the float range")
        share = 1.0 if c is None else gammainc(1.0 / nu, _power(c, nu))
        return 2.0 * gamma_fn(1.0 + 1.0 / nu) * share
    if model.kind == BANDLIMITED:
        return 2.0 * model.cutoff
    return _spectral_integral(model, lambda u: density_eval(model, u))


def covariance(model: SpectralModel, t: float) -> CovarianceValue:
    """R(t) = integral of exp(i u t) f(u) du, real by symmetry; the mass
    at t = 0 and a `_spectral_integral` elsewhere."""
    t = float(t)
    if t == 0.0:
        return CovarianceValue(0.0, total_mass(model))
    return CovarianceValue(t, _spectral_integral(model, lambda u: density_eval(model, u), t))


def exp_moment(model: SpectralModel, rate: float) -> float:
    """M(rate) = (integral of exp(rate |u|) f(u) du) ** (1/2); M(0)^2 is the mass.

    A moment past the float range is a CapacityError."""
    rate = float(rate)
    if not rate >= 0:
        raise PreconditionError("rate must be nonnegative")
    if rate == 0.0:
        return math.sqrt(total_mass(model))
    # the tilted density decays only for nu > 1, or nu = 1 and rate < 1 (never log-power)
    nu = model.nu
    decays = nu is not None and (nu > 1.0 or (nu == 1.0 and rate < 1.0))
    if model.cutoff is None and not decays:
        raise DomainError(f"exponential moment diverges for {model.kind} at rate {rate}")
    c = _tail_point(model, rate) if decays else model.cutoff
    support = truncated_continuous_nu(nu, c) if decays else model

    def h(u):  # log of the tilted density; flat for bandlimited
        return rate * u - (0.0 if nu is None else u ** nu)
    # m, the largest h on [0, c], shifts the integrand's peak to 1, the error
    # check's scale; h peaks inside (0, c) only for nu > 1 and rate < nu c^(nu-1)
    inner = nu is not None and nu > 1.0 and math.log(rate / nu) < (nu - 1.0) * math.log(c)
    m = max(h(0.0), h(c), h((rate / nu) ** (1.0 / (nu - 1.0))) if inner else 0.0)
    # h lies above its chord from 0 to its maximum, or for nu <= 1 its tangent
    # at c, so the integral is >= 2 (1 - e^-m) / rate and, past m = log 2, log M
    # >= 0.5 (m - log rate): refuse that before h rounds past the float range
    log_M = 0.5 * (m - math.log(rate))
    if log_M <= _LOG_MAX:
        log_M = 0.5 * (m + math.log(_spectral_integral(support, lambda u: math.exp(h(u) - m))))
    if not log_M <= _LOG_MAX:
        raise CapacityError(f"exp_moment of {model.kind} at rate {rate} is past the float range")
    return math.exp(log_M)


def continuous_tail(nu: float, c: float) -> float:
    """int_c^inf exp(-u^nu) du = Gamma(1 + 1/nu) Q(1/nu, c^nu), one side's mass past c."""
    return float(gamma_fn(1.0 + 1.0 / nu) * gammaincc(1.0 / nu, _power(c, nu)))


def tail_mass_point(model: SpectralModel, tol: float) -> float | None:
    """A frequency past which one side of the density holds at most tol:
    the bandlimited cutoff; else the cutoff or, if sooner, the least u with
    `continuous_tail(nu, u) <= tol`, inverted in logs and inf when it is past
    the float range.  None for the log-power family, whose tail has no
    closed inverse."""
    if not tol > 0:
        raise PreconditionError(f"tail_mass_point needs tol > 0, got {tol}")
    if model.kind == BANDLIMITED:
        return model.cutoff
    if model.kind == LOG_POWER_ALPHA:
        return None
    nu = model.nu
    g = gammainccinv(1.0 / nu, math.exp(math.log(tol) - gammaln(1.0 + 1.0 / nu)))
    log_u = math.log(g) / nu if g > 0 else -math.inf  # g = 0: tol is the half mass
    u = math.exp(log_u) if log_u < _LOG_MAX else math.inf
    return min(u, model.cutoff or math.inf)

