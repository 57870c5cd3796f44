"""Spectral measures of the studied processes and their derived quantities.

Five families are supported: the continuous densities exp(-|u|^nu), the
discrete measures with atoms exp(-|k|^nu) at frequency 2*pi*k, the
bandlimited flat density on [-cutoff, cutoff], the slowly decaying test
family exp(-(log+ |u|)^alpha), and the truncated continuous density
exp(-|u|^nu) restricted to |u| <= cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc

from .errors import (CapacityError, DomainError, NumericFailure, PreconditionError,
                     UnsupportedOperation)

CONTINUOUS_NU = "continuous-nu"
DISCRETE_NU = "discrete-nu"
BANDLIMITED = "bandlimited"
LOG_POWER_ALPHA = "log-power-alpha"
TRUNCATED_CONTINUOUS_NU = "truncated-continuous-nu"

_CONTINUOUS_KINDS = (CONTINUOUS_NU, BANDLIMITED, LOG_POWER_ALPHA, TRUNCATED_CONTINUOUS_NU)

#: relative size below which the further atoms of a discrete sum are dropped
_ATOM_TOL = 1e-18

#: absolute error allowed in the sum of a `_spectral_integral`
_COV_ATOL = 1e-10


@dataclass(frozen=True)
class SpectralModel:
    kind: str
    nu: float | None = None
    alpha: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if self.kind in (CONTINUOUS_NU, DISCRETE_NU, TRUNCATED_CONTINUOUS_NU):
            if self.nu is None or not 0 < self.nu < math.inf:
                raise PreconditionError(f"{self.kind} requires finite nu > 0, got {self.nu}")
        if self.kind == LOG_POWER_ALPHA:
            if self.alpha is None or not self.alpha > 1:
                raise PreconditionError(f"{self.kind} requires alpha > 1, got {self.alpha}")
        if self.kind in (BANDLIMITED, TRUNCATED_CONTINUOUS_NU):
            if self.cutoff is None or not self.cutoff > 0:
                raise PreconditionError(f"{self.kind} requires cutoff > 0, got {self.cutoff}")
        if self.kind not in _CONTINUOUS_KINDS + (DISCRETE_NU,):
            raise PreconditionError(f"unknown spectral model kind {self.kind!r}")

    @property
    def is_continuous(self) -> bool:
        return self.kind in _CONTINUOUS_KINDS


def continuous_nu(nu: float) -> SpectralModel:
    return SpectralModel(CONTINUOUS_NU, nu=float(nu))


def discrete_nu(nu: float) -> SpectralModel:
    return SpectralModel(DISCRETE_NU, nu=float(nu))


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
    if not model.is_continuous:
        raise UnsupportedOperation("density needs a continuous spectral measure")
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
    return -np.arange(K + 1, dtype=float) ** nu


def _tail_log_masses(nu: float, K: int) -> np.ndarray:
    """Log masses of the atoms past K down to _ATOM_TOL times the first."""
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
    return discrete_log_masses(nu, end)[K + 1:]


def discrete_tail(nu: float, K: int) -> float:
    """sum_{k > K} exp(-k^nu), the mass of the atoms at k > K on one side."""
    return float(np.sum(np.exp(_tail_log_masses(nu, K))))


def atom_mass(model: SpectralModel, k: int) -> float:
    """Mass of the atom at frequency 2*pi*k."""
    if model.kind != DISCRETE_NU:
        raise UnsupportedOperation("atom_mass needs a discrete spectral measure")
    return float(np.exp(discrete_log_masses(model.nu, abs(int(k)))[-1]))


@functools.lru_cache(maxsize=32)
def _quad_upper_limit(model: SpectralModel) -> float:
    """U beyond which the density's tail is negligible; cached."""
    if model.cutoff is not None:
        return model.cutoff
    if model.kind == CONTINUOUS_NU:
        # exp(-U^nu) * max(U, 1) <= 1e-16  (tail of a super-polynomially
        # decaying density is below its value times one unit of length scale)
        U = 1.0
        while density_eval(model, U) * max(U, 1.0) > 1e-16:
            U *= 1.5
        return U
    # log-power family: density * u eventually decreasing; double until small
    U = math.e
    while density_eval(model, U) * U > 1e-17:  # inf gives nan and stops
        U *= 2.0
    if U == math.inf:
        raise CapacityError(f"{model.kind} tail at alpha = {model.alpha} runs past 1e308")
    return U


def _spectral_integral(model: SpectralModel, t: float = 0.0, g=lambda u: 1.0) -> float:
    """2 * integral_0^U g(u) cos(u t) f(u) du, U = _quad_upper_limit(model), as
    one QUADPACK pass per piece [0, 1], [1, e], [e, e^2], ..., so that a slowly
    decaying density is sampled at every scale.  A flagged piece, or a summed
    error that is not within _COV_ATOL (NaN included), is a NumericFailure."""
    U = _quad_upper_limit(model)
    cuts = [0.0]
    while cuts[-1] < U:
        cuts.append(min(math.exp(len(cuts) - 1), U))
    weight = {"weight": "cos", "wvar": t} if t else {}
    val = err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        v, e, _, *flag = quad(lambda u: g(u) * density_eval(model, u), a, b, epsabs=1e-13,
                              epsrel=1e-13, limit=400, full_output=1, **weight)
        if flag:
            raise NumericFailure(f"{model.kind} quadrature on [{a:.6g}, {b:.6g}]: "
                                 + " ".join(flag[0].split()))
        val, err = val + v, err + e
    if not err <= _COV_ATOL:
        raise NumericFailure(f"{model.kind} quadrature error {err:.3e} > {_COV_ATOL:.1e}")
    return 2.0 * val


def total_mass(model: SpectralModel) -> float:
    """Total spectral mass (integral of the density or sum of atoms)."""
    if model.kind in (CONTINUOUS_NU, TRUNCATED_CONTINUOUS_NU):
        # int_0^c exp(-u^nu) du = Gamma(1 + 1/nu) P(1/nu, c^nu); P = 1 at c = inf
        nu, c = model.nu, model.cutoff
        P = 1.0 if c is None else gammainc(1.0 / nu, c ** nu)
        return 2.0 * gamma_fn(1.0 + 1.0 / nu) * P
    if model.kind == BANDLIMITED:
        return 2.0 * model.cutoff
    if model.kind == DISCRETE_NU:
        return 1.0 + 2.0 * discrete_tail(model.nu, 0)
    return _spectral_integral(model)


def covariance(model: SpectralModel, t: float) -> CovarianceValue:
    """R(t) = integral of exp(i u t) against the spectral measure.

    Real by symmetry; computed by `_spectral_integral` for continuous
    measures and by truncated summation for discrete ones.
    """
    t = float(t)
    if model.kind == DISCRETE_NU:
        # atoms at 2*pi*k give period-1 covariance
        log_mass = _tail_log_masses(model.nu, 0)
        k = np.arange(1, len(log_mass) + 1)
        val = 1.0 + 2.0 * float(np.sum(np.exp(log_mass) * np.cos(2.0 * np.pi * k * t)))
        return CovarianceValue(t, val)
    if t == 0.0:
        return CovarianceValue(0.0, total_mass(model))
    return CovarianceValue(t, _spectral_integral(model, t))


def closed_form_covariance(model: SpectralModel, t: float) -> float | None:
    """Closed covariance for nu in {1, 2} and the bandlimited family.

    Used as an independent cross-check of the quadrature path; returns None
    when no closed form is available.
    """
    t = float(t)
    if model.kind == CONTINUOUS_NU and model.nu == 1.0:
        return 2.0 / (1.0 + t * t)
    if model.kind == CONTINUOUS_NU and model.nu == 2.0:
        return math.sqrt(math.pi) * math.exp(-t * t / 4.0)
    if model.kind == BANDLIMITED:
        c = model.cutoff
        if t == 0.0:
            return 2.0 * c
        return 2.0 * math.sin(c * t) / t
    return None


def exp_moment(model: SpectralModel, rate: float) -> float:
    """M(rate) = (integral of exp(rate * |u|) dF(u)) ** (1/2); M(0)^2 is the mass."""
    rate = float(rate)
    if not rate >= 0:
        raise PreconditionError("rate must be nonnegative")
    if rate == 0.0:
        return math.sqrt(total_mass(model))
    # without a cutoff the tilted density decays only for nu > 1, or nu = 1
    # and rate < 1; the log-power density never outweighs a tilt
    if model.cutoff is None and (model.kind == LOG_POWER_ALPHA or model.nu < 1.0
                                 or (model.nu == 1.0 and rate >= 1.0)):
        raise DomainError(f"exponential moment diverges for {model.kind} at rate {rate}")
    if model.kind == DISCRETE_NU:
        # tilted atoms exp(rate k - k^nu), k = 0..K; K doubles until the
        # last atom is past their peak and below _ATOM_TOL of their sum
        K = 4
        while True:
            tilted = np.exp(discrete_log_masses(model.nu, K) + rate * np.arange(K + 1))
            if tilted[-1] <= tilted[-2] and tilted[-1] < _ATOM_TOL * np.sum(tilted):
                return math.sqrt(2.0 * float(np.sum(tilted)) - 1.0)
            K *= 2
    if model.kind == CONTINUOUS_NU:
        # extend the domain so that the tilted tail is negligible
        U = 1.0
        while rate * U - U ** model.nu + math.log(max(U, 1.0)) > math.log(1e-16):
            U *= 1.5
        # shift by the exponent maximum so the integrand stays in range
        nu = model.nu
        ustar = (rate / nu) ** (1.0 / (nu - 1.0)) if nu > 1.0 else U
        ustar = min(max(ustar, 0.0), U)
        m = rate * ustar - ustar ** nu
        val, _ = quad(lambda u: math.exp(rate * u - u ** nu - m), 0.0, U, limit=400)
        return math.exp(0.5 * (m + math.log(2.0 * val)))
    # a cutoff c: shift by the tilt at c, so the error check is relative to it
    m = rate * model.cutoff
    val = _spectral_integral(model, g=lambda u: math.exp(rate * u - m))
    return math.exp(0.5 * (m + math.log(val)))


def log_moment_asym(nu: float, rate: float) -> float:
    """Leading asymptotic of log M_nu(rate) as rate -> infinity, for nu > 1."""
    if nu <= 1.0:
        raise PreconditionError("asymptotic form requires nu > 1")
    p = nu / (nu - 1.0)
    return (nu - 1.0) * rate ** p / (2.0 * nu ** p)
