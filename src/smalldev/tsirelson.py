"""Rigorous finite-r lower bounds on the small-deviation function.

The bound replaces the process by a spectral minorant whose values on an
arithmetic grid of step Delta are uncorrelated (Dirichlet-kernel zeros),
hence independent Gaussians of variance sigma^2, so

    P(||X|| <= r)  <=  P(sigma |N| <= r) ** (#grid points).

Two exponent variants are shipped and never mixed:

* ``paper-exponent`` -- the asymptotic form E(l) * (|log r| - l^nu) whose
  optimized envelope reproduces the constant nu / (pi (nu+1)^{1+1/nu});
* ``rigorous-grid-count`` -- the literal count N of independent grid points
  inside [0, 1] with the sharp per-point factor -log(sqrt(2/pi) r / sigma),
  a certified bound for the simulated paths.

Two grid conventions are shipped for atomic spectra: ``paper-2pi`` (atoms
at integer frequencies, period-2pi paths) and ``period-1`` (atoms at
2 pi k, period-1 paths); they differ by the factor 2 pi in the exponent.
Continuous-spectrum grids always use Delta = 2 pi / l, which sits on a
Dirichlet zero of the flat-density minorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, PreconditionError

DISCRETE = "discrete"
CONTINUOUS = "continuous"
PAPER_2PI = "paper-2pi"
PERIOD_1 = "period-1"
PAPER_EXPONENT = "paper-exponent"
RIGOROUS_GRID_COUNT = "rigorous-grid-count"

_HALF_LOG_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)

#: window candidates per numpy pass of `bound_opt`; bounds its memory
_CHUNK = 1 << 16


@dataclass(frozen=True)
class TsirelsonConfig:
    nu: float
    spectrum: str = DISCRETE
    l: float = 1
    convention: str = PAPER_2PI

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise PreconditionError(f"nu must be finite and positive, got {self.nu}")
        if self.spectrum not in (DISCRETE, CONTINUOUS):
            raise PreconditionError(f"unknown spectrum {self.spectrum!r}")
        if self.convention not in (PAPER_2PI, PERIOD_1):
            raise PreconditionError(f"unknown convention {self.convention!r}")
        if not self.l >= 1:
            raise PreconditionError("l must be >= 1")
        if self.spectrum == DISCRETE and self.l != int(self.l):
            raise PreconditionError("discrete spectrum requires integer l")

    @property
    def delta(self) -> float:
        return float(_grid(self.nu, self.spectrum, self.convention,
                           np.array([float(self.l)]))[1][0])

    @property
    def sigma2(self) -> float:
        return float(_grid(self.nu, self.spectrum, self.convention,
                           np.array([float(self.l)]))[0][0])


@dataclass(frozen=True)
class LowerBoundResult:
    r: float
    l_used: float
    phi_lower: float
    valid: bool
    variant: str
    convention: str
    spectrum: str
    sigma2: float


def _grid(nu: float, spectrum: str, convention: str,
          l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma^2, Delta and the count of independent grid points of step Delta
    inside [0, 1], at every level in the 1-d array l."""
    if spectrum == DISCRETE:
        n = 2.0 * l + 1.0
        sigma2 = np.exp(-l ** nu) * n
        delta = 2.0 * np.pi / n if convention == PAPER_2PI else 1.0 / n
    else:
        sigma2 = 2.0 * l * np.exp(-l ** nu)
        delta = 2.0 * np.pi / l
    count = np.floor(1.0 / delta) + 1.0
    if spectrum == DISCRETE and convention == PERIOD_1:
        # t = 0 and t = 1 are the same point of a period-1 path
        count = np.minimum(count, n)
    return sigma2, delta, count


def _phi(nu: float, spectrum: str, convention: str, variant: str,
         l: np.ndarray, r: float) -> np.ndarray:
    """phi_lower at every level in the 1-d array l; 0 where the bound is
    invalid."""
    if variant == PAPER_EXPONENT:
        # grid-count factor E(l) of the asymptotic variant
        if spectrum == DISCRETE:
            factor = l / np.pi if convention == PAPER_2PI else 2.0 * l
        else:
            factor = l / (2.0 * np.pi)
        gap = -math.log(r) - l ** nu
        return np.where(gap > 0.0, factor * gap, 0.0)
    if variant == RIGOROUS_GRID_COUNT:
        sigma2, _, count = _grid(nu, spectrum, convention, l)
        # sigma underflows to 0 at large l: such a grid bounds nothing
        with np.errstate(divide="ignore"):
            per_point = -(_HALF_LOG_2_OVER_PI + np.log(r / np.sqrt(sigma2)))
        # the exact boundary counts as invalid
        return np.where(per_point > 1e-12, count * per_point, 0.0)
    raise PreconditionError(f"unknown variant {variant!r}")


def bound_at(cfg: TsirelsonConfig, r: float,
             variant: str = PAPER_EXPONENT) -> LowerBoundResult:
    if not r > 0:
        raise PreconditionError("r must be positive")
    phi = float(_phi(cfg.nu, cfg.spectrum, cfg.convention, variant,
                     np.array([float(cfg.l)]), r)[0])
    return LowerBoundResult(r=r, l_used=cfg.l, phi_lower=phi, valid=phi > 0.0,
                            variant=variant, convention=cfg.convention,
                            spectrum=cfg.spectrum, sigma2=cfg.sigma2)


def bound_opt(nu: float, spectrum: str, r: float,
              convention: str = PAPER_2PI,
              variant: str = PAPER_EXPONENT) -> LowerBoundResult:
    """Best bound over l in a window around the asymptotically optimal l.

    Every candidate l goes through the formulas of `bound_at`, `_CHUNK`
    candidates per numpy pass; the first l, in ascending order, with the
    largest value wins, and `bound_at` reports it.
    """
    if not 0 < r < 1:
        raise PreconditionError("bound_opt requires 0 < r < 1")
    TsirelsonConfig(nu, spectrum, 1, convention)  # refuses a bad nu first
    seed = (abs(math.log(r)) / (nu + 1.0)) ** (1.0 / nu)
    l_max = 4.0 * math.ceil(seed)
    # candidates 1, 1 + step, ..., l_max
    if spectrum == DISCRETE:
        step, n = 1.0, max(int(l_max), 1)
    else:
        step, n = 0.25, 4 * int(max(l_max, 1.0)) - 3
    best_l, best_phi = 1.0, -math.inf
    for lo in range(0, n, _CHUNK):
        l = 1.0 + step * np.arange(lo, min(lo + _CHUNK, n))
        phi = _phi(nu, spectrum, convention, variant, l, r)
        i = int(np.argmax(phi))  # first maximum of the chunk
        if phi[i] > best_phi:
            best_l, best_phi = float(l[i]), phi[i]
    return bound_at(TsirelsonConfig(nu, spectrum, best_l, convention), r,
                    variant)


def asymptotic_constant(nu: float) -> float:
    """Limit of bound_opt(r) / |log r|^{1 + 1/nu} as r -> 0 (atomic case)."""
    if not 0 < nu < math.inf:
        raise PreconditionError("nu must be finite and positive")
    return nu / (math.pi * (nu + 1.0) ** (1.0 + 1.0 / nu))


def minorant_covariance(cfg: TsirelsonConfig, t) -> np.ndarray:
    """Closed-form covariance of the grid minorant over an array of lags."""
    l, nu = cfg.l, cfg.nu
    t = np.asarray(t, dtype=float)
    scale = math.exp(-(l ** nu))
    with np.errstate(divide="ignore", invalid="ignore"):
        if cfg.spectrum == DISCRETE:
            m = 2 * int(l) + 1
            # Dirichlet kernel; argument scaled by the period convention
            x = t if cfg.convention == PAPER_2PI else 2.0 * math.pi * t
            half = np.sin(x / 2.0)
            return np.where(np.abs(half) < 1e-14,
                            scale * m * np.cos((m - 1) / 2.0 * x),
                            scale * np.sin(m * x / 2.0) / half)
        return np.where(t == 0.0, 2.0 * l * scale,
                        2.0 * scale * np.sin(l * t) / t)


@dataclass(frozen=True)
class CertificateReport:
    cfg: TsirelsonConfig
    lags: np.ndarray
    values: np.ndarray
    sigma2: float
    max_abs: float
    passed: bool


def uncorrelated_certificate(cfg: TsirelsonConfig,
                             delta: float | None = None) -> CertificateReport:
    """Verify that the minorant is uncorrelated across the grid.

    Evaluates the closed-form covariance at every lag k * delta and asserts
    |R| <= 1e-10 * sigma^2; a failure indicates a grid/convention mismatch.
    """
    d = cfg.delta if delta is None else delta
    if cfg.spectrum == DISCRETE:
        ks = np.arange(1, 2 * int(cfg.l) + 1)
    else:
        ks = np.arange(1, max(int(math.floor(1.0 / d)), 1) + 1)
    lags = ks * d
    vals = minorant_covariance(cfg, lags)
    max_abs = float(np.max(np.abs(vals))) if len(vals) else 0.0
    passed = max_abs <= 1e-10 * cfg.sigma2
    report = CertificateReport(cfg=cfg, lags=lags, values=vals,
                               sigma2=cfg.sigma2, max_abs=max_abs,
                               passed=passed)
    if not passed:
        raise CertificateError(
            f"minorant covariance {max_abs:.3e} exceeds 1e-10 * sigma^2 "
            f"= {1e-10 * cfg.sigma2:.3e} on the grid (step {d})"
        )
    return report
