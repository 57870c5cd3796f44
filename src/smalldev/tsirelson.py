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
Dirichlet zero of the flat-density minorant, and take only ``paper-2pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CertificateError, PreconditionError

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
        if self.spectrum == CONTINUOUS and self.convention == PERIOD_1:
            raise PreconditionError("a continuous spectrum has the one grid "
                                    "Delta = 2 pi / l: use convention paper-2pi")
        if not 1 <= self.l < math.inf:
            raise PreconditionError(f"l must be finite and >= 1, got {self.l}")
        if self.spectrum == DISCRETE and self.l != int(self.l):
            raise PreconditionError("discrete spectrum requires integer l")

    @property
    def delta(self) -> float:
        return float(self._grid()[2][0])

    @property
    def sigma2(self) -> float:
        return float(self._grid()[1][0])

    def _grid(self) -> tuple[np.ndarray, ...]:
        return _grid(self.nu, self.spectrum, self.convention,
                     np.array([float(self.l)]))


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
          l: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one definition of the minorant at every l of the 1-d array l: its
    level exp(-l^nu) (0 past the float range), the mass of each of its 2l + 1
    atoms or its density on [-l, l]; sigma^2; Delta; and the grid count."""
    with np.errstate(over="ignore"):
        level = np.exp(-l ** nu)
    if spectrum == DISCRETE:
        n = 2.0 * l + 1.0
        sigma2 = level * n
        delta = 2.0 * np.pi / n if convention == PAPER_2PI else 1.0 / n
    else:
        sigma2 = 2.0 * l * level
        delta = 2.0 * np.pi / l
    count = np.floor(1.0 / delta) + 1.0
    if spectrum == DISCRETE and convention == PERIOD_1:
        # t = 0 and t = 1 are the same point of a period-1 path
        count = np.minimum(count, n)
    return level, sigma2, delta, count


def _phi(nu: float, spectrum: str, convention: str, variant: str,
         l: np.ndarray, r: float, grid: tuple | None = None) -> np.ndarray:
    """phi_lower at every level in the 1-d array l, 0 where invalid; the
    rigorous variant reads `grid`, `_grid` at l, if given."""
    if variant == PAPER_EXPONENT:
        # grid-count factor E(l) of the asymptotic variant
        if spectrum == DISCRETE:
            factor = l / np.pi if convention == PAPER_2PI else 2.0 * l
        else:
            factor = l / (2.0 * np.pi)
        with np.errstate(over="ignore"):  # l^nu past the float range: gap -inf
            gap = -math.log(r) - l ** nu
        return factor * np.maximum(gap, 0.0)
    if variant == RIGOROUS_GRID_COUNT:
        _, sigma2, _, count = grid or _grid(nu, spectrum, convention, l)
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
    grid = cfg._grid()
    phi = float(_phi(cfg.nu, cfg.spectrum, cfg.convention, variant,
                     np.array([float(cfg.l)]), r, grid)[0])
    return LowerBoundResult(r=r, l_used=cfg.l, phi_lower=phi, valid=phi > 0.0,
                            variant=variant, convention=cfg.convention,
                            spectrum=cfg.spectrum, sigma2=float(grid[1][0]))


def bound_opt(nu: float, spectrum: str, r: float,
              convention: str = PAPER_2PI,
              variant: str = PAPER_EXPONENT) -> LowerBoundResult:
    """Best bound over l = 1, 1 + step, ... (step 1, or 1/4 for continuous
    spectra) up to the first of l = 1, 2, 4, ... where the bound is 0, found
    by one `_phi` call: both variants are positive on an interval of l from
    1.  A bound still positive where the window would pass 2^32 candidates
    is refused before the scan.  The scan takes `_CHUNK` candidates per call
    and the first maximum wins; the rigorous variant evaluates `_grid` once
    for the end, once per chunk and once in `bound_at` for the winner.
    """
    if not 0 < r < 1:
        raise PreconditionError("bound_opt requires 0 < r < 1")
    TsirelsonConfig(nu, spectrum, 1, convention)  # refuses bad parameters first
    step = 1.0 if spectrum == DISCRETE else 0.25
    ends = 2.0 ** np.arange(33 if spectrum == DISCRETE else 31)  # <= 2^32 candidates
    zero = np.flatnonzero(_phi(nu, spectrum, convention, variant, ends, r) == 0.0)
    if zero.size == 0:
        raise CapacityError(f"the bound is still positive at l = {ends[-1]:.0f}: "
                            f"a window to its end would pass 2^32 candidates")
    n = int((ends[zero[0]] - 1.0) / step) + 1  # candidates 1, 1 + step, ..., end
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


def minorant_amplitudes(cfg: TsirelsonConfig) -> np.ndarray:
    """amp[0] for the constant term and amp[k] for each cos/sin pair of a
    discrete minorant, the form `pathgen.series_values` takes."""
    if cfg.spectrum != DISCRETE:
        raise PreconditionError("minorant_amplitudes needs a discrete spectrum")
    return np.sqrt(cfg._grid()[0][0] * np.r_[1.0, np.full(int(cfg.l), 2.0)])


def _kernel(cfg: TsirelsonConfig, t) -> np.ndarray:
    """Covariance over sigma^2 at an array of lags: the Dirichlet kernel
    sin(m x/2) / (m sin(x/2)), m = 2l + 1, or the sinc sin(l t) / (l t)."""
    t = np.asarray(t, dtype=float)
    if cfg.spectrum == CONTINUOUS:
        return np.sinc(cfg.l * t / np.pi)
    m = 2 * int(cfg.l) + 1
    x = t if cfg.convention == PAPER_2PI else 2.0 * math.pi * t  # period convention
    half = np.sin(x / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(half) < 1e-14, np.cos((m - 1) / 2.0 * x),
                        np.sin(m * x / 2.0) / (m * half))


@dataclass(frozen=True)
class CertificateReport:
    cfg: TsirelsonConfig
    lags: np.ndarray
    values: np.ndarray
    sigma2: float
    max_abs: float
    passed: bool


def uncorrelated_certificate(cfg: TsirelsonConfig) -> CertificateReport:
    """Verify that the minorant is uncorrelated across the config's own grid.

    Evaluates the closed-form covariance at every lag k * Delta and asserts
    |R| <= 1e-10 * sigma^2; a failure indicates a grid/convention mismatch.
    """
    _, sigma2, d, _ = (float(a[0]) for a in cfg._grid())
    n = 2 * int(cfg.l) if cfg.spectrum == DISCRETE else max(math.floor(1.0 / d), 1)
    lags = np.arange(1, n + 1) * d
    vals = sigma2 * _kernel(cfg, lags)
    max_abs = float(np.max(np.abs(vals)))
    if not max_abs <= 1e-10 * sigma2:
        raise CertificateError(f"minorant covariance {max_abs:.3e} exceeds 1e-10 * "
                               f"sigma^2 = {1e-10 * sigma2:.3e} on the grid (step {d})")
    return CertificateReport(cfg=cfg, lags=lags, values=vals, sigma2=sigma2,
                             max_abs=max_abs, passed=True)
