"""Closed forms and earlier implementations that tests check the library
against."""

import math

import mpmath
import numpy as np
from scipy.special import zeta

from smalldev import gfunc, rkhs, spectra, tsirelson


def closed_form_covariance(model: spectra.SpectralModel, t: float) -> float | None:
    """Closed covariance for nu in {1, 2} and the bandlimited family, an
    independent cross-check of the quadrature path; None when no closed form
    is available."""
    t = float(t)
    if model.kind == spectra.CONTINUOUS_NU and model.nu == 1.0:
        return 2.0 / (1.0 + t * t)
    if model.kind == spectra.CONTINUOUS_NU and model.nu == 2.0:
        return math.sqrt(math.pi) * math.exp(-t * t / 4.0)
    if model.kind == spectra.BANDLIMITED:
        c = model.cutoff
        if t == 0.0:
            return 2.0 * c
        return 2.0 * math.sin(c * t) / t
    return None


def periodic_covariance(nu: float, t: float) -> float:
    """sum_k exp(-|k|^nu) cos 2 pi k t over all integers k, the covariance of
    the discrete-nu atoms at 2 pi k, in closed form for nu = 1 and 2: the
    Poisson kernel (1 - q^2) / (1 - 2 q cos 2 pi t + q^2) and the Jacobi
    theta function theta_3(pi t, q), both at q = e^-1."""
    q = math.exp(-1.0)
    if nu == 1.0:
        return (1.0 - q * q) / (1.0 - 2.0 * q * math.cos(2.0 * math.pi * t) + q * q)
    if nu == 2.0:
        return float(mpmath.jtheta(3, math.pi * t, q))
    raise ValueError(f"no closed periodic covariance at nu = {nu}")


def minorant_covariance(cfg: tsirelson.TsirelsonConfig, t) -> np.ndarray:
    """Closed-form covariance of the Tsirelson grid minorant at an array of
    lags: sigma^2 times the normalised Dirichlet kernel or sinc."""
    return cfg.sigma2 * tsirelson._kernel(cfg, t)


def _dense_term_counts(a: float, s: float) -> np.ndarray:
    """Number of j in 0..floor(a/s) in each bin b = 0.._GRID of
    floor(_GRID (j s / a)^2): the dense term histogram of the lattice count
    as it was formed before the count took (bin, count) pairs."""
    top = math.floor(a / s)
    if top > rkhs._GRID:
        return rkhs._term_counts_by_inverse(a, s, top)
    j = np.arange(top + 1)
    return np.bincount(np.floor(rkhs._GRID * (j * s / a) ** 2).astype(np.int64),
                       minlength=rkhs._GRID + 1)


def count_lattice_cells(axes: np.ndarray, steps: np.ndarray) -> int:
    """The lattice cell count as one dense convolution per coordinate, each
    shifting the denser histogram by every nonzero bin of the sparser: the
    reference for `rkhs._count_lattice_cells`, which must equal it exactly."""
    _GRID, _INT64_MAX = rkhs._GRID, rkhs._INT64_MAX
    product = rkhs._product_bound(axes, steps)
    reach = [math.floor(a / s) + 1 for a, s in zip(axes, steps)]
    for i in range(1, len(axes)):
        box = math.prod(math.floor(a / (s * math.sqrt(i))) + 1
                        for a, s in zip(axes[:i], steps[:i]))
        if box * reach[i] > _INT64_MAX:
            return product
    hist = np.zeros(_GRID + 1, dtype=np.int64)
    hist[0] = 1
    total = 1
    for a, s, n in zip(axes, steps, reach):
        if total * n > _INT64_MAX:
            return product
        term = _dense_term_counts(a, s)
        sparse, dense = sorted((hist, term), key=np.count_nonzero)
        conv = np.zeros_like(hist)
        for b in np.flatnonzero(sparse):
            conv[b:] += sparse[b] * dense[: _GRID + 1 - b]
        hist = conv
        total = int(hist.sum())
    return min(2 ** len(axes) * total, product)


def _g_c(gamma: float) -> float:
    return 1.0 / float(zeta(1.0 + gamma, 1.0))


def _g_a(gamma: float, k) -> np.ndarray:
    return _g_c(gamma) * np.asarray(k, float) ** (-1.0 - gamma)


def _g_tail_coef(gamma: float, D: int) -> np.ndarray:
    s = 2.0 * (1.0 + gamma) * np.arange(1, gfunc._SERIES_TERMS + 2)
    q = D + 1.0
    return gfunc._SERIES_COEF * q ** s * zeta(s, q)


def _g_depth(gamma: float, tmax: float) -> int:
    D = 16
    while True:
        x = float(_g_a(gamma, D + 1)) * tmax
        if x <= 1.0 and _g_tail_coef(gamma, D)[-1] \
                * x ** (2 * gfunc._SERIES_TERMS + 2) \
                / (1.0 - (x / math.pi) ** 2) <= gfunc._TAIL_TOL:
            return D
        D *= 2


def log_abs_g(spec: gfunc.GFunctionSpec, t) -> np.ndarray:
    """`gfunc.log_abs_g` with nothing memoised: c, the depth, the factors
    and the tail coefficients formed afresh for every 64-point chunk, and
    log |sin x / x| in fresh arrays."""
    t = np.atleast_1d(np.asarray(t, float))
    out = np.empty(len(t))
    for s in range(0, len(t), 64):
        tc = np.abs(t[s : s + 64])
        D = _g_depth(spec.gamma, float(np.max(tc)))
        a = _g_a(spec.gamma, np.arange(1, D + 1))
        x = tc[:, None] * a[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(x > 0.0, np.log(np.abs(np.sin(x) / x)), 0.0)
        y2 = (float(_g_a(spec.gamma, D + 1)) * tc) ** 2
        tail = np.zeros_like(y2)
        for b in _g_tail_coef(spec.gamma, D)[-2::-1]:
            tail = (tail + b) * y2
        out[s : s + 64] = np.sum(logs, axis=1) - tail
    return out
