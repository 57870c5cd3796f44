"""Sample-path generation on time grids.

Periodic processes (atomic spectra) are generated exactly as finite random
Fourier series.  Continuous spectra, including the flat Tsirelson
minorants, are generated by one sampler: stratified spectral quadrature
with one cos/sin pair per equal-mass stratum.

All randomness comes from one keying scheme: a counter-based generator keyed
by (seed, path_index // block), where the block is BLOCK paths for Fourier
series and QUAD_BLOCK paths for spectral quadrature.  Any path index
therefore draws the same normals no matter how the batch is partitioned
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfinv, gammainc, gammaincinv
from scipy.special import gamma as gamma_fn

from . import spectra
from .errors import PreconditionError

#: paths per counter block; fixed so batches are partition-independent
BLOCK = 512

#: paths per counter block of spectral quadrature (2 * N_STRATA normals each)
QUAD_BLOCK = 8

#: strata for spectral quadrature
N_STRATA = 4096


@dataclass(frozen=True)
class GridSpec:
    t_min: float = 0.0
    t_max: float = 1.0
    n_points: int = 1024

    def __post_init__(self):
        if self.n_points < 2:
            raise PreconditionError("n_points must be >= 2")
        if not self.t_min < self.t_max:
            raise PreconditionError("grid requires t_min < t_max")

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / (self.n_points - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_points)


@dataclass(frozen=True)
class PathSample:
    grid: GridSpec
    values: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PeriodicGenConfig:
    nu: float
    K: int
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.nu <= 0:
            raise PreconditionError("nu must be positive")
        if self.K < 0:
            raise PreconditionError("K must be >= 0")
        tail = _discrete_tail(self.nu, self.K)
        if tail > self.tail_tol:
            k = self.K
            while _discrete_tail(self.nu, k) > self.tail_tol:
                k += 1
            raise PreconditionError(
                f"truncated tail variance {tail:.3e} exceeds tail_tol "
                f"{self.tail_tol:.3e}; minimal admissible K is {k}"
            )

    def amplitudes(self) -> np.ndarray:
        """amp[0] for the constant term, amp[k] for each cos/sin pair."""
        k = np.arange(0, self.K + 1)
        amp = np.sqrt(2.0 * np.exp(-k.astype(float) ** self.nu))
        amp[0] = 1.0
        return amp


def _discrete_tail(nu: float, K: int) -> float:
    """2 * sum_{k > K} exp(-k^nu), summed until terms vanish."""
    total = 0.0
    k = K + 1
    while True:
        term = math.exp(-k ** nu)
        total += term
        if term < 1e-20 * max(total, 1e-300):
            break
        k += 1
    return 2.0 * total


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _series_block(amps: np.ndarray, times: np.ndarray, seed: int,
                  block: int) -> np.ndarray:
    """Values of the BLOCK consecutive Fourier-series paths of one block.

    X(t) = amp0*xi0 + sum_k amp_k*(xi_k cos 2 pi k t + eta_k sin 2 pi k t).
    The product always spans the whole block, so a path is the same however
    many of its block's paths are read: a row of a matrix product may differ
    in its last bits with the number of rows.
    """
    K = len(amps) - 1
    rng = _rng_for_block(seed, block)
    normals = rng.standard_normal((BLOCK, 2 * K + 1))
    xi = normals[:, : K + 1]  # xi0..xiK
    eta = normals[:, K + 1:]  # eta1..etaK
    k = np.arange(1, K + 1)
    phase = 2.0 * np.pi * np.outer(k, times)  # (K, T)
    vals = amps[0] * xi[:, :1] * np.ones((1, len(times)))
    if K > 0:
        vals = vals + (xi[:, 1:] * amps[1:]) @ np.cos(phase)
        vals = vals + (eta * amps[1:]) @ np.sin(phase)
    return vals


def series_values(amps: np.ndarray, times: np.ndarray, seed: int,
                  n_paths: int, offset: int = 0) -> np.ndarray:
    """(n_paths, len(times)) matrix of Fourier-series paths, block-keyed."""
    out = np.empty((n_paths, len(times)))
    i = 0
    while i < n_paths:
        idx = offset + i
        block, pos = divmod(idx, BLOCK)
        take = min(BLOCK - pos, n_paths - i)
        out[i : i + take] = _series_block(amps, times, seed, block)[pos : pos + take]
        i += take
    return out


def gen_periodic(cfg: PeriodicGenConfig, grid: GridSpec, seed: int,
                 path_index: int = 0) -> PathSample:
    vals = series_values(cfg.amplitudes(), grid.times(), seed, 1, offset=path_index)
    return PathSample(grid, vals[0], seed,
                      meta={"method": "fourier-series", "truncation_K": cfg.K,
                            "path_index": path_index})


def minorant_discrete_amplitudes(l: int, nu: float) -> np.ndarray:
    """Equal-mass atomic minorant: atoms of mass exp(-l^nu) at |k| <= l."""
    if l < 1:
        raise PreconditionError("l must be >= 1")
    s = math.exp(-0.5 * l ** nu)
    amp = np.full(l + 1, math.sqrt(2.0) * s)
    amp[0] = s
    return amp


def gen_minorant_discrete(l: int, nu: float, grid: GridSpec, seed: int,
                          path_index: int = 0) -> PathSample:
    amp = minorant_discrete_amplitudes(l, nu)
    vals = series_values(amp, grid.times(), seed, 1, offset=path_index)
    return PathSample(grid, vals[0], seed,
                      meta={"method": "fourier-series", "l": l,
                            "variance": math.exp(-l ** nu) * (2 * l + 1)})


def _strata_frequencies(model: spectra.SpectralModel) -> tuple[np.ndarray, float]:
    """Midpoint-quantile frequencies of N_STRATA equal-measure strata of the
    positive half of the spectral measure, plus the mass of one stratum."""
    p = (np.arange(N_STRATA) + 0.5) / N_STRATA
    kind, nu = model.kind, model.nu
    if kind == spectra.BANDLIMITED:
        u = p * model.cutoff
        half_mass = model.cutoff
    elif kind == spectra.CONTINUOUS_NU and nu == 1.0:
        u = -np.log1p(-p)
        half_mass = 1.0
    elif kind == spectra.CONTINUOUS_NU and nu == 2.0:
        u = erfinv(p)
        half_mass = math.sqrt(math.pi) / 2.0
    elif kind in (spectra.CONTINUOUS_NU, spectra.TRUNCATED_CONTINUOUS_NU):
        # int_0^u exp(-x^nu) dx = Gamma(1 + 1/nu) * gammainc(1/nu, u^nu)
        P = 1.0
        if kind == spectra.TRUNCATED_CONTINUOUS_NU:
            P = gammainc(1.0 / nu, model.cutoff ** nu)
        u = gammaincinv(1.0 / nu, p * P) ** (1.0 / nu)
        half_mass = gamma_fn(1.0 + 1.0 / nu) * P
    else:
        # log-power family: inverse CDF by dense tabulation
        U = spectra._quad_upper_limit(model)
        ug = np.linspace(0.0, U, 200001)
        dens = np.array([spectra.density_eval(model, x) for x in ug])
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0
                                               * np.diff(ug))])
        half_mass = cdf[-1]
        u = np.interp(p * half_mass, cdf, ug)
    return u, half_mass / N_STRATA


def continuous_values(model: spectra.SpectralModel, times: np.ndarray,
                      seed: int, n_paths: int, offset: int = 0) -> np.ndarray:
    """Stratified spectral sampling of a continuous-spectrum process.

    X(t) = sum_j sqrt(2 m) (xi_j cos u_j t + eta_j sin u_j t), with one
    cos/sin pair per stratum.  The pointwise variance is the total mass
    exactly; covariances at nonzero lag carry a stratification bias that is
    negligible at N_STRATA strata.
    """
    u, m = _strata_frequencies(model)
    amp = math.sqrt(2.0 * m)
    out = np.empty((n_paths, len(times)))
    ct = np.cos(np.outer(u, times))  # (S, T)
    st = np.sin(np.outer(u, times))
    i = 0
    while i < n_paths:
        idx = offset + i
        block, pos = divmod(idx, QUAD_BLOCK)
        take = min(QUAD_BLOCK - pos, n_paths - i)
        rng = _rng_for_block(seed, block)
        normals = rng.standard_normal((QUAD_BLOCK, 2 * N_STRATA))
        xi = normals[:, :N_STRATA]
        eta = normals[:, N_STRATA:]
        # the product always spans the whole block: a row of a matrix
        # product may differ in its last bits with the number of rows
        out[i : i + take] = (amp * (xi @ ct + eta @ st))[pos : pos + take]
        i += take
    return out


def gen_continuous(model: spectra.SpectralModel, grid: GridSpec,
                   seed: int, path_index: int = 0) -> PathSample:
    if not model.is_continuous:
        raise PreconditionError("gen_continuous needs a continuous spectral model")
    vals = continuous_values(model, grid.times(), seed, 1, offset=path_index)
    return PathSample(grid, vals[0], seed,
                      meta={"method": "spectral-quadrature",
                            "n_strata": N_STRATA})


def gen_minorant_continuous(l: float, nu: float, grid: GridSpec, seed: int,
                            path_index: int = 0) -> PathSample:
    """Flat-density minorant: density exp(-l^nu) on [-l, l]."""
    if l < 1:
        raise PreconditionError("l must be >= 1")
    vals = continuous_values(spectra.bandlimited(l), grid.times(), seed, 1,
                             offset=path_index)
    return PathSample(grid, math.exp(-(l ** nu) / 2.0) * vals[0], seed,
                      meta={"method": "spectral-quadrature", "l": l,
                            "variance": 2.0 * l * math.exp(-(l ** nu))})


def sup_norm(path: PathSample) -> float:
    return float(np.max(np.abs(path.values)))


def l2_norm(path: PathSample) -> float:
    t = path.grid.times()
    return float(math.sqrt(np.trapezoid(path.values ** 2, t)))


def batch_norms(amps: np.ndarray, grid: GridSpec, seed: int, n_paths: int,
                norm: str, chunk: int = 2048) -> np.ndarray:
    """Norms of a batch of Fourier-series paths, computed chunkwise."""
    if norm not in ("sup", "l2"):
        raise PreconditionError(f"unknown norm {norm!r}")
    times = grid.times()
    out = np.empty(n_paths)
    for start in range(0, n_paths, chunk):
        cnt = min(chunk, n_paths - start)
        vals = series_values(amps, times, seed, cnt, offset=start)
        if norm == "sup":
            out[start : start + cnt] = np.max(np.abs(vals), axis=1)
        else:
            out[start : start + cnt] = np.sqrt(np.trapezoid(vals ** 2, times, axis=1))
    return out
