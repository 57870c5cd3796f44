"""Sample-path generation on time grids.

Every process is one trigonometric series, sampled by one kernel: the
normals of a counter block times a cos/sin basis built once per call.
Atomic spectra are exact finite Fourier series; continuous spectra,
including the flat Tsirelson minorants, use stratified spectral quadrature
with one cos/sin pair per equal-mass stratum.

All randomness comes from one keying scheme: a counter-based generator keyed
by (seed, path_index // block), where the block is BLOCK paths for Fourier
series and QUAD_BLOCK paths for spectral quadrature.  Any path index
therefore gets the same values no matter how the batch is partitioned.

`batch_norms` reduces each block to its paths' norms as soon as it is drawn.
The sup norm screens every path on a column subsample of the grid first and
evaluates the whole grid only for paths that are not already above the cap,
which `smallball.estimate` sets to its largest radius; an infinite cap
screens none out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfinv, gammainc, gammaincinv

from . import spectra
from .errors import PreconditionError

#: paths per counter block; fixed so batches are partition-independent
BLOCK = 512

#: paths per counter block of spectral quadrature (2 * N_STRATA normals each)
QUAD_BLOCK = 8

#: strata for spectral quadrature
N_STRATA = 4096

#: grid points per screened point of the capped sup norm in `batch_norms`
SCREEN_STRIDE = 32


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
        tail = 2.0 * spectra.discrete_tail(self.nu, self.K)  # refuses a bad nu or K
        if not self.tail_tol > 0:
            raise PreconditionError(f"tail_tol must be positive, got {self.tail_tol}")
        if tail > self.tail_tol:
            raise PreconditionError(
                f"truncated tail variance {tail:.3e} exceeds tail_tol "
                f"{self.tail_tol:.3e}; minimal admissible K is {self._minimal_K()}"
            )

    def _minimal_K(self) -> int:
        """Least k >= K with 2 discrete_tail(nu, k) <= tail_tol, from one
        reverse cumulative sum over the atoms past K down to 1e-18 tail_tol;
        it rounds unlike `discrete_tail`, so two calls of that settle it."""
        depth = max(-math.log(1e-18 * self.tail_tol), 0.0)
        end = max(math.ceil(depth ** (1.0 / self.nu)), self.K + 1)
        atoms = np.exp(spectra.discrete_log_masses(self.nu, end)[self.K + 1:])
        tails = 2.0 * np.cumsum(atoms[::-1])[::-1]  # tails[i]: past K + i
        k = self.K + int(np.argmax(tails <= self.tail_tol))
        if 2.0 * spectra.discrete_tail(self.nu, k) > self.tail_tol:
            return k + 1
        if 2.0 * spectra.discrete_tail(self.nu, k - 1) <= self.tail_tol:
            return k - 1
        return k

    def amplitudes(self) -> np.ndarray:
        """amp[0] for the constant term, amp[k] for each cos/sin pair."""
        amp = np.sqrt(2.0 * np.exp(spectra.discrete_log_masses(self.nu, self.K)))
        amp[0] = 1.0
        return amp


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _series_block(basis: np.ndarray, seed: int, block: int,
                  size: int) -> np.ndarray:
    """The `size` paths of one counter block: its normals times the basis.

    The product always spans the whole block, so a path is the same however
    many of its block's paths are read: a row of a matrix product may differ
    in its last bits with the number of rows.
    """
    normals = _rng_for_block(seed, block).standard_normal((size, len(basis)))
    return normals @ basis


def _rows(basis: np.ndarray, seed: int, n_paths: int, offset: int,
          size: int) -> np.ndarray:
    """Paths offset..offset+n_paths-1 of a series keyed in blocks of `size`."""
    if not offset >= 0:
        raise PreconditionError(f"path index must be >= 0, got {offset}")
    out = np.empty((n_paths, basis.shape[1]))
    i = 0
    while i < n_paths:
        block, pos = divmod(offset + i, size)
        take = min(size - pos, n_paths - i)
        out[i : i + take] = _series_block(basis, seed, block, size)[pos : pos + take]
        i += take
    return out


def _cos_sin_rows(phase: np.ndarray, first_sin: int) -> np.ndarray:
    """Rows cos(phase_j), then sin(phase_j) for j >= first_sin."""
    n = len(phase)
    basis = np.empty((2 * n - first_sin, phase.shape[1]))
    np.cos(phase, out=basis[:n])
    np.sin(phase[first_sin:], out=basis[n:])
    return basis


def _fourier_basis(amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows amp_k cos 2 pi k t for k = 0..K, then amp_k sin 2 pi k t for
    k = 1..K: the order of the normals xi_0..xi_K, eta_1..eta_K."""
    phase = 2.0 * np.pi * np.outer(np.arange(len(amps)), times)
    return _cos_sin_rows(phase, 1) * np.concatenate([amps, amps[1:]])[:, None]


def series_values(amps: np.ndarray, times: np.ndarray, seed: int,
                  n_paths: int, offset: int = 0) -> np.ndarray:
    """(n_paths, len(times)) matrix of Fourier-series paths, block-keyed:
    X(t) = amp0*xi0 + sum_k amp_k*(xi_k cos 2 pi k t + eta_k sin 2 pi k t)."""
    return _rows(_fourier_basis(amps, times), seed, n_paths, offset, BLOCK)


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


@functools.lru_cache(maxsize=32)
def _strata_frequencies(model: spectra.SpectralModel) -> tuple[np.ndarray, float]:
    """Midpoint-quantile frequencies of N_STRATA equal-measure strata of the
    positive half of the spectral measure, plus the mass of one stratum,
    which is `spectra.total_mass` shared out.

    Cached per model; the frequencies are read-only, as every caller shares
    them."""
    p = (np.arange(N_STRATA) + 0.5) / N_STRATA
    kind, nu = model.kind, model.nu
    if kind == spectra.BANDLIMITED:
        u = p * model.cutoff
    elif kind == spectra.CONTINUOUS_NU and nu == 1.0:
        u = -np.log1p(-p)
    elif kind == spectra.CONTINUOUS_NU and nu == 2.0:
        u = erfinv(p)
    elif kind in (spectra.CONTINUOUS_NU, spectra.TRUNCATED_CONTINUOUS_NU):
        # int_0^u exp(-x^nu) dx is proportional to gammainc(1/nu, u^nu)
        P = 1.0 if model.cutoff is None else gammainc(1.0 / nu, model.cutoff ** nu)
        u = gammaincinv(1.0 / nu, p * P) ** (1.0 / nu)
    else:
        # log-power family: inverse CDF tabulated uniformly on [0, 1] and
        # geometrically from 1 to U, as the density varies on the log scale
        U = spectra._quad_upper_limit(model)
        ug = np.concatenate([np.linspace(0.0, 1.0, 1000, endpoint=False),
                             np.geomspace(1.0, U, 200000)])
        dens = spectra.density(model, ug)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0
                                               * np.diff(ug))])
        u = np.interp(p * cdf[-1], cdf, ug)
    u.flags.writeable = False
    return u, spectra.total_mass(model) / (2 * N_STRATA)


def continuous_values(model: spectra.SpectralModel, times: np.ndarray,
                      seed: int, n_paths: int, offset: int = 0) -> np.ndarray:
    """Stratified spectral sampling of a continuous-spectrum process.

    X(t) = sum_j sqrt(2 m) (xi_j cos u_j t + eta_j sin u_j t), with one
    cos/sin pair per stratum.  The pointwise variance is the total mass
    exactly; covariances at nonzero lag carry a stratification bias that is
    negligible at N_STRATA strata.
    """
    u, m = _strata_frequencies(model)
    vals = _rows(_cos_sin_rows(np.outer(u, times), 0), seed, n_paths, offset,
                 QUAD_BLOCK)
    vals *= math.sqrt(2.0 * m)
    return vals


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


def _max_abs(v: np.ndarray) -> np.ndarray:
    return np.maximum(v.max(axis=1), -v.min(axis=1))


def batch_norms(amps: np.ndarray, grid: GridSpec, seed: int, n_paths: int,
                norm: str, cap: float = math.inf) -> np.ndarray:
    """Norms of a batch of Fourier-series paths, reduced per counter block.

    A squared L2 norm is the trapezoidal quadratic form z G z' of the
    block's normals z, with G = basis W basis' for the trapezoid weights W,
    so no L2 path is formed.

    sup norms above `cap` are returned as a lower bound that is itself above
    `cap`.  Each block is screened first: its normals times every
    SCREEN_STRIDE-th basis column give each path's maximum over those grid
    points, and only paths whose screen maximum is at most `cap` are
    evaluated on the whole grid; the others keep the screen maximum.  The
    BLAS may round the products of a column or row subset differently in the
    last bits from the whole block's, so both the lower bound and the norms
    at most `cap` hold to that rounding; with `cap` infinite every row is
    evaluated and the norms are those of the whole block's paths, as
    `gen_periodic` forms them.

    Each block is reduced whole, so a path's norm depends on (seed, block,
    cap) and not on how many of its block's paths are read.
    """
    if norm not in ("sup", "l2"):
        raise PreconditionError(f"unknown norm {norm!r}")
    times = grid.times()
    basis = _fourier_basis(amps, times)
    if norm == "l2":
        half = np.diff(times) / 2.0
        gram = (basis * (np.append(half, 0.0) + np.insert(half, 0, 0.0))) @ basis.T
    else:
        coarse = np.ascontiguousarray(basis[:, ::SCREEN_STRIDE])
    out = np.empty(n_paths)
    for start in range(0, n_paths, BLOCK):
        z = _rng_for_block(seed, start // BLOCK).standard_normal((BLOCK, len(basis)))
        if norm == "sup":
            norms = _max_abs(z @ coarse)
            near = np.flatnonzero(norms <= cap)
            norms[near] = _max_abs(z[near] @ basis)
        else:
            norms = np.sqrt(np.einsum("ij,ij->i", z @ gram, z))
        out[start : start + BLOCK] = norms[: n_paths - start]
    return out
