"""Sample-path generation on time grids.

Atomic spectra give exact finite Fourier series: the normals of a counter
block times a cos/sin basis built once per call.  A continuous-spectrum
path at a set of times is z L, with z one normal per row of L, the
pivoted-Cholesky factor of the covariance that the `spectral_rule` gives
at those times.  That rule is composite Gauss-Legendre quadrature of the
density, whose covariance is within an estimated `cov_error` (at most
MAX_COV_ERROR, about 4 COV_TOL for continuous-nu) of the model's at every
lag of the times' span.  The factor stops once its residual diagonal is at
most COV_TOL, so every sampled covariance entry is within the rule's error
plus that residual.  It is cached per (model, times), read-only; an input
with no rule, whose refusal names the cause, or whose factor would take too
much work, is refused.
No minorant is defined here: `tsirelson` gives the inputs of its paths.

All randomness comes from one keying scheme: a counter-based generator keyed
by (seed, path_index // block), where the block is BLOCK paths for Fourier
series and QUAD_BLOCK paths for continuous ones; both are 64-bit words, so
a seed outside [0, 2^64) or a block past 2^64 is refused.  Any path index
therefore gets the same values no matter how the batch is partitioned.  A
continuous path's factor depends on the whole set of the call's times, so it
is one realisation only across calls with the same times.

`batch_norms` reduces each block to its paths' norms as soon as it is drawn.
Given radii, each sup norm is first bracketed by the path's maximum over
every SCREEN_STRIDE-th grid point and that maximum plus a curvature bound;
only paths whose bracket holds a radius are evaluated on the whole grid,
about 3% of `smallball.estimate`'s paths.  Without radii every path is.
Its blocks are shared out over worker threads in contiguous ranges while
numpy's bundled OpenBLAS is held to one thread, so every product is the
single-threaded one and the norms do not depend on the worker count or on
the process's BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import spectra
from .errors import CapacityError, PreconditionError

#: paths per counter block; fixed so batches are partition-independent
BLOCK = 512

#: paths per counter block of continuous paths (one normal per factor row)
QUAD_BLOCK = 8

#: one-sided spectral mass that the Gauss-Legendre rule may leave out, and
#: the largest residual diagonal at which the covariance factor stops
COV_TOL = 1e-10

#: largest covariance-error estimate that a Gauss-Legendre rule may state
MAX_COV_ERROR = 8.0 * COV_TOL

#: most cos/sin pairs that a Gauss-Legendre rule may take
MAX_PAIRS = 1 << 16

#: most work (pairs + points) points^2 of one covariance factor: its Gram,
#: and its elimination at full rank; it caps the points at about 3,200
MAX_FACTOR_WORK = 1 << 35

#: most entries of a Fourier basis, 2K + 1 rows by the times, of the
#: (2K + 1)-square Gram of its L2 norms, and of a counter block's normals,
#: BLOCK by 2K + 1: 256 MiB of float64 each
MAX_BASIS_ENTRIES = 1 << 25

#: basis entries held at once while the Gram is summed over node chunks
GRAM_CHUNK = 1 << 18

#: a pivot's residual diagonal may fall short of the largest by this share
#: of it plus this share of R(0)
PIVOT_RTOL, PIVOT_ATOL = 1e-6, 1e-13

#: lags, evenly spaced over [0, span], at which the panels' error is estimated
ESTIMATE_LAGS = 5

#: Gauss-Legendre points per panel, and their nodes and weights on [-1, 1]
GL_POINTS = 20
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_POINTS)

#: largest phase u t that one panel spans over the times' range
PANEL_PHASE = 3.0 * math.pi

#: geometric panels that replace the first one where the density has a
#: branch point at 0, and the ratio of each one's ends
GRADED_PANELS = 14
GRADING = 0.2

PIVOTED_CHOLESKY = "pivoted-cholesky"

#: grid points per screened point of the sup norm in `batch_norms`
SCREEN_STRIDE = 16


@dataclass(frozen=True)
class GridSpec:
    t_min: float = 0.0
    t_max: float = 1.0
    n_points: int = 1024

    def __post_init__(self):
        if self.n_points < 2:
            raise PreconditionError("n_points must be >= 2")
        if self.n_points > MAX_BASIS_ENTRIES:  # refused before times() allocates
            raise CapacityError(f"{self.n_points} grid points pass {MAX_BASIS_ENTRIES}")
        if not 0 < self.t_max - self.t_min < math.inf:  # NaN fails too
            raise PreconditionError("grid requires finite t_min < t_max with a finite span")

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
    """The discrete-nu series truncated at K atoms a side; `tail_variance`
    is the variance 2 sum_{k>K} mass_k that the truncation leaves out."""
    nu: float
    K: int
    tail_variance: float = field(init=False)

    def __post_init__(self):
        # refuses a bad nu or K, and a tail past 2^22 atoms
        object.__setattr__(self, "tail_variance",
                           2.0 * spectra.discrete_tail(self.nu, self.K))

    def amplitudes(self) -> np.ndarray:
        """amp[0] for the constant term, amp[k] for each cos/sin pair."""
        return np.exp(spectra.discrete_log_amplitudes(self.nu, self.K))


def check_seed(seed: int) -> None:
    """Refuse a seed that is no 64-bit word, the first word of every key."""
    if not 0 <= seed < 1 << 64:
        raise PreconditionError(f"seed must be in [0, 2^64), got {seed}")


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    """The generator of one counter block, keyed by the 64-bit words (seed,
    block): a seed outside [0, 2^64) or a block past them is refused."""
    check_seed(seed)
    if not block < 1 << 64:
        raise CapacityError(f"counter block {block} (path index // block size) is past 2^64")
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


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
    _check_basis_size(size, len(basis))  # each block's normals
    out = np.empty((n_paths, basis.shape[1]))
    i = 0
    while i < n_paths:
        block, pos = divmod(offset + i, size)
        take = min(size - pos, n_paths - i)
        out[i : i + take] = _series_block(basis, seed, block, size)[pos : pos + take]
        i += take
    return out


def _check_phase_range(top: float, times: np.ndarray | float, scale: float = 1.0) -> None:
    """Refuse phases scale * u * t past the float range, whose cos and sin
    are NaN, from one product: the largest frequency `top` times max |t|."""
    t_abs = float(np.max(np.abs(times), initial=0.0))
    if not scale * (float(top) * t_abs) < math.inf:  # NaN fails too
        raise CapacityError(f"phases of frequency {scale * top:.3g} at |t| = "
                            f"{t_abs:.3g} are past the float range")


def _check_basis_size(rows: int, columns: int) -> None:
    if rows * columns > MAX_BASIS_ENTRIES:  # refused before it is allocated
        raise CapacityError(f"a {rows} x {columns} Fourier basis or Gram passes "
                            f"{MAX_BASIS_ENTRIES} entries")


def _fourier_basis(amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows amp_k cos 2 pi k t for k = 0..K, then amp_k sin 2 pi k t for
    k = 1..K: the order of the normals xi_0..xi_K, eta_1..eta_K."""
    _check_basis_size(2 * len(amps) - 1, len(times))
    _check_phase_range(len(amps) - 1, times, 2.0 * np.pi)
    phase = 2.0 * np.pi * np.outer(np.arange(len(amps)), times)
    basis = np.empty((2 * len(amps) - 1, phase.shape[1]))
    np.cos(phase, out=basis[: len(amps)])
    np.sin(phase[1:], out=basis[len(amps) :])
    return basis * np.concatenate([amps, amps[1:]])[:, None]


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
                            "tail_variance": cfg.tail_variance,
                            "path_index": path_index})


@dataclass(frozen=True)
class SpectralRule:
    """Frequencies u_j and amplitudes amp_j = sqrt(2 w_j) of the series
    X(t) = sum_j amp_j (xi_j cos u_j t + eta_j sin u_j t), whose covariance
    is R_N(t) = sum_j amp_j^2 cos(u_j t) with R_N(0) the total mass.
    `cov_error` estimates the largest |R_N(t) - R(t)| for |t| up to the
    span the rule was made for."""
    u: np.ndarray
    amp: np.ndarray
    cov_error: float


def _paths_of(model: spectra.SpectralModel) -> str:
    """The model as continuous-path refusals name it."""
    params = ", ".join(f"{name} {value:g}" for name, value in (
        ("nu", model.nu), ("alpha", model.alpha), ("cutoff", model.cutoff)) if value is not None)
    return f"continuous paths of {model.kind} ({params})"


def spectral_rule(model: spectra.SpectralModel, span: float) -> SpectralRule:
    """The node rule of continuous paths whose times span `span`.  A
    CapacityError names why there is none: the log-power family's tail has
    no closed inverse, the tail point is past the float range (tiny nu), or
    no sound rule takes at most MAX_PAIRS pairs (small nu over long spans).

    Composite Gauss-Legendre on n panels, n first from the phase the span
    asks for, where the rule is sound (`_gauss_legendre`).  An unsound rule
    doubles n: a near-step density at large nu needs narrower panels than
    the phase does.  The pair count is known before any node is built."""
    where = f"{_paths_of(model)} over span {span:.6g}"
    top = spectra.tail_mass_point(model, COV_TOL)
    if top is None:  # before the mass, which is a quadrature for log-power
        raise CapacityError(f"{where}: the tail has no closed inverse to place the nodes")
    mass = spectra.total_mass(model)  # refuses a mass past the float range
    if top == math.inf:
        raise CapacityError(f"{where}: the tail point of mass {COV_TOL:g} is past "
                            "the float range")
    _check_phase_range(top, span)
    # exp(-u^nu) has a branch point at u = 0 for non-integer nu
    graded = GRADED_PANELS - 1 if model.nu and not float(model.nu).is_integer() else 0
    n = max(math.ceil(top * span / PANEL_PHASE), 1)
    while GL_POINTS * (n + graded) <= MAX_PAIRS:
        rule = _gauss_legendre(model, span, mass, top, n, graded)
        if rule is not None:
            return rule
        n *= 2
    raise CapacityError(f"{where}: no sound Gauss-Legendre rule within {MAX_PAIRS} "
                        "cos/sin pairs")


def _gauss_nodes(model: spectra.SpectralModel,
                 edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GL_POINTS Gauss-Legendre nodes on each panel between `edges`, and
    their weights times `spectra.density`."""
    centre, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
    u = (centre[:, None] + half[:, None] * _GL_X).ravel()
    return u, (half[:, None] * _GL_W).ravel() * spectra.density(model, u)


def _gauss_legendre(model: spectra.SpectralModel, span: float, mass: float,
                    top: float, n: int, graded: int) -> SpectralRule | None:
    """Gauss-Legendre nodes on n equal panels of [0, top], the first split
    into graded + 1 geometric panels towards a branch point at 0.  The last
    node also takes the one-sided mass m that the panels leave out.

    E, the panels' error, is estimated as the largest change of
    sum_j w_j cos(u_j t) over ESTIMATE_LAGS lags of [0, span] when every
    panel is halved.  Then |R_N(t) - R(t)| <= 4 |m| + 4 E, plus float
    rounding of at most 2 eps R(0) (pairs + top span) in the weights, the
    phases and the sum; an estimate, as E is.  None, so unsound, where the
    last weight is negative (m below it) or the estimate exceeds
    MAX_COV_ERROR."""
    edges = np.linspace(0.0, top, n + 1)
    if graded:
        edges = np.concatenate([[0.0], edges[1] * GRADING ** np.arange(graded, 0, -1),
                                edges[1:]])
    u, w = _gauss_nodes(model, edges)
    halved_u, halved_w = _gauss_nodes(
        model, np.sort(np.concatenate([edges, (edges[1:] + edges[:-1]) / 2.0])))
    lags = np.linspace(0.0, span, ESTIMATE_LAGS)[:, None]

    def lag_sums(u, w):  # sum_j w_j cos(u_j t) at the lags, one array held
        phase = lags * u
        return np.cos(phase, out=phase) @ w

    panel_error = np.max(np.abs(lag_sums(u, w) - lag_sums(halved_u, halved_w)))
    tail = float(mass / 2.0 - math.fsum(w))
    w[-1] += tail
    error = float(4.0 * abs(tail) + 4.0 * panel_error
                  + 2.0 * np.finfo(float).eps * mass * (len(u) + top * span))
    if not (w[-1] >= 0.0 and error <= MAX_COV_ERROR):  # NaN too
        return None
    return SpectralRule(u, np.sqrt(2.0 * w), error)


def _rule_gram(rule: SpectralRule, times: np.ndarray) -> np.ndarray:
    """The rule's covariance sum_j amp_j^2 cos(u_j (t_i - t_k)) at the
    times, as the Gram B'B of its cos/sin basis B: positive semidefinite by
    construction.  The phases are taken from the first time, so none is
    past top span, and the nodes are summed in chunks of at most GRAM_CHUNK
    basis entries, so memory stays bounded however many pairs there are."""
    t = times - times[:1]
    gram = np.zeros((len(t), len(t)))
    step = min(max(GRAM_CHUNK // max(2 * len(t), 1), 1), len(rule.u))
    buffer = np.empty((2 * step, len(t)))
    for j in range(0, len(rule.u), step):
        u, amp = rule.u[j : j + step], rule.amp[j : j + step]
        basis = buffer[: 2 * len(u)]
        cos, sin = basis[: len(u)], basis[len(u) :]
        np.outer(u, t, out=sin)  # the phases, overwritten by their sines
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
        basis *= np.concatenate([amp, amp])[:, None]
        gram += basis.T @ basis
    return gram


def _pivoted_cholesky(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows L, pivots and residual of the pivoted Cholesky factorisation of
    a positive semidefinite `cov` (Harbrecht, Peters and Schneider 2012).

    It stops once the largest residual diagonal is at most COV_TOL; that
    `residual` bounds every entry of cov - L'L, which is positive
    semidefinite.  Each pivot is the lowest index whose residual diagonal
    is within PIVOT_RTOL of the largest plus PIVOT_ATOL R(0), not the
    argmax, so that rounding-level changes of `cov`, as a BLAS build or
    thread count makes, move no pivot: a path then moves by that change
    carried through the factor, not to another realisation."""
    n = len(cov)
    d = cov.diagonal().copy()
    largest = float(np.max(d, initial=0.0))
    slack = PIVOT_ATOL * largest
    rows = np.empty((n, n))
    pivots = []
    while largest > COV_TOL:
        k = len(pivots)
        p = int(np.argmax(d >= largest * (1.0 - PIVOT_RTOL) - slack))
        row = cov[p] - rows[:k, p] @ rows[:k]
        row /= math.sqrt(d[p])
        rows[k] = row
        d -= row * row
        d[p] = 0.0
        pivots.append(p)
        largest = float(np.max(d))
    return rows[: len(pivots)].copy(), np.array(pivots, dtype=int), max(largest, 0.0)


@functools.lru_cache(maxsize=16)
def _factor(model: spectra.SpectralModel, times: bytes) -> tuple[np.ndarray, dict]:
    """The read-only factor L of the `spectral_rule` covariance at the
    float64 `times`, and the meta of every path drawn from it; cached per
    (model, times).  Refused where `spectral_rule` gives no rule, or where the
    factor's work (pairs + points) points^2, its Gram and at full rank its
    elimination, passes MAX_FACTOR_WORK."""
    t = np.frombuffer(times)
    span = float(np.ptp(t)) if t.size else 0.0
    rule = spectral_rule(model, span)
    work = (len(rule.u) + t.size) * float(t.size) ** 2
    if work > MAX_FACTOR_WORK:
        raise CapacityError(f"{_paths_of(model)} at {t.size} times over span {span:.6g}: "
                            f"factor work (pairs + points) points^2 = {work:.3g} passes "
                            f"{MAX_FACTOR_WORK:.3g}")
    rows, _, residual = _pivoted_cholesky(_rule_gram(rule, t))
    rows.flags.writeable = False
    return rows, {"method": PIVOTED_CHOLESKY, "rank": len(rows), "n_pairs": len(rule.u),
                  "cov_error_estimate": rule.cov_error + residual}


def continuous_values(model: spectra.SpectralModel, times: np.ndarray,
                      seed: int, n_paths: int, offset: int = 0) -> np.ndarray:
    """(n_paths, len(times)) paths of a continuous-spectrum process: z L,
    with z the normals of a path's row, one per row of the factor L of the
    `spectral_rule` covariance at `times`.

    Every entry of the sampled covariance L'L is within the factor's
    `cov_error_estimate` of R at the times' lags.  The factor, and so the
    path of a (seed, path index), depends on the whole set of times: a
    path's values at one time differ between calls with other times.
    """
    times = np.asarray(times, dtype=float)
    rows, _ = _factor(model, times.tobytes())
    return _rows(rows, seed, n_paths, offset, QUAD_BLOCK)


def gen_continuous(model: spectra.SpectralModel, grid: GridSpec,
                   seed: int, path_index: int = 0) -> PathSample:
    """Path `path_index` of `continuous_values` on the grid's times.  The
    meta names the method, the factor's rank (normals per path), the rule's
    pair count and the stated covariance error."""
    rows, meta = _factor(model, grid.times().tobytes())
    vals = _rows(rows, seed, 1, path_index, QUAD_BLOCK)[0]
    return PathSample(grid, vals, seed, meta=dict(meta))


def _max_abs(v: np.ndarray) -> np.ndarray:
    return np.maximum(v.max(axis=1), -v.min(axis=1))


#: what brackets a block's sup norms: the basis at the screen times, per
#: normal a_k and (2 pi k)^2 a_k, the margin per unit of S, and h^2 / 8 with
#: its rounding (see `batch_norms`)
_Screen = namedtuple("_Screen", "coarse weights rho reach")


def _screen(amps: np.ndarray, basis: np.ndarray, times: np.ndarray) -> _Screen:
    """The screen of `batch_norms`: every SCREEN_STRIDE-th time and the last."""
    columns = np.append(np.arange(0, len(times) - 1, SCREEN_STRIDE), len(times) - 1)
    gap = float(np.max(np.diff(times[columns])))
    K = len(amps) - 1
    rho = np.finfo(float).eps * (8.0 * np.pi * K * float(np.max(np.abs(times)))
                                 + 4.0 * K + 20.0)
    curvature = (2.0 * np.pi * np.arange(K + 1)) ** 2 * amps
    weights = np.stack([np.concatenate([amps, amps[1:]]),
                        np.concatenate([curvature, curvature[1:]])], axis=1)
    return _Screen(np.ascontiguousarray(basis[:, columns]), weights, rho,
                   gap * gap / 8.0 * (1.0 + rho))


def _sup_bracket(z: np.ndarray, screen: _Screen) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of normals z: the screen maximum m, the bracket's upper end
    m + B h^2 / 8 (1 + rho) + margin, and the margin S rho."""
    m = _max_abs(z @ screen.coarse)
    s, b = (np.abs(z) @ screen.weights).T
    margin = s * screen.rho
    return m, m + b * screen.reach + margin, margin


def _holds_radius(radii: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Whether some one of the sorted `radii` lies in [low, high], per row."""
    return np.searchsorted(radii, low) < np.searchsorted(radii, high, side="right")


@functools.lru_cache(maxsize=1)
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy wheels
    bundle in numpy.libs; None without one that loads and has the 64-bit
    thread calls, as in a build against a system BLAS.  Looked up once."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    libs = glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas*"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
    except OSError:
        return None
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


#: held while a `batch_norms` call has the BLAS thread count pinned, so that
#: calls from several threads neither unpin one another nor restore a pin
_BLAS_PIN = threading.Lock()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def batch_norms(amps: np.ndarray, grid: GridSpec, seed: int, n_paths: int,
                norm: str, radii=(), *, threads: int = 1) -> np.ndarray:
    """Norms of a batch of Fourier-series paths, reduced per counter block.

    A squared L2 norm is the trapezoidal quadratic form z G z' of the
    block's normals z, with G = basis W basis' for the trapezoid weights W,
    so no L2 path is formed; it ignores `radii`.

    Without `radii` every sup norm is the whole grid's, the same bits as
    `gen_periodic` gives.  With `radii` (each >= 0), each returned sup norm
    lies on the same side of every radius as that one, but may be a lower
    bound of it.  A path is X(t) = sum_i z_i b_i(t), its normals times the
    trigonometric polynomials b_i = a_k cos 2 pi k t or a_k sin 2 pi k t of
    degree K, so |X''| <= B = sum_i (2 pi k_i)^2 a_k |z_i| everywhere.  Let
    m be its maximum of |X| over the screen, every SCREEN_STRIDE-th grid
    point and the last one, with h the largest gap between screen times.
    Between two screen times |X| is at most the larger of its ends plus
    B h^2 / 8 (the linear interpolant's error), so the grid's maximum, and
    the interval's too, lies in [m, m + B h^2 / 8].  Where no radius is in
    [m - margin, m + B h^2 / 8 (1 + rho) + margin] the path returns m;
    only the other paths are evaluated on the whole grid.

    The margin covers rounding.  With u = eps / 2, S = sum_i a_k |z_i| and
    n = 2K + 1 terms, a basis entry's phase fl(fl(2 pi) fl(k t)) is within
    3.01 u 2 pi K max|t| of 2 pi k t, its cos or sin within 4 ulp (8 u),
    and the product by a_k adds u: each entry is within a_k u (6.02 pi K
    max|t| + 10) of b_i(t).  A product's sum of n terms, in any order, adds
    at most 1.01 n u S.  So each computed value is within delta = u S
    (6.02 pi K max|t| + 1.01 n + 11) of X(t), and the whole grid's computed
    maximum within 2 delta of the bracket about the computed m.  The margin
    is S rho, rho = eps (8 pi K max|t| + 4K + 20), which is 2 delta plus
    room for forming S, B, h^2 and the bracket's ends; the factor 1 + rho
    on B h^2 / 8 covers its own rounding, at most (n + 16) u of it.  A
    product over a subset of a block's rows may round its last bits unlike
    the whole block's, by at most 2.02 n u S: a whole-grid norm of a path
    with a radius within its margin is taken from the whole block's
    product, which is the one that `gen_periodic` takes.

    Each block is reduced whole and every decision is made per block, so a
    path's norm depends on (seed, block, radii) and not on how many of its
    block's paths are read.

    The blocks are reduced on min(threads, usable CPUs, blocks) workers,
    the calling thread and pool threads, each taking one contiguous range
    of blocks and reusing one normals buffer; at one worker the same loop
    runs in the calling thread alone.  The RNG and the products release the
    GIL, so both run in parallel.  For the whole call numpy's bundled
    OpenBLAS is held to one thread and then set back, also on error.  That
    is a setting of the whole process: BLAS calls of other threads during
    the call run on one thread too, calls of `batch_norms` from several
    threads run one at a time, and at `threads = 1` the products lose the
    BLAS threads that an unpinned product would use.  Every product is
    therefore the single-threaded one, and the norms are the same bits at
    any `threads` and any BLAS thread count before the call.  Where numpy
    has no bundled OpenBLAS to control, one worker runs and the BLAS is
    left as it is.
    """
    if norm not in ("sup", "l2"):
        raise PreconditionError(f"unknown norm {norm!r}")
    if not (n_paths >= 0 and threads >= 1):
        raise PreconditionError(f"need n_paths >= 0 and threads >= 1, got "
                                f"{n_paths} and {threads}")
    try:
        out = np.empty(n_paths)
    except (MemoryError, ValueError):  # ValueError: past numpy's array size
        raise CapacityError(f"{n_paths} norms do not fit in memory") from None
    radii = np.sort(np.asarray(radii, dtype=float).ravel())
    if not np.all(radii >= 0.0):  # NaN fails too
        raise PreconditionError(f"radii must be >= 0, got {radii.tolist()}")
    blas = _blas_threads()
    if blas is None:
        return _reduce_blocks(out, amps, grid, seed, norm, radii, 1)
    get, put = blas
    with _BLAS_PIN:
        before = get()
        put(1)
        try:
            return _reduce_blocks(out, amps, grid, seed, norm, radii, threads)
        finally:
            put(before)


def _reduce_blocks(out: np.ndarray, amps: np.ndarray, grid: GridSpec,
                   seed: int, norm: str, radii: np.ndarray, threads: int) -> np.ndarray:
    """`batch_norms` into `out` on at most `threads` workers; `radii` sorted."""
    n_paths = len(out)
    if norm == "l2":
        _check_basis_size(2 * len(amps) - 1, 2 * len(amps) - 1)
    times = grid.times()
    basis = _fourier_basis(amps, times)
    _check_basis_size(BLOCK, len(basis))  # each block's normals
    if norm == "l2":
        half = np.diff(times) / 2.0
        gram = (basis * (np.append(half, 0.0) + np.insert(half, 0, 0.0))) @ basis.T
    elif len(radii):
        screen = _screen(amps, basis, times)

    def reduce(first: int, last: int) -> None:
        z = np.empty((BLOCK, len(basis)))
        for block in range(first, last):
            _rng_for_block(seed, block).standard_normal(out=z)
            if norm == "l2":
                norms = np.sqrt(np.einsum("ij,ij->i", z @ gram, z))
            elif not len(radii):
                norms = _max_abs(z @ basis)
            else:
                norms, high, margin = _sup_bracket(z, screen)
                rows = np.flatnonzero(_holds_radius(radii, norms - margin, high))
                norms[rows] = full = _max_abs(z[rows] @ basis)
                near = rows[_holds_radius(radii, full - margin[rows], full + margin[rows])]
                if len(near):
                    norms[near] = _max_abs(z @ basis)[near]
            start = block * BLOCK
            out[start : start + BLOCK] = norms[: n_paths - start]

    blocks = -(-n_paths // BLOCK)
    workers = min(threads, _usable_cpus(), blocks)
    if workers <= 1:
        reduce(0, blocks)
        return out
    ends = [blocks * w // workers for w in range(workers + 1)]
    # the calling thread takes the first range: one pool thread, and the
    # malloc arena each thread keeps, fewer
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(reduce, a, b) for a, b in zip(ends[1:-1], ends[2:])]
        reduce(ends[0], ends[1])
        for f in futures:
            f.result()
    return out
