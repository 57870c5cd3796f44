"""RKHS unit balls, metric-entropy brackets, and entropy <-> small-ball
translators.

The unit ball of the periodic-process RKHS is a coefficient ellipsoid:
functions h(t) = sum_k c_k exp(-2 pi i k t) with
sum_k |c_k|^2 exp(|k|^nu) <= 1.  In the real cos/sin coordinates
(x0, u_k, v_k) the semi-axes are 1 and sqrt(2) exp(-k^nu / 2).

Entropy in sup norm is bracketed: the upper side covers a truncated
ellipsoid by a coordinate lattice (a box of per-coordinate side eps/d maps
into a sup-norm ball of radius eps/2, dropped coordinates contribute the
other eps/2); the lower side is volumetric against the Fourier-coefficient
box {|c_k| <= eps} that contains every sup-norm eps-ball section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, log_ndtr, ndtri_exp

from . import spectra
from .curves import BoundCurve
from .errors import (
    CapacityError,
    CertificateError,
    PreconditionError,
    PropertyViolation,
)

#: truncated-ellipsoid dimension cap for the covering count
MAX_DIM = 14

#: histogram bins per unit of the ellipsoid's quadratic form in the cell count
_GRID = 2 ** 16

_INT64_MAX = int(np.iinfo(np.int64).max)

#: rules that produce the upper side of an entropy bracket
SINGLE_BALL = "single-ball"
LATTICE_COVERING = "lattice-covering"
COORDINATE_PRODUCT = "coordinate-product"


@dataclass(frozen=True)
class CoefficientEllipsoid:
    nu: float
    K: int

    def __post_init__(self):
        spectra.discrete_log_masses(self.nu, self.K)  # refuses a bad nu or K

    def semi_axes(self) -> np.ndarray:
        """Real-coordinate semi-axes: x0 then (u_k, v_k) pairs, k=1..K, as
        sqrt(2) exp(-k^nu / 2), normal where exp(-k^nu) underflows."""
        a = math.sqrt(2.0) * np.exp(0.5 * spectra.discrete_log_masses(self.nu, self.K))
        a[0] = 1.0
        return np.repeat(a, 2)[1:]

    def membership(self, c: np.ndarray) -> float:
        """sum |c_k|^2 exp(|k|^nu) for complex coefficients c_{-K}..c_K."""
        c = np.asarray(c)
        if len(c) != 2 * self.K + 1:
            raise PreconditionError("coefficient vector must have 2K+1 entries")
        log_mass = spectra.discrete_log_masses(self.nu, self.K)
        k = np.abs(np.arange(-self.K, self.K + 1))
        return float(np.sum(np.abs(c) ** 2 * np.exp(-log_mass[k])))

    @property
    def sup_radius(self) -> float:
        """max sup-norm over the ball: sqrt(R(0)) of the process."""
        log_mass = spectra.discrete_log_masses(self.nu, self.K)
        return math.sqrt(1.0 + 2.0 * float(np.sum(np.exp(log_mass[1:]))))


def ellipsoid_member_to_function(ell: CoefficientEllipsoid, c: np.ndarray,
                                 t_grid: np.ndarray) -> np.ndarray:
    """h(t) = sum_k c_k exp(-2 pi i k t); real part for symmetric c."""
    if ell.membership(c) > 1.0 + 1e-12:
        raise PreconditionError("coefficients lie outside the unit ball")
    k = np.arange(-ell.K, ell.K + 1)
    phases = np.exp(-2j * np.pi * np.outer(k, np.asarray(t_grid)))
    vals = np.asarray(c) @ phases
    return np.real(vals)


@dataclass(frozen=True)
class EntropyBracket:
    epsilon: float
    H_lower: float
    H_upper: float
    lower_method: str
    upper_method: str
    upper_cells: int  # balls in the cover whose log is H_upper

    def __post_init__(self):
        if self.H_lower > self.H_upper + 1e-9:
            raise CertificateError("entropy bracket is inverted")


def _product_bound(axes: np.ndarray, steps: np.ndarray) -> int:
    """Cells of the lattice box that contains the ellipsoid."""
    return int(np.prod(2 * np.ceil(axes / steps) + 1))


def _term_counts(a: float, s: float) -> np.ndarray:
    """Number of j in 0..floor(a/s) with floor(_GRID (j s / a)^2) == b, for
    every bin b = 0.._GRID, in O(min(floor(a/s), _GRID))."""
    top = math.floor(a / s)
    if top > _GRID:
        return _term_counts_by_inverse(a, s, top)
    j = np.arange(top + 1)
    return np.bincount(np.floor(_GRID * (j * s / a) ** 2).astype(np.int64),
                       minlength=_GRID + 1)


def _term_counts_by_inverse(a: float, s: float, top: int) -> np.ndarray:
    """`_term_counts` in O(_GRID) whatever top = floor(a/s), by inverting the
    bin formula at every bin edge."""
    b = np.arange(_GRID + 1)

    def bin_of(j):
        return np.floor(_GRID * (j * s / a) ** 2)

    # last j in bins <= b: the inverse is exact up to rounding, so one step
    # either way against the bin formula itself makes it exact
    j = np.minimum(np.floor(a / s * np.sqrt((b + 1) / _GRID)), top)
    j -= bin_of(j) > b
    j += (j < top) & (bin_of(j + 1) <= b)
    return np.diff(j, prepend=-1.0).astype(np.int64)


def _count_lattice_cells(axes: np.ndarray, steps: np.ndarray) -> int:
    """Cover count of the coordinate lattice cells meeting the centered
    ellipsoid, never above the coordinate product bound.

    The cell [m s, (m+1) s) is closest to the origin at j s with j = m or
    j = -m-1, so each j >= 0 stands for two cells, and a cell meets the
    ellipsoid iff sum_i (j_i s_i / a_i)^2 <= 1.  Each term is rounded down
    to a bin of width 1/_GRID and the bin counts are convolved coordinate by
    coordinate; rounding down only admits more cells, so 2^d times the mass
    in bins <= _GRID counts a cover.  The product bound is returned when it
    is smaller, or when the histogram could overflow int64.
    """
    product = _product_bound(axes, steps)
    hist = np.zeros(_GRID + 1, dtype=np.int64)
    hist[0] = 1
    total = 1
    for a, s in zip(axes, steps):
        if total * (math.floor(a / s) + 1) > _INT64_MAX:
            return product
        term = _term_counts(a, s)
        # convolve, shifting the denser of the two by the sparser one's bins
        sparse, dense = sorted((hist, term), key=np.count_nonzero)
        conv = np.zeros_like(hist)
        for b in np.flatnonzero(sparse):
            conv[b:] += sparse[b] * dense[: _GRID + 1 - b]
        hist = conv
        total = int(hist.sum())
    return min(2 ** len(axes) * total, product)


def upper_cover(ell: CoefficientEllipsoid, epsilon: float) -> tuple[int, str]:
    """Balls in a sup-norm epsilon-cover of the unit ball, and the rule
    (SINGLE_BALL, LATTICE_COVERING or COORDINATE_PRODUCT) that counted them."""
    if not epsilon > 0:
        raise PreconditionError("epsilon must be positive")
    if epsilon >= 2.0 * ell.sup_radius:
        return 1, SINGLE_BALL
    axes_all = np.sort(ell.semi_axes())[::-1]
    # drop trailing coordinates whose total sup-norm reach is <= eps/2;
    # the kept coordinates share the remaining radius budget
    tails = np.concatenate([np.cumsum(axes_all[::-1])[::-1], [0.0]])
    d = len(axes_all)
    for cand in range(1, len(axes_all) + 1):
        if tails[cand] <= epsilon / 2.0:
            d = cand
            break
    if d > MAX_DIM:
        # smallest supported epsilon is twice the tail that must be droppable
        raise CapacityError(
            f"effective dimension {d} exceeds {MAX_DIM}; smallest supported "
            f"epsilon near {2.0 * tails[MAX_DIM]:.3g}"
        )
    axes = axes_all[:d]
    budget = epsilon - tails[d]
    steps = np.full(d, 2.0 * budget / d)  # cell sup-radius sums to budget
    cells = _count_lattice_cells(axes, steps)
    if cells == _product_bound(axes, steps):
        return cells, COORDINATE_PRODUCT
    return cells, LATTICE_COVERING


def entropy_upper(ell: CoefficientEllipsoid, epsilon: float) -> float:
    """log of a sup-norm covering count of the unit ball."""
    return math.log(upper_cover(ell, epsilon)[0])


def entropy_lower(ell: CoefficientEllipsoid, epsilon: float) -> float:
    """Volumetric lower bound on sup-norm entropy.

    A sup-norm eps-ball of functions has every Fourier coefficient within
    eps of the center's, so its d-coordinate section sits in a box of side
    2 eps (x0) and 4 eps (each u_k, v_k); covering-number >= volume ratio.
    """
    if not epsilon > 0:
        raise PreconditionError("epsilon must be positive")
    axes = np.sort(ell.semi_axes())[::-1]
    best = 0.0
    for d in range(1, len(axes) + 1):
        # log vol of d-dim ellipsoid: unit-ball volume + sum log axes
        log_vol_e = (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0) \
            + float(np.sum(np.log(axes[:d])))
        # box side: 2 eps for the first coordinate, 4 eps for the others
        log_vol_b = math.log(2.0 * epsilon) + (d - 1) * math.log(4.0 * epsilon)
        best = max(best, log_vol_e - log_vol_b)
    return best


def entropy_bracket(ell: CoefficientEllipsoid, epsilon: float) -> EntropyBracket:
    cells, method = upper_cover(ell, epsilon)
    return EntropyBracket(
        epsilon=epsilon,
        H_lower=entropy_lower(ell, epsilon),
        H_upper=math.log(cells),
        lower_method="volumetric-coefficient-box",
        upper_method=method,
        upper_cells=cells,
    )


def kl_phi_to_H(phi_curve: BoundCurve, lam: float = 2.0) -> BoundCurve:
    """Entropy upper bound H(2r/lam) <= phi(r) + lam^2 / 2."""
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    phi = phi_curve.upper if phi_curve.upper is not None else phi_curve.lower
    x = 2.0 * np.asarray(phi_curve.x) / lam
    upper = np.asarray(phi) + lam * lam / 2.0
    return BoundCurve(x=x, lower=None, upper=upper,
                      label="entropy-from-smallball",
                      extra={"lambda": lam, "source": phi_curve.label})


def alpha_r(phi: float) -> float:
    """alpha with -log Phi(alpha) = phi; +inf marker at phi = 0."""
    if phi < 0:
        raise PreconditionError("phi must be nonnegative")
    if phi == 0.0:
        return math.inf
    return float(ndtri_exp(-phi))


def kl_entropy_lower(phi_r: float, phi_2r: float, lam: float) -> dict:
    """Lower bounds on H(r/lam): exact phi(2r) + log Phi(lam + alpha_r)
    and the simplified quadratic form phi(2r) - (lam - sqrt(2 phi(r)))^2/2."""
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    a = alpha_r(phi_r)
    exact = phi_2r + (0.0 if math.isinf(a)
                      else float(log_ndtr(lam + a)))
    simplified = phi_2r - 0.5 * (lam - math.sqrt(2.0 * phi_r)) ** 2
    return {"exact": exact, "simplified": simplified, "alpha_r": a,
            "lambda": lam}


@dataclass(frozen=True)
class TruncationBoundInput:
    model: spectra.SpectralModel
    epsilon: float
    theta: float
    C: float = 1.0

    def __post_init__(self):
        if self.model.kind != spectra.CONTINUOUS_NU:
            raise PreconditionError("truncation bound needs a continuous model")
        if not 0 < self.epsilon < 1:
            raise PreconditionError("epsilon must be in (0, 1)")
        nu = self.model.nu
        if self.theta <= 0 or self.theta > 3.0 ** (-1.0 / nu) + 1e-15:
            raise PreconditionError(
                f"theta must lie in (0, 3^(-1/nu)] = (0, {3.0 ** (-1.0 / nu):.6g}]"
            )

    @property
    def v(self) -> float:
        return (3.0 * abs(math.log(self.epsilon))) ** (1.0 / self.model.nu)

    @property
    def delta(self) -> float:
        L = abs(math.log(self.epsilon))
        return self.theta * L ** (1.0 - 1.0 / self.model.nu)


@dataclass(frozen=True)
class TruncationBoundResult:
    input: TruncationBoundInput
    I: float
    bound_certified: float
    bound_rate: float
    tail_sup: float


def truncation_entropy_upper(inp: TruncationBoundInput) -> TruncationBoundResult:
    """Entropy upper bound C |log(eps / sqrt(I))|^2 / delta from spectral
    truncation at |u| <= v, with I the tilted mass of the truncated measure.

    Also returns the pure rate form C |log eps|^2 / delta, whose envelope in
    eps has exact slope 1 + 1/nu, and certifies that the dropped spectral
    tail perturbs functions by at most eps in sup norm.
    """
    nu = inp.model.nu
    v, delta, eps = inp.v, inp.delta, inp.epsilon
    I_half, _ = quad(lambda u: math.exp(delta * u - u ** nu), 0.0, v, limit=400)
    I = 2.0 * I_half
    if I > 2.0 * v * (1.0 + 1e-12):
        raise CertificateError(f"tilted mass I = {I:.6g} exceeds 2v = {2 * v:.6g}")
    # sup-norm effect of dropping |u| > v: Cauchy-Schwarz against tail mass
    tail_half, _ = quad(lambda u: math.exp(-((u + v) ** nu)), 0.0, np.inf,
                        limit=400)
    tail_sup = math.sqrt(2.0 * tail_half)
    if tail_sup > eps:
        raise CertificateError(
            f"truncation remainder {tail_sup:.3g} exceeds epsilon {eps:.3g}"
        )
    bound_certified = inp.C * math.log(eps / math.sqrt(I)) ** 2 / delta
    bound_rate = inp.C * math.log(eps) ** 2 / delta
    return TruncationBoundResult(input=inp, I=I,
                                 bound_certified=bound_certified,
                                 bound_rate=bound_rate, tail_sup=tail_sup)


def scaling_patch(H_curve: BoundCurve, c: float) -> BoundCurve:
    """Time-rescaling patch: H of the horizon-1/c ball at 2 eps is at most
    ceil(1/c) times H(eps)."""
    if not 0 < c <= 1:
        raise PreconditionError("c must be in (0, 1]")
    n = math.ceil(1.0 / c)
    upper = H_curve.upper if H_curve.upper is not None else H_curve.lower
    return BoundCurve(x=2.0 * np.asarray(H_curve.x), lower=None,
                      upper=n * np.asarray(upper), label="scaling-patch",
                      extra={"c": c, "n": n, "source": H_curve.label})


def rkhs_growth_check(nu: float, sample_count: int, imag_range,
                      seed: int = 0) -> dict:
    """Check |h(iy)| <= M_nu(2|y|) for random boundary members of the ball.

    h(z) = integral of ell(u) exp(-izu) F(du) with the L2(F) norm of ell
    equal to 1; the bound is Cauchy-Schwarz against the tilted mass.
    """
    if nu <= 1.0:
        raise PreconditionError("growth check needs nu > 1")
    model = spectra.continuous_nu(nu)
    U = spectra._quad_upper_limit(model)
    u = np.linspace(-U, U, 4001)
    w = spectra.density(model, u) * (u[1] - u[0])
    rng = np.random.default_rng(seed)
    worst = -math.inf
    checked = 0
    for _ in range(sample_count):
        ell = rng.standard_normal(u.size)
        ell /= math.sqrt(float(np.sum(ell ** 2 * w)))
        for y in imag_range:
            hval = float(np.sum(ell * np.exp(y * u) * w))
            bound = spectra.exp_moment(model, 2.0 * abs(y))
            ratio = abs(hval) / bound
            worst = max(worst, ratio)
            checked += 1
            if ratio > 1.0 + 1e-8:
                raise PropertyViolation(
                    f"|h({y}i)| = {abs(hval):.6g} exceeds M({2 * abs(y)}) "
                    f"= {bound:.6g}"
                )
    return {"checked": checked, "worst_ratio": worst, "passed": True}
