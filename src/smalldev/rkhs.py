"""RKHS unit balls, metric-entropy brackets, and entropy <-> small-ball
translators.

The unit ball of the periodic-process RKHS is a coefficient ellipsoid:
functions h(t) = sum_k c_k exp(-2 pi i k t) with
sum_k |c_k|^2 exp(|k|^nu) <= 1.  In the real cos/sin coordinates
(x0, u_k, v_k) the semi-axes are the series amplitudes 1, sqrt(2) exp(-k^nu / 2).

Entropy in sup norm is bracketed: the upper side covers a truncated
ellipsoid by a coordinate lattice (a box of per-coordinate side eps/d maps
into a sup-norm ball of radius eps/2, dropped coordinates contribute the
other eps/2) and is labelled by the counter with the rule it used; the
lower side is volumetric against the Fourier-coefficient box
{|c_k| <= eps} that contains every sup-norm eps-ball section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri_exp

from . import spectra
from .curves import BoundCurve
from .errors import CapacityError, CertificateError, PreconditionError

#: most leading coordinates a cover keeps: its exact product bound costs ~ d^2
MAX_DIM = 2 ** 13

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

    def log_semi_axes(self) -> np.ndarray:
        """Logs of the semi-axes of x0, then (u_k, v_k), k=1..K: nonincreasing."""
        return np.repeat(spectra.discrete_log_amplitudes(self.nu, self.K), 2)[1:]

    def semi_axes(self) -> np.ndarray:
        """`exp` of `log_semi_axes`: 0 once k^nu passes about 1,490."""
        return np.exp(self.log_semi_axes())

    @property
    def sup_radius(self) -> float:
        """max sup-norm over the ball: sqrt(R(0)) of the process."""
        log_mass = spectra.discrete_log_masses(self.nu, self.K)
        return math.sqrt(1.0 + 2.0 * float(np.sum(np.exp(log_mass[1:]))))


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
    return math.prod(2 * math.ceil(a / s) + 1 for a, s in zip(axes, steps))


def _term_counts(a: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The bins b = floor(_GRID (j s / a)^2) that hold some j in
    0..floor(a/s), increasing from b = 0 (j = 0), and how many j each holds;
    the work grows with min(floor(a/s), _GRID), not with floor(a/s)."""
    top = math.floor(a / s)
    if top > _GRID:
        counts = _term_counts_by_inverse(a, s, top)
        bins = np.flatnonzero(counts)
        return bins, counts[bins]
    j = np.arange(top + 1)
    return np.unique(np.floor(_GRID * (j * s / a) ** 2).astype(np.int64),
                     return_counts=True)


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


def _shift_add(src: np.ndarray, shifts: np.ndarray, weights: np.ndarray,
               out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sum_i weights[i] * src shifted up by shifts[i] bins, cut at bin
    _GRID, where shifts[0] == 0; scratch holds one scaled copy of src."""
    np.multiply(src, weights[0], out=out)
    for b, w in zip(shifts[1:].tolist(), weights[1:].tolist()):
        m = _GRID + 1 - b
        if w != 1:
            src_m = np.multiply(src[:m], w, out=scratch[:m])
        else:
            src_m = src[:m]
        np.add(out[b:], src_m, out=out[b:])


def _count_lattice_cells(axes: np.ndarray, steps: np.ndarray) -> tuple[int, str]:
    """(cells, rule): a cover count of the coordinate lattice cells meeting
    the centered ellipsoid, never above the coordinate product bound.

    The cell [m s, (m+1) s) is closest to the origin at j s with j = m or
    j = -m-1, so each j >= 0 stands for two cells, and a cell meets the
    ellipsoid iff sum_i (j_i s_i / a_i)^2 <= 1.  Each term is rounded down
    to a bin of width 1/_GRID and the bin counts are convolved coordinate by
    coordinate; rounding down only admits more cells, so 2^d times the mass
    in bins <= _GRID counts a cover (LATTICE_COVERING).  The product bound
    (COORDINATE_PRODUCT) is returned when it is not larger, or when the
    histogram could overflow int64.

    Each term comes as (bin, count) pairs.  The convolution shifts the
    denser side by the sparser side's bins, in int64 throughout, into two
    buffers that swap roles per coordinate; a shift of weight 1 is a
    single in-place add.  The last coordinate is not convolved,
    as only its total is needed: the sum over its pairs of count times the
    leading coordinates' mass in bins <= _GRID - bin.  So d = 1 takes no
    convolution, and d axes past _GRID cells each take d - 2
    dense-by-dense ones, each of about _GRID^2 int64 additions.
    """
    product = _product_bound(axes, steps)
    reach = [math.floor(a / s) + 1 for a, s in zip(axes, steps)]
    # the running total after i coordinates is at least the count of j in
    # the box of half-sides a / sqrt(i) inscribed in their ellipsoid, so
    # when that count already trips the guard below, skip the convolutions
    for i in range(1, len(axes)):
        box = math.prod(math.floor(a / (s * math.sqrt(i))) + 1
                        for a, s in zip(axes[:i], steps[:i]))
        if box * reach[i] > _INT64_MAX:
            return product, COORDINATE_PRODUCT
    hist = np.zeros(_GRID + 1, dtype=np.int64)
    hist[0] = 1
    conv = np.empty_like(hist)
    scratch = np.empty_like(hist)
    total = 1
    for i, (a, s, n) in enumerate(zip(axes, steps, reach)):
        if total * n > _INT64_MAX:
            return product, COORDINATE_PRODUCT
        bins, counts = _term_counts(a, s)
        if i == len(axes) - 1:
            # the leading coordinates' mass in bins <= _GRID - b for each of
            # this term's bins b, from the sums between those cut points
            cuts = _GRID + 1 - bins[:0:-1]
            below = np.cumsum(np.add.reduceat(hist, np.concatenate(([0], cuts))))
            total = int(np.sum(counts[::-1] * below))
            break
        if np.count_nonzero(hist) <= len(bins):
            # the histogram is the sparser side: read its bins, then hold
            # the dense term in its buffer and shift that
            shifts = np.flatnonzero(hist)
            weights = hist[shifts]
            hist.fill(0)
            hist[bins] = counts
            _shift_add(hist, shifts, weights, conv, scratch)
        else:
            _shift_add(hist, bins, counts, conv, scratch)
        hist, conv = conv, hist
        total = int(hist.sum())
    cells = 2 ** len(axes) * total
    return (cells, LATTICE_COVERING) if cells < product else (product, COORDINATE_PRODUCT)


def upper_cover(ell: CoefficientEllipsoid, epsilon: float) -> tuple[int, str]:
    """Balls in a sup-norm epsilon-cover of the unit ball, and the rule
    (SINGLE_BALL, LATTICE_COVERING or COORDINATE_PRODUCT) that counted them."""
    if not 0 < epsilon < math.inf:
        raise PreconditionError("epsilon must be positive and finite")
    if epsilon >= 2.0 * ell.sup_radius:
        return 1, SINGLE_BALL
    axes_all = ell.semi_axes()
    # keep the fewest leading coordinates whose dropped tail's sup-norm
    # reach tails[d] is <= eps/2; they share the remaining radius budget
    tails = np.concatenate([np.cumsum(axes_all[::-1])[::-1], [0.0]])
    d = 1 + int(np.argmax(tails[1:] <= epsilon / 2.0))
    if d > MAX_DIM:
        # from twice the tail past MAX_DIM on, or from the single-ball edge,
        # every epsilon is answered
        least = min(2.0 * tails[MAX_DIM], 2.0 * ell.sup_radius)
        raise CapacityError(
            f"effective dimension {d} exceeds {MAX_DIM}; smallest supported "
            f"epsilon near {least:.3g}"
        )
    axes = axes_all[:d]
    budget = epsilon - tails[d]
    steps = np.full(d, 2.0 * budget / d)  # cell sup-radius sums to budget
    if float(axes[0]) / float(steps[0]) == math.inf:
        raise CapacityError(f"epsilon {epsilon:.3g} puts cells per axis past the float range")
    return _count_lattice_cells(axes, steps)


def entropy_upper(ell: CoefficientEllipsoid, epsilon: float) -> float:
    """log of a sup-norm covering count of the unit ball."""
    return math.log(upper_cover(ell, epsilon)[0])


def entropy_lower(ell: CoefficientEllipsoid, epsilon: float) -> float:
    """Volumetric lower bound on sup-norm entropy.

    A sup-norm eps-ball of functions has every Fourier coefficient within
    eps of the center's, so its d-coordinate section sits in a box of side
    2 eps (x0) and 4 eps (each u_k, v_k); covering-number >= volume ratio.
    """
    if not 0 < epsilon < math.inf:
        raise PreconditionError("epsilon must be positive and finite")
    # one ball covers the unit ball there, so H = 0; 4 eps may pass the float range
    if epsilon >= 2.0 * ell.sup_radius:
        return 0.0
    # at every leading dimension d: log vol of the d-dim ellipsoid (unit ball
    # + sum of log axes) less the box's (side 2 eps for x0, 4 eps after)
    d = np.arange(1.0, 2 * ell.K + 2)
    log_vol_e = (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0) \
        + np.cumsum(ell.log_semi_axes())
    log_vol_b = math.log(2.0 * epsilon) + (d - 1) * math.log(4.0 * epsilon)
    return max(0.0, float(np.max(log_vol_e - log_vol_b)))


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


def _check_finite(x: np.ndarray, upper: np.ndarray, what: str) -> None:
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(upper))):
        raise CapacityError(f"{what} is past the float range")


def kl_phi_to_H(phi_curve: BoundCurve, lam: float = 2.0) -> BoundCurve:
    """Entropy upper bound H(2r/lam) <= phi(r) + lam^2 / 2, from the upper
    side of a phi curve; a curve without one is refused, and so is one
    whose scales or bounds are past the float range."""
    if not 0 < lam < math.inf:
        raise PreconditionError("lambda must be finite and positive")
    if phi_curve.upper is None:
        raise PreconditionError("an entropy upper bound needs an upper bound on phi")
    with np.errstate(over="ignore"):
        x = 2.0 * np.asarray(phi_curve.x) / lam
        upper = np.asarray(phi_curve.upper) + lam * lam / 2.0
    _check_finite(x, upper, f"the entropy curve at lambda {lam:g}")
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
    if not 0 < lam < math.inf:
        raise PreconditionError("lambda must be finite and positive")
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
    #: the paper's bound with its unspecified constant set to C = 1: the
    #: bound's shape, not a certified number
    bound_c1: float
    bound_rate: float
    tail_sup: float


def truncation_entropy_upper(inp: TruncationBoundInput) -> TruncationBoundResult:
    """The paper's entropy upper bound C |log(eps / sqrt(I))|^2 / delta from
    spectral truncation at |u| <= v, with I the tilted mass of the truncated
    measure, at C = 1 (`bound_c1`): the paper leaves the absolute constant
    C unspecified, so this is the bound's shape, not a certificate.

    Also returns the pure rate form |log eps|^2 / delta, whose envelope in
    eps has exact slope 1 + 1/nu, and certifies that the dropped spectral
    tail perturbs functions by at most eps in sup norm.
    """
    nu = inp.model.nu
    v, delta, eps = inp.v, inp.delta, inp.epsilon
    I = spectra.exp_moment(spectra.truncated_continuous_nu(nu, v), delta) ** 2
    if I > 2.0 * v * (1.0 + 1e-12):
        raise CertificateError(f"tilted mass I = {I:.6g} exceeds 2v = {2 * v:.6g}")
    # sup-norm effect of dropping |u| > v: Cauchy-Schwarz against tail mass
    tail_sup = math.sqrt(2.0 * spectra.continuous_tail(nu, v))
    if tail_sup > eps:
        raise CertificateError(
            f"truncation remainder {tail_sup:.3g} exceeds epsilon {eps:.3g}"
        )
    bound_c1 = math.log(eps / math.sqrt(I)) ** 2 / delta
    bound_rate = math.log(eps) ** 2 / delta
    return TruncationBoundResult(input=inp, I=I, bound_c1=bound_c1,
                                 bound_rate=bound_rate, tail_sup=tail_sup)


def scaling_patch(H_curve: BoundCurve, c: float) -> BoundCurve:
    """Time-rescaling patch: H of the horizon-1/c ball at 2 eps is at most
    ceil(1/c) times H(eps), from the upper side of an H curve; a curve
    without one is refused, and so is one whose scales or bounds are past
    the float range."""
    if not 0 < c <= 1:
        raise PreconditionError("c must be in (0, 1]")
    if H_curve.upper is None:
        raise PreconditionError("the scaling patch needs an upper bound on H")
    if not 1.0 / c < math.inf:
        raise CapacityError(f"1/c at c = {c:g} is past the float range")
    n = math.ceil(1.0 / c)
    with np.errstate(over="ignore"):
        x, upper = 2.0 * np.asarray(H_curve.x), n * np.asarray(H_curve.upper)
    _check_finite(x, upper, f"the scaling patch at c = {c:g}")
    return BoundCurve(x=x, lower=None, upper=upper, label="scaling-patch",
                      extra={"c": c, "n": n, "source": H_curve.label})

