import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

import reference
from smalldev import pathgen, rkhs, smallball, spectra
from smalldev.curves import BoundCurve
from smalldev.errors import CapacityError, CertificateError, PreconditionError
from smalldev.rkhs import CoefficientEllipsoid, TruncationBoundInput


@pytest.mark.parametrize("top", [0, 1, 5, rkhs._GRID - 1, rkhs._GRID,
                                 rkhs._GRID + 1, 10 * rkhs._GRID])
def test_term_counts_match_inverse(top):
    for a in (1.0, 0.37, math.sqrt(2.0) * math.exp(-2.0)):
        s = a / (top + 0.5)
        assert math.floor(a / s) == top
        bins, counts = rkhs._term_counts(a, s)
        assert bins.dtype == counts.dtype == np.int64
        assert bins[0] == 0 and np.all(np.diff(bins) > 0) and np.all(counts > 0)
        got = np.zeros(rkhs._GRID + 1, dtype=np.int64)
        got[bins] = counts
        assert np.array_equal(got, rkhs._term_counts_by_inverse(a, s, top))


def test_entropy_trivial_and_interval():
    ell = CoefficientEllipsoid(1.0, 4)
    # one ball suffices beyond the diameter
    assert rkhs.entropy_upper(ell, 2.0 * ell.sup_radius + 0.1) == 0.0
    # and the lower side is 0, also where 4 eps is past the float range
    for eps in (2.0 * ell.sup_radius + 0.1, 1e308):
        assert rkhs.entropy_lower(ell, eps) == 0.0
    # one-dimensional ellipsoid = interval of half-length 1
    e0 = CoefficientEllipsoid(1.0, 0)
    for eps in (0.3, 0.1, 0.05):
        n = math.exp(rkhs.entropy_upper(e0, eps))
        assert abs(n - math.ceil(1.0 / eps)) <= 2.5


def test_entropy_bracket_sandwich_and_monotone():
    ell = CoefficientEllipsoid(1.0, 6)
    eps_list = [0.8, 0.4, 0.25, 0.15]
    lo_prev, hi_prev = -1.0, -1.0
    for eps in eps_list:
        br = rkhs.entropy_bracket(ell, eps)
        assert br.H_lower <= br.H_upper
        assert br.H_lower >= lo_prev - 1e-12
        assert br.H_upper >= hi_prev - 1e-12
        lo_prev, hi_prev = br.H_lower, br.H_upper
    br = rkhs.entropy_bracket(ell, 0.25)
    assert br.H_lower >= 0.0
    assert br.H_upper > 0.0


def _enumerated_cells(axes, steps):
    """Exhaustive count of the lattice cells meeting the ellipsoid: each
    j >= 0 stands for two cells, kept while sum (j s / a)^2 <= 1."""
    q = np.zeros(1)
    for a, s in zip(axes, steps):
        terms = (np.arange(math.floor(a / s) + 1) * s / a) ** 2
        q = (q[:, None] + terms[None, :]).ravel()
        q = q[q <= 1.0]
    return 2 ** len(axes) * len(q)


def test_lattice_count_covers_enumeration_below_product():
    for nu in (0.5, 1.0, 2.0):
        for K in (0, 1, 2, 3):
            axes = np.sort(CoefficientEllipsoid(nu, K).semi_axes())[::-1]
            for eps in (1.0, 0.5, 0.3, 0.2):
                steps = np.full(len(axes), 2.0 * eps / len(axes))
                exact = _enumerated_cells(axes, steps)
                product = int(np.prod(2 * np.ceil(axes / steps) + 1))
                cells, _ = rkhs._count_lattice_cells(axes, steps)
                assert min(exact, product) <= cells <= min(1.01 * exact, product)


def _cover_inputs(nu, K, eps):
    """The axes and steps that upper_cover counts at (nu, K, eps)."""
    axes = CoefficientEllipsoid(nu, K).semi_axes()
    tails = np.concatenate([np.cumsum(axes[::-1])[::-1], [0.0]])
    d = 1 + int(np.argmax(tails[1:] <= eps / 2.0))
    return axes[:d], np.full(d, 2.0 * (eps - tails[d]) / d)


def _steps_for(axes, tops):
    # a step per axis that puts floor(a / s) at the given top
    return np.array([a / (top + 0.5) for a, top in zip(axes, tops)])


LATTICE_CASES = {
    **{f"d1-top{top}": ([1.0], _steps_for([1.0], [top]))
       for top in (0, 1, 5, 300, 70_000)},
    # bins that hold many j, and a last term of several hundred bins
    "many-j-per-bin": ([1.0, 0.9, 0.7],
                       _steps_for([1.0, 0.9, 0.7], [2000, 1500, 400])),
    # terms past 2^16 cells, from the inverse bin formula, first, last and
    # between sparse ones, and one shifted by bins that hold many j
    "dense-first": ([1.0, 1e-4], [1e-5, 1e-5]),
    "dense-last": ([1e-4, 1.0], [1e-5, 1e-5]),
    "dense-middle": ([1e-4, 1.0, 1e-4], [1e-5, 1e-5, 1e-5]),
    "dense-by-heavy-bins": ([1.0, 1.0, 1.0],
                            _steps_for([1.0] * 3, [500, 70_000, 5])),
    # the inscribed box of two coordinates trips the int64 guard at the third
    "box-guard": _cover_inputs(2.0, 3, 1e-5),
    # upper_cover's own inputs, the benchmark's among them
    **{f"cover-{nu}-{K}-{eps}": _cover_inputs(nu, K, eps)
       for nu in (0.5, 1.0, 2.0) for K in (0, 1, 2, 4, 8)
       for eps in (1.0, 0.5, 0.3, 0.2, 0.05)},
    "cover-1.0-1-0.001": _cover_inputs(1.0, 1, 1e-3),
}


@pytest.mark.parametrize("axes, steps", LATTICE_CASES.values(),
                         ids=LATTICE_CASES.keys())
def test_lattice_count_equals_dense_convolution(axes, steps):
    axes, steps = np.asarray(axes, float), np.asarray(steps, float)
    cells, _ = rkhs._count_lattice_cells(axes, steps)
    assert cells == reference.count_lattice_cells(axes, steps)


def test_lattice_count_running_total_guard(monkeypatch):
    # 1001 x 1001 cells on the first two axes count about 7.9e5 quarter-disk
    # points, past the inscribed box's 708^2, so only the running total
    # trips the int64 guard at the third axis, after two terms
    axes, steps = np.array([1.0, 1.0, 1.5e10]), np.full(3, 1e-3)
    term_counts, calls = rkhs._term_counts, []

    def counted(a, s):
        calls.append(a)
        return term_counts(a, s)

    monkeypatch.setattr(rkhs, "_term_counts", counted)
    product = rkhs._product_bound(axes, steps)
    assert rkhs._count_lattice_cells(axes, steps) == (product, rkhs.COORDINATE_PRODUCT)
    assert len(calls) == 2
    assert reference.count_lattice_cells(axes, steps) == product


def test_bracket_names_rule_and_cells():
    ell = CoefficientEllipsoid(1.0, 4)
    br = rkhs.entropy_bracket(ell, 2.0 * ell.sup_radius)
    assert (br.upper_method, br.upper_cells, br.H_upper) == (rkhs.SINGLE_BALL, 1, 0.0)
    for eps in (0.5, 0.3, 0.2):
        br = rkhs.entropy_bracket(ell, eps)
        assert br.upper_method == rkhs.LATTICE_COVERING
        assert br.H_upper == math.log(br.upper_cells)
        assert br.H_upper == rkhs.entropy_upper(ell, eps)


def test_overflowing_count_returns_labelled_product():
    # nu=2, K=8 at eps=1e-3 keeps 8 coordinates with up to 7500 cells each
    ell = CoefficientEllipsoid(2.0, 8)
    br = rkhs.entropy_bracket(ell, 1e-3)
    assert br.upper_method == rkhs.COORDINATE_PRODUCT
    assert br.upper_cells > np.iinfo(np.int64).max
    assert br.H_upper == math.log(br.upper_cells)
    # at eps = 1e-200 the product of cells per axis passes 1e308 and stays an
    # exact int, where a float product overflowed
    br = rkhs.entropy_bracket(CoefficientEllipsoid(1.0, 3), 1e-200)
    assert br.upper_method == rkhs.COORDINATE_PRODUCT
    assert br.upper_cells > 1e308
    assert math.isfinite(br.H_upper) and br.H_lower <= br.H_upper


def test_overflowing_count_returns_product_before_convolving(monkeypatch):
    # the inscribed box of the first two coordinates already trips the int64
    # guard at the third; this used to convolve for 3 s first
    def no_convolution(a, s):
        raise AssertionError("convolved")

    monkeypatch.setattr(rkhs, "_term_counts", no_convolution)
    cells, rule = rkhs.upper_cover(CoefficientEllipsoid(2.0, 3), 1e-5)
    # the exact integer product of the cells per axis
    assert (cells, rule) == (548025106444131749517978842536184601,
                             rkhs.COORDINATE_PRODUCT)


def test_semi_axes_past_mass_underflow():
    # exp(-k^2) underflows to 0 from k = 28 on; the semi-axes stay normal there
    ell = CoefficientEllipsoid(2.0, 28)
    axes = ell.semi_axes()
    assert axes[0] == 1.0 and len(axes) == 57
    assert axes[-1] == pytest.approx(math.sqrt(2.0) * math.exp(-392.0), rel=1e-13)
    assert math.isfinite(rkhs.entropy_lower(ell, 0.1))
    # past k^nu of about 1,490 the semi-axes themselves underflow (k >= 12
    # at nu = 3); the bound reads their logs, so no log(0) is taken
    ell = CoefficientEllipsoid(3.0, 40)
    assert ell.semi_axes()[-1] == 0.0 and math.isfinite(ell.log_semi_axes()[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rkhs.entropy_lower(ell, 0.1) > 0.0
    with pytest.raises(PreconditionError):
        CoefficientEllipsoid(math.nan, 4)
    with pytest.raises(PreconditionError):
        rkhs.entropy_lower(CoefficientEllipsoid(1.0, 4), math.nan)


def _entropy_lower_by_dimension(ell, eps):
    # the volumetric bound one leading dimension d at a time, each sum of
    # log semi-axes formed afresh
    log_axes = ell.log_semi_axes()
    best = 0.0
    for d in range(1, len(log_axes) + 1):
        log_vol_e = (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0) \
            + math.fsum(log_axes[:d])
        log_vol_b = math.log(2.0 * eps) + (d - 1) * math.log(4.0 * eps)
        best = max(best, log_vol_e - log_vol_b)
    return best


def test_entropy_lower_matches_per_dimension_loop():
    for nu in (0.5, 1.0, 1.5, 2.0, 3.0):
        for K in range(41):
            ell = CoefficientEllipsoid(nu, K)
            for eps in np.geomspace(1e-5, 1.5, 12):
                ref = _entropy_lower_by_dimension(ell, eps)
                assert rkhs.entropy_lower(ell, eps) == pytest.approx(
                    ref, rel=1e-12, abs=0.0), (nu, K, eps)


def test_semi_axes_are_the_nonincreasing_series_amplitudes():
    # one amplitude map serves the path generator and the unit ball
    for nu in (0.5, 1.0, 2.0, 3.0):
        for K in (0, 1, 2, 8, 40):
            ell = CoefficientEllipsoid(nu, K)
            log_axes = ell.log_semi_axes()
            assert len(log_axes) == 2 * K + 1 and log_axes[0] == 0.0
            assert np.all(np.diff(log_axes) <= 0.0), (nu, K)
            amps = pathgen.PeriodicGenConfig(nu, K).amplitudes()
            assert np.repeat(amps, 2)[1:].tobytes() == ell.semi_axes().tobytes()


def test_entropy_capacity_error():
    # eps 0.9 keeps 197,718 coordinates, past MAX_DIM: refused before any product
    ell = CoefficientEllipsoid(0.25, 100_000)
    with pytest.raises(CapacityError, match="smallest supported"):
        rkhs.entropy_upper(ell, 0.9)


def test_kl_phi_to_H():
    curve = BoundCurve(x=np.array([0.1]), lower=np.array([5.0]),
                       upper=np.array([5.0]), label="test")
    out = rkhs.kl_phi_to_H(curve, lam=2.0)
    assert out.x[0] == pytest.approx(0.1)
    assert out.upper[0] == pytest.approx(7.0)
    # phi == 0 gives lambda^2/2
    zero = BoundCurve(x=np.array([1.0]), lower=np.array([0.0]),
                      upper=np.array([0.0]), label="test")
    assert rkhs.kl_phi_to_H(zero, lam=3.0).upper[0] == pytest.approx(4.5)
    # raising lambda adds (lam'^2 - lam^2)/2 at shifted abscissa
    a = rkhs.kl_phi_to_H(curve, lam=2.0).upper[0]
    b = rkhs.kl_phi_to_H(curve, lam=4.0).upper[0]
    assert b - a == pytest.approx((16.0 - 4.0) / 2.0)
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="finite and positive"):
            rkhs.kl_phi_to_H(curve, lam=lam)
        with pytest.raises(PreconditionError, match="finite and positive"):
            rkhs.kl_entropy_lower(8.0, 32.0, lam)
    # lambda^2 / 2, or 2 r / lambda, past the float range used to give inf
    for lam in (1e308, 1e-320):
        with pytest.raises(CapacityError, match="past the float range"):
            rkhs.kl_phi_to_H(curve, lam=lam)


def test_alpha_r():
    assert rkhs.alpha_r(math.log(2.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(PreconditionError, match="nonnegative"):
        rkhs.alpha_r(-1.0)
    assert rkhs.alpha_r(0.0) == math.inf
    # independent quantile oracle
    assert rkhs.alpha_r(5.0) == pytest.approx(norm.ppf(math.exp(-5.0)),
                                              abs=1e-10)
    # identity round-trip: -log Phi(alpha_r) = phi
    for phi in (0.5, 2.0, 8.0, 30.0):
        a = rkhs.alpha_r(phi)
        assert -norm.logcdf(a) == pytest.approx(phi, rel=1e-9)


def test_kl_entropy_lower_simplified_dominance():
    # exact >= simplified - log 2 always; gap vanishes as phi grows
    for phi in (8.0, 12.0, 20.0):
        lam = math.sqrt(2.0 * phi)
        out = rkhs.kl_entropy_lower(phi, 4.0 * phi, lam)
        assert out["exact"] >= out["simplified"] - math.log(2.0) - 1e-9
        # at lam = sqrt(2 phi) the simplified quadratic vanishes
        assert out["simplified"] == pytest.approx(4.0 * phi)


def test_truncation_bound():
    model = spectra.continuous_nu(0.5)
    inp = TruncationBoundInput(model, 1e-3, theta=1.0 / 9.0)
    L = abs(math.log(1e-3))
    assert inp.v == pytest.approx((3.0 * L) ** 2, rel=1e-12)
    assert inp.v == pytest.approx(429.4, abs=0.1)
    assert inp.delta == pytest.approx((1.0 / 9.0) / L, rel=1e-12)
    assert inp.delta == pytest.approx(0.016086, abs=1e-5)
    res = rkhs.truncation_entropy_upper(inp)
    assert res.I <= 2.0 * inp.v
    assert res.bound_c1 > 0.0
    assert res.tail_sup <= 1e-3
    # theta cap enforced; a model other than continuous-nu, and epsilon
    # outside (0, 1), refused
    for args, message in [((model, 1e-3, 0.5), "theta must lie"),
                          ((spectra.bandlimited(1.0), 1e-3, 0.1), "continuous model"),
                          ((model, 0.0, 0.1), "epsilon must be in"),
                          ((model, 1.0, 0.1), "epsilon must be in")]:
        with pytest.raises(PreconditionError, match=message):
            TruncationBoundInput(*args)


def test_truncation_I_leq_2v_sweep():
    for nu in (0.5, 1.0):
        model = spectra.continuous_nu(nu)
        theta = 3.0 ** (-1.0 / nu)
        for eps in (1e-12, 1e-8, 1e-5, 1e-3):
            res = rkhs.truncation_entropy_upper(
                TruncationBoundInput(model, eps, theta=theta)
            )
            assert res.I <= 2.0 * res.input.v


def test_truncation_tail_sup_matches_mpmath():
    # 2 int_v^inf exp(-w^nu) dw, with w^nu = V + s, is
    # 2 e^-V / nu * int_0^inf e^-s (V + s)^(1/nu - 1) ds
    for nu in (0.5, 1.0):
        for eps in (1e-12, 1e-8, 1e-3):
            inp = TruncationBoundInput(spectra.continuous_nu(nu), eps,
                                       theta=3.0 ** (-1.0 / nu))
            with mpmath.workdps(30):
                V = mpmath.mpf(inp.v) ** nu
                tail = mpmath.exp(-V) / nu * mpmath.quad(
                    lambda s: mpmath.exp(-s) * (V + s) ** (1 / mpmath.mpf(nu) - 1),
                    [0, 1, 10, mpmath.inf])
                ref = float(mpmath.sqrt(2 * tail))
            res = rkhs.truncation_entropy_upper(inp)
            assert res.tail_sup == pytest.approx(ref, rel=1e-10), (nu, eps)


def test_truncation_I_matches_mpmath():
    inp = TruncationBoundInput(spectra.continuous_nu(0.5), 1e-12, theta=1.0 / 9.0)
    v, delta = inp.v, inp.delta
    with mpmath.workdps(30):
        ref = float(2 * mpmath.quad(lambda u: mpmath.exp(delta * u - mpmath.sqrt(u)),
                                    [0, 1, 10, 100, 1000, v]))
    got = spectra.exp_moment(spectra.truncated_continuous_nu(0.5, v), delta) ** 2
    assert got == pytest.approx(ref, rel=1e-10)
    assert rkhs.truncation_entropy_upper(inp).I == pytest.approx(ref, rel=1e-10)


def test_scaling_patch():
    H = BoundCurve(x=np.array([0.1, 0.2]), lower=None,
                   upper=np.array([10.0, 5.0]), label="H")
    out = rkhs.scaling_patch(H, 0.5)
    assert np.allclose(out.x, [0.2, 0.4])
    assert np.allclose(out.upper, [20.0, 10.0])
    assert rkhs.scaling_patch(H, 1.0).upper[0] == pytest.approx(10.0)
    assert rkhs.scaling_patch(H, 0.4).extra["n"] == 3
    # ceil(1/c) used to end in an OverflowError, and n H in inf
    for c in (1e-320, 1e-308):
        with pytest.raises(CapacityError, match="past the float range"):
            rkhs.scaling_patch(H, c)


def test_kl_cross_consistency_with_exact_l2():
    # entropy lower bound vs the exact small-ball curve at lambda = 2
    ell = CoefficientEllipsoid(1.0, 8)
    spec = smallball.WeightedChiSquareSpec.periodic(1.0, 8)
    for r in (0.1, 0.2, 0.4):
        phi = -smallball.log_exact_l2(spec, r)
        H_low = rkhs.entropy_lower(ell, r)
        assert H_low <= phi + 2.0 + 1e-9


def test_translators_refuse_a_curve_without_an_upper_side():
    # both inequalities need an upper bound; a lower curve used to be taken
    # in its place and still labelled an upper bound
    from smalldev import ratefit
    low = ratefit.open_problem_curves(2.0, [0.1, 0.01])[0]
    with pytest.raises(PreconditionError, match="upper bound on phi"):
        rkhs.kl_phi_to_H(low)
    H = BoundCurve(x=np.array([0.1]), lower=np.array([3.0]), upper=None, label="H")
    with pytest.raises(PreconditionError, match="upper bound on H"):
        rkhs.scaling_patch(H, 0.5)


def test_curve_sides_must_match_x():
    # a library error, so that a caller catching SmallDevError sees it
    x = np.array([0.1, 0.2])
    for lower, upper in ((np.array([1.0]), None), (None, np.array([1.0, 2.0, 3.0]))):
        with pytest.raises(PreconditionError, match="curve sides must match x"):
            BoundCurve(x=x, lower=lower, upper=upper, label="c")


def test_truncation_refuses_a_remainder_above_epsilon():
    # at eps 0.9 the cut v = 3 |log 0.9| leaves a tail whose sup-norm
    # reach sqrt(2 int_v^inf e^-u du) = 1.21 passes epsilon
    inp = TruncationBoundInput(spectra.continuous_nu(1.0), 0.9, theta=1.0 / 3.0)
    with pytest.raises(CertificateError,
                       match="truncation remainder 1.21 exceeds epsilon 0.9"):
        rkhs.truncation_entropy_upper(inp)


def test_capacity_error_names_the_true_smallest_epsilon():
    # twice the tail past MAX_DIM is 892 here, yet from 2 sup_radius = 13.9
    # on one ball covers, so that is the smallest epsilon answered
    ell = CoefficientEllipsoid(0.25, 100_000)
    assert 2.0 * ell.sup_radius == pytest.approx(13.9, abs=0.05)
    with pytest.raises(CapacityError, match="smallest supported epsilon near 13.9$"):
        rkhs.entropy_upper(ell, 0.9)
    with pytest.raises(CapacityError, match="effective dimension"):
        rkhs.entropy_upper(ell, 0.999 * 2.0 * ell.sup_radius)
    assert rkhs.upper_cover(ell, 2.0 * ell.sup_radius) == (1, rkhs.SINGLE_BALL)
