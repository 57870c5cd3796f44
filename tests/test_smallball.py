import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from smalldev import pathgen, smallball
from smalldev.errors import PreconditionError
from smalldev.pathgen import GridSpec, PeriodicGenConfig
from smalldev.smallball import WeightedChiSquareSpec


def test_wilson_zero_hits():
    lo, hi = smallball.wilson_interval(0, 100000)
    assert lo == 0.0
    z = 1.959963984540054
    assert hi == pytest.approx(z * z / (100000 + z * z), rel=1e-10)
    assert hi == pytest.approx(3.8413e-5, rel=1e-3)


def test_wilson_basic_properties():
    lo, hi = smallball.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo2, hi2 = smallball.wilson_interval(100, 100)
    assert hi2 == 1.0 and lo2 < 1.0


def test_wilson_coverage_bernoulli():
    # estimator self-test: coverage of the Wilson interval near 95%
    rng = np.random.default_rng(4)
    p, n, trials = 0.3, 500, 2000
    cover = 0
    for _ in range(trials):
        hits = rng.binomial(n, p)
        lo, hi = smallball.wilson_interval(hits, n)
        cover += lo <= p <= hi
    assert 0.93 <= cover / trials <= 0.97


def test_exact_l2_single_term():
    spec = WeightedChiSquareSpec.periodic(1.0, 0)
    assert smallball.exact_l2(spec, 1.0) == pytest.approx(
        math.erf(1.0 / math.sqrt(2.0)), abs=1e-12
    )
    assert smallball.exact_l2(spec, 1.0) == pytest.approx(0.682689, abs=1e-6)
    # large radius exhausts the distribution
    assert smallball.exact_l2(spec, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_l2_two_term_against_quadrature():
    # independent oracle: condition on the chi^2_1 part, integrate the
    # exponential CDF of the scaled chi^2_2 part
    lam = math.exp(-1.0)
    for r in (0.1, 0.5, 1.0):
        x = r * r

        def integrand(t):
            return (1.0 - math.exp(-(x - t) / (2.0 * lam))) \
                * math.exp(-t / 2.0) / math.sqrt(2.0 * math.pi * t)

        ref, _ = quad(integrand, 0.0, x, limit=300)
        spec = WeightedChiSquareSpec.periodic(1.0, 1)
        assert smallball.exact_l2(spec, r) == pytest.approx(ref, abs=1e-9)


def _leading_phi(spec, r):
    # -log of the ellipsoid volume times the density at 0, the small-r limit
    h = np.asarray(spec.mults, float)
    d = float(np.sum(h))
    return (-(d / 2.0) * math.log(r * r / 2.0) + math.lgamma(d / 2.0 + 1.0)
            + 0.5 * float(np.sum(h * np.log(spec.weights))))


@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-8])
def test_dawson_branch_small_r_against_conditioning(r):
    # chi^2_1 + lambda chi^2_2, whose Dawson closed form cancels as r falls,
    # on the contour; the reference conditions on the chi^2_1 part, with its
    # u^-1/2 as the quad weight
    lam, x = math.exp(-1.0), r * r
    ref, _ = quad(lambda u: -math.expm1(-(x - u) / (2.0 * lam))
                  * math.exp(-u / 2.0) / math.sqrt(2.0 * math.pi), 0.0, x,
                  weight="alg", wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-13)
    lp = smallball.log_exact_l2(WeightedChiSquareSpec.periodic(1.0, 1), r)
    assert lp == pytest.approx(math.log(ref), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [1e-50, 1e-3, 0.5, 2.0])
def test_dawson_branch_equal_weights_is_chi2_3(r):
    # lambda = 1, where the Dawson form degenerates; the sum is a chi^2_3
    lp = smallball.log_exact_l2(WeightedChiSquareSpec((1.0, 1.0), (1, 2)), r)
    assert lp == pytest.approx(math.log(gammainc(1.5, r * r / 2.0)), rel=1e-13)


@pytest.mark.parametrize("K,r", [(1, 1e-50), (5, 1e-149), (40, 1e-149),
                                 (120, 1e-149), (300, 2e-149),
                                 (300, 1.5e-154)])
def test_deep_radius_matches_leading_term(K, r):
    # the saddle is solved for log s0: K = 120 and 300 at s0 near 1e300 used
    # to stop its bracket search, and at r = 1.5e-154, where r^2 is barely
    # normal, s0 exceeds the largest float
    spec = WeightedChiSquareSpec.periodic(1.0, K)
    phi = -smallball.log_exact_l2(spec, r)
    assert phi == pytest.approx(_leading_phi(spec, r), rel=1e-13)


def test_contour_matches_closed_form():
    # Monte Carlo check of the contour path at K = 4, where no closed form
    # applies: 4e5 draws of the weighted chi-square sum, within 4 SE
    spec = WeightedChiSquareSpec.periodic(1.0, 4)
    w = np.asarray(spec.weights)
    h = np.asarray(spec.mults, float)
    rng = np.random.default_rng(11)
    n = 400000
    q = np.zeros(n)
    for wj, hj in zip(w, h):
        q += wj * np.sum(rng.standard_normal((n, int(hj))) ** 2, axis=1)
    for r in (1.0, 1.6):
        p = smallball.exact_l2(spec, r)
        p_mc = np.mean(q <= r * r)
        se = math.sqrt(p_mc * (1 - p_mc) / n)
        assert p == pytest.approx(p_mc, abs=4 * se)


def test_contour_matches_gamma_and_quadrature_forms():
    # the contour itself against lambda times a chi^2_h, whose CDF is a
    # regularized incomplete gamma, and against chi^2_2 + lambda chi^2_4 by
    # conditioning on the chi^2_2 part
    for h in (6, 9):
        for w in (1.0, 0.2):
            for x in (0.05, 1.0, 5.0):
                got = smallball._log_cdf_contour(np.array([w]),
                                                 np.array([float(h)]), x)[0]
                assert got == pytest.approx(
                    math.log(gammainc(h / 2.0, x / (2.0 * w))), abs=1e-9)
    for lam in (math.exp(-1.0), 0.1):
        for x in (0.01, 0.5, 4.0):
            ref, _ = quad(lambda u: 0.5 * math.exp(-u / 2.0)
                          * gammainc(2.0, (x - u) / (2.0 * lam)), 0.0, x,
                          epsabs=0.0, epsrel=1e-13, limit=200)
            got = smallball._log_cdf_contour(np.array([1.0, lam]),
                                             np.array([2.0, 4.0]), x)[0]
            assert got == pytest.approx(math.log(ref), abs=1e-9)


# (nu, K) of the exact-L2 sweep; K = 1 and 2 have few non-negligible
# weights, nu = 2, K = 27 has weights near 1e-317
SWEEP_SPECS = [(1.0, 1), (1.0, 2), (1.0, 5), (1.0, 8), (1.0, 10), (1.0, 40),
               (1.0, 120), (1.0, 300), (0.5, 40), (0.7, 60), (1.5, 20),
               (2.0, 27)]


def test_contour_points_budget():
    # every input of the sweep, from r = 4 (p > 0.99, on the complement)
    # down to r = 1e-149, takes at most 2048 integrand points
    for nu, K in SWEEP_SPECS:
        spec = WeightedChiSquareSpec.periodic(nu, K)
        for r in (1e-149, 1e-3, 0.5, 2.0, 4.0):
            inv = smallball._log_exact_l2(spec, r)
            assert math.isfinite(inv.log_p) and inv.log_p < 0
            assert 0 < inv.points <= 2048, (nu, K, r, inv.points)


def _abs_f(par, u):
    # |f(u)| straight from the definition of the normalised integrand
    eta = u * (2j - u)
    f = (1 + 1j * u) * np.exp(par.cx * eta) * np.prod(
        (1 + par.b[:, None] * eta) ** (-par.h[:, None] / 2), axis=0)
    return np.abs(f)


@pytest.mark.parametrize("nu,K,r", [(1.0, 10, 0.5), (1.0, 4, 1e-3),
                                    (2.0, 27, 1.2861081668351373e-4)])
def test_contour_tail_bound_holds(nu, K, r):
    # on both contours and at several steps and cut-offs u_hi, the sum of
    # |f| over the next 2^14 lattice points stays within the tail bound;
    # where a pass stops, the bound is below its stopping share
    spec = WeightedChiSquareSpec.periodic(nu, K)
    w, h = np.asarray(spec.weights), np.asarray(spec.mults, float)
    for par in (smallball._parabola(w, h, r * r),
                smallball._complement_parabola(w, h, r * r)):
        u = np.linspace(0.0, 8.0, 65)
        assert np.allclose(np.abs(smallball._integrand(par, u)),
                           _abs_f(par, u), rtol=1e-12, atol=0.0)
        for step in 0.5 / math.sqrt(par.cx) / np.array([1.0, 2.0, 4.0]):
            for u_hi in step * np.array([1.0, 4.0, 16.0, 32.0]):
                brute = float(np.sum(_abs_f(par, u_hi + step
                                            * np.arange(1, (1 << 14) + 1))))
                assert brute <= math.exp(smallball._log_tail(par, u_hi, step))
        assert smallball._invert(par)[3] < smallball._TAIL_RTOL


def test_contour_at_large_step_converges():
    # nu = 2, K = 27 has weights near 1e-317 and a trapezoid step near 7e7;
    # the contour used to give up after its first chunk
    r = 1.2861081668351373e-4
    lp = smallball.log_exact_l2(WeightedChiSquareSpec.periodic(2.0, 27), r)
    ref = smallball.log_exact_l2(WeightedChiSquareSpec.periodic(2.0, 6), r)
    assert math.isfinite(lp)
    assert lp == pytest.approx(ref, rel=1e-12)


def test_phi_l2_curve_reports_contour_work():
    r = np.geomspace(1e-10, 1e-1, 10)
    extra = smallball.phi_l2_curve(1.0, 40, r).extra
    assert extra["method"].tolist() == ["parabola"] * 10
    assert np.all(extra["points"] <= 256)
    assert np.all(extra["refinements"] >= 1)
    assert np.all(extra["s0"] > 0)
    assert np.all(extra["tail_share"] < smallball._TAIL_RTOL)
    # K = 1 runs the contour; past p = 1/2 its complement, whose real point
    # lies between the branch point -1/2 and 0
    extra = smallball.phi_l2_curve(1.0, 1, [0.5, 5.0]).extra
    assert extra["method"].tolist() == ["parabola", "parabola-complement"]
    assert np.all(extra["points"] > 0) and np.all(extra["refinements"] >= 1)
    assert extra["s0"][0] > 0 and -0.5 < extra["s0"][1] < 0
    # the one closed form evaluates no contour
    extra = smallball.phi_l2_curve(1.0, 0, [0.5]).extra
    assert extra["method"].tolist() == ["erf"]
    assert extra["points"].tolist() == [0]
    assert extra["refinements"].tolist() == [0]
    assert math.isnan(extra["s0"][0]) and math.isnan(extra["tail_share"][0])


def _log_p_mpmath(spec, r, s0):
    # 40-digit log p from Q = 1 - p = -(2 mu / pi) Re int_0^inf
    # e^{xz} M(z) / z (1 + i u) du on the parabola z = s0 + mu ((1+iu)^2 - 1)
    # through s0 in (-1/(2 lambda_1), 0), with mpmath's own quadrature
    with mpmath.workdps(40):
        w = [mpmath.mpf(v) for v in spec.weights]
        x, s0 = mpmath.mpf(r) ** 2, mpmath.mpf(s0)
        mu = min(-s0, s0 + 1 / (2 * w[0]))

        def f(u):
            z = s0 + mu * ((1 + 1j * u) ** 2 - 1)
            val = mpmath.exp(x * z) / z * (1 + 1j * u)
            for wj, hj in zip(w, spec.mults):
                val *= (1 + 2 * wj * z) ** (-mpmath.mpf(hj) / 2)
            return val.real

        q = -2 * mu / mpmath.pi * mpmath.quad(f, [0, 1, 4, mpmath.inf])
        return float(mpmath.log1p(-q))


@pytest.mark.parametrize("K,r", [(1, 5.0), (1, 8.0), (2, 5.0), (2, 8.0)])
def test_log_p_near_one_against_mpmath(K, r):
    # p > 1 - 1e-6: log p = log1p(-Q) keeps the digits that log(p) loses
    spec = WeightedChiSquareSpec.periodic(1.0, K)
    inv = smallball._log_exact_l2(spec, r)
    assert inv.method == "parabola-complement"
    assert inv.log_p == pytest.approx(_log_p_mpmath(spec, r, inv.s0),
                                      rel=1e-13, abs=0.0)


def test_single_chi_square_near_one():
    # the erf line switches to log1p(-erfc) past p = 1/2
    spec = WeightedChiSquareSpec.periodic(1.0, 0)
    for r in (1e-10, 0.5, 3.0, 8.0):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.erf(mpmath.mpf(r) / mpmath.sqrt(2))))
        assert smallball.log_exact_l2(spec, r) == pytest.approx(ref, rel=1e-14,
                                                                abs=0.0)


def test_exact_l2_deep_tail_log_domain():
    spec = WeightedChiSquareSpec.periodic(1.0, 40)
    lp = smallball.log_exact_l2(spec, 1e-6)
    assert lp < -100.0
    assert math.isfinite(lp)


def test_truncation_stability():
    # K increase from 40 to 60 changes phi(1e-6) by < 1e-6 relative
    a = smallball.log_exact_l2(WeightedChiSquareSpec.periodic(1.0, 40), 1e-6)
    b = smallball.log_exact_l2(WeightedChiSquareSpec.periodic(1.0, 60), 1e-6)
    assert abs(a - b) < 1e-6 * abs(b)


def test_phi_l2_curve_monotone():
    curve = smallball.phi_l2_curve(1.0, 10, [0.05, 0.1, 0.5, 1.0])
    phi = curve.lower
    assert np.all(np.diff(phi) < 0)
    assert np.all(phi > 0)


def test_estimate_monotone_and_common_randoms():
    cfg = PeriodicGenConfig(nu=1.0, K=8, tail_tol=1e-3)
    grid = GridSpec(n_points=256)
    ests = smallball.estimate(cfg, grid, "sup", [0.5, 1.0, 2.0, 20.0],
                              n_samples=2000, seed=3)
    p = [e.p_hat for e in ests]
    assert p == sorted(p)
    # radius far above 3 sd of the sup: certain event
    assert ests[-1].p_hat == pytest.approx(1.0, abs=1e-3)
    assert ests[-1].phi_hat == pytest.approx(0.0, abs=1e-3)
    # determinism
    ests2 = smallball.estimate(cfg, grid, "sup", [0.5, 1.0, 2.0, 20.0],
                               n_samples=2000, seed=3)
    assert [e.hits for e in ests2] == [e.hits for e in ests]


def test_estimate_zero_hits_marker():
    cfg = PeriodicGenConfig(nu=1.0, K=8, tail_tol=1e-3)
    grid = GridSpec(n_points=128)
    est = smallball.estimate(cfg, grid, "sup", [1e-6], n_samples=1000, seed=5)[0]
    assert est.hits == 0
    assert est.p_hat == 0.0
    assert est.phi_hat == math.inf
    assert est.ci_high < 1.0 and est.ci_high > 0.0
    assert math.isfinite(est.phi_lo)


def test_estimate_l2_matches_exact():
    cfg = PeriodicGenConfig(nu=1.0, K=8, tail_tol=1e-3)
    grid = GridSpec(n_points=512)
    spec = WeightedChiSquareSpec.periodic(1.0, 8)
    ests = smallball.estimate(cfg, grid, "l2", [1.0], n_samples=20000, seed=17)
    p_exact = smallball.exact_l2(spec, 1.0)
    e = ests[0]
    se = math.sqrt(p_exact * (1 - p_exact) / e.n_samples)
    assert abs(e.p_hat - p_exact) <= 3 * se


def test_estimate_preconditions():
    cfg = PeriodicGenConfig(nu=1.0, K=4, tail_tol=1e-1)
    grid = GridSpec(n_points=64)
    with pytest.raises(PreconditionError):
        smallball.estimate(cfg, grid, "sup", [0.5], n_samples=50, seed=1)
    with pytest.raises(PreconditionError):
        smallball.estimate(cfg, grid, "sup", [-0.5], n_samples=200, seed=1)


def test_spec_validation():
    with pytest.raises(PreconditionError):
        WeightedChiSquareSpec((0.5, 1.0), (1, 2))  # ascending
    with pytest.raises(PreconditionError):
        WeightedChiSquareSpec((1.0, -0.5), (1, 2))
    with pytest.raises(PreconditionError):
        WeightedChiSquareSpec((1.0, 0.5), (1, 0))  # zero multiplicity
    with pytest.raises(PreconditionError):
        WeightedChiSquareSpec((1.0, math.nan), (1, 2))
    for nu, K in [(math.nan, 3), (0.0, 3), (1.0, -3)]:
        with pytest.raises(PreconditionError):
            WeightedChiSquareSpec.periodic(nu, K)
