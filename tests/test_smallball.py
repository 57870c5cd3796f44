import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from smalldev import pathgen, smallball
from smalldev.errors import NumericFailure, PreconditionError
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


def test_contour_refuses_an_unbounded_tail(monkeypatch):
    # chi^2_1 + lambda chi^2_2 (the Dawson form) has |f(t)| ~ t^-2.5: its
    # tail bound needs about 1e9 points, so the point cap raises instead
    monkeypatch.setattr(smallball, "_MAX_POINTS", 1 << 16)
    with pytest.raises(NumericFailure):
        smallball._log_cdf_contour(np.array([1.0, 0.5]), np.array([1.0, 2.0]),
                                   0.25)


@pytest.mark.parametrize("nu,K,r", [(1.0, 10, 0.5), (1.0, 4, 1e-3),
                                    (2.0, 27, 1.2861081668351373e-4)])
def test_contour_tail_bound_holds(nu, K, r):
    # where a trapezoid pass stops, the next 2^20 points sum in modulus to
    # no more than the stated tail bound, which is below its stopping share
    spec = WeightedChiSquareSpec.periodic(nu, K)
    w, h, x = np.asarray(spec.weights), np.asarray(spec.mults, float), r * r
    s0, g0, gpp = smallball._saddle(w, h, x)
    step = 0.5 / math.sqrt(gpp)
    val, n = smallball._trapezoid(w, h, x, s0, g0, step)
    t_hi = n * step
    mag = abs(smallball._integrand(w, h, x, s0, g0, np.array([t_hi]))[0])
    bound = smallball._tail_bound(w, h, s0, t_hi, mag, step)
    assert bound < smallball._TAIL_RTOL * val * math.pi / step
    brute = 0.0
    for k in range(0, 1 << 20, 1 << 14):
        t = t_hi + step * np.arange(k + 1, k + (1 << 14) + 1)
        vals = smallball._integrand(w, h, x, s0, g0, t)
        brute += float(np.sum(np.abs(vals)))
    assert brute <= bound


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
    assert np.all(extra["points"] <= 1024)
    assert np.all(extra["refinements"] >= 1)
    assert np.all(extra["s0"] > 0)
    # closed forms evaluate no contour
    extra = smallball.phi_l2_curve(1.0, 1, [0.5]).extra
    assert extra["points"].tolist() == [0]
    assert extra["refinements"].tolist() == [0]
    assert math.isnan(extra["s0"][0])


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
