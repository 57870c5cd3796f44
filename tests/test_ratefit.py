import math

import numpy as np
import pytest

from smalldev import ratefit, tsirelson
from smalldev.errors import CapacityError, PreconditionError


def _synthetic(A, gamma, beta, r_values):
    out = []
    for r in r_values:
        L = abs(math.log(r))
        out.append((r, A * L ** gamma * math.log(L) ** beta))
    return out


def test_fit_recovers_synthetic():
    r = np.geomspace(1e-12, 1e-2, 40)
    pts = _synthetic(3.0, 1.5, 0.5, r)
    res = ratefit.fit(pts, beta_mode="free")
    assert not res.refused
    assert res.gamma == pytest.approx(1.5, abs=0.05)
    assert res.beta == pytest.approx(0.5, abs=0.3)
    assert res.A == pytest.approx(3.0, rel=0.3)


def test_fit_exact_model_fixed_beta():
    r = np.geomspace(1e-15, 1e-3, 30)
    pts = [(x, abs(math.log(x)) ** 2) for x in r]
    res = ratefit.fit(pts, beta_mode=("fixed", 0.0))
    assert res.gamma == pytest.approx(2.0, abs=1e-6)
    assert res.A == pytest.approx(1.0, rel=1e-6)
    assert res.rss < 1e-18


def test_fit_idempotence():
    r = np.geomspace(1e-12, 1e-3, 25)
    res = ratefit.fit(_synthetic(2.0, 1.2, -0.4, r), beta_mode="free")
    resampled = _synthetic(res.A, res.gamma, res.beta, r)
    res2 = ratefit.fit(resampled, beta_mode="free")
    assert res2.gamma == pytest.approx(res.gamma, abs=1e-9)
    assert res2.beta == pytest.approx(res.beta, abs=1e-9)
    assert res2.A == pytest.approx(res.A, rel=1e-9)


def test_fit_refusals():
    res = ratefit.fit([(1e-5, 3.0), (2e-5, 2.9)], beta_mode="free")
    assert res.refused
    # narrow |log r| span
    res = ratefit.fit([(1e-5, 3.0), (2e-5, 2.9), (3e-5, 2.8), (4e-5, 2.7)],
                      beta_mode="free")
    assert res.refused
    assert "factor of 2" in res.reason
    with pytest.raises(PreconditionError):
        ratefit.fit([(0.5, 1.0), (1e-5, 3.0), (1e-12, 9.0)])
    with pytest.raises(PreconditionError):
        ratefit.fit([])
    pts = [(1e-5, 3.0), (1e-10, 9.0), (1e-20, 25.0)]
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="beta must be finite"):
            ratefit.fit(pts, beta_mode=("fixed", beta))
    with pytest.raises(PreconditionError, match="unknown beta_mode"):
        ratefit.fit(pts, beta_mode=("bogus", 1.0))
    # a huge fixed beta used to give rss inf, which is no JSON, and A = 0
    for beta in (1e150, 1e308, -1e308):
        with pytest.raises(CapacityError, match="past the float range"):
            ratefit.fit(pts, beta_mode=("fixed", beta))


@pytest.mark.parametrize("phi", [0.0, -1.0, math.nan, math.inf])
def test_fit_refuses_phi_not_positive_and_finite(phi):
    # NaN and inf used to pass through to a fit of NaNs
    pts = [(1e-5, 3.0), (1e-10, phi), (1e-20, 25.0)]
    for mode in ("free", ("fixed", 0.0)):
        with pytest.raises(PreconditionError, match="positive and finite"):
            ratefit.fit(pts, beta_mode=mode)


def test_tsirelson_slope():
    for nu in (0.5, 1.0, 2.0):
        pts = []
        for r in np.geomspace(1e-80, 1e-20, 25):
            res = tsirelson.bound_opt(nu, tsirelson.DISCRETE, float(r))
            pts.append((float(r), res.phi_lower))
        fitres = ratefit.fit(pts, beta_mode=("fixed", 0.0))
        assert fitres.gamma == pytest.approx(1.0 + 1.0 / nu, abs=0.03)


def test_open_problem_curves():
    low, up = ratefit.open_problem_curves(2.0, [1e-10])
    L = abs(math.log(1e-10))
    expect_low = math.sqrt(L) * math.exp(math.sqrt(2.0 * L))
    assert low.lower[0] == pytest.approx(expect_low, rel=1e-12)
    assert math.sqrt(L) == pytest.approx(4.7985, abs=1e-4)
    assert math.sqrt(2.0 * L) == pytest.approx(6.7861, abs=1e-4)
    # ordering on a sweep
    rs = np.geomspace(1e-12, 1e-3, 20)
    for alpha in (1.5, 2.0, 4.0, 8.0):
        low, up = ratefit.open_problem_curves(alpha, rs)
        assert np.all(low.lower <= up.upper)
    # exponent core decreases in alpha at fixed r
    cores = [ratefit.open_problem_curves(a, [1e-10])[0].lower[0]
             for a in (2.0, 4.0, 8.0, 16.0)]
    assert all(np.diff(cores) < 0)


def test_open_problem_validation():
    with pytest.raises(PreconditionError):
        ratefit.open_problem_curves(1.0, [0.5])
    with pytest.raises(PreconditionError):
        ratefit.open_problem_curves(2.0, [1.5])
    with pytest.raises(PreconditionError):
        ratefit.open_problem_curves(math.nan, [0.5])
    with pytest.raises(PreconditionError):
        ratefit.open_problem_curves(math.inf, [0.5])
    with pytest.raises(PreconditionError):
        ratefit.open_problem_curves(2.0, [math.nan])


def test_fit_refuses_collinear_regressors():
    # two distinct radii give two distinct (log L, log log L) rows, which
    # cannot identify three coefficients, though |log r| spans a factor of 3
    res = ratefit.fit([(1e-10, 50.0), (1e-10, 51.0), (1e-30, 300.0)])
    assert res.refused and res.reason == "collinear regressors"
    assert res.A is None and res.n_points == 3
