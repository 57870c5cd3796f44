"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Monte Carlo scale is fixed at the contract values (10^5 paths, grid 1024)
with pinned seeds; heavy path batches are shared across criteria through
module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from reference import periodic_covariance
from smalldev import (
    gfunc,
    pathgen,
    ratefit,
    rkhs,
    smallball,
    spectra,
    tsirelson,
)
from smalldev.pathgen import GridSpec, PeriodicGenConfig

SEED = 20260823
N_MC = 100_000
GRID = GridSpec(0.0, 1.0, 1024)


def _report(num, name, passed=True):
    print(f"CRITERION {num:02d} [{name}]: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def sup_norms_nu1():
    cfg = PeriodicGenConfig(1.0, 45)
    assert cfg.tail_variance <= 1e-15
    return pathgen.batch_norms(cfg.amplitudes(), GRID, SEED, N_MC, "sup")


@pytest.fixture(scope="module")
def sup_norms_nu2():
    cfg = PeriodicGenConfig(2.0, 7)
    assert cfg.tail_variance <= 1e-15
    return pathgen.batch_norms(cfg.amplitudes(), GRID, SEED, N_MC, "sup")


def _phi_stats(norms, r):
    hits = int(np.count_nonzero(norms <= r))
    n = len(norms)
    if hits == 0:
        return math.inf, math.inf, 0
    p = hits / n
    return -math.log(p), math.sqrt((1.0 - p) / hits), hits


def test_criterion_01_tsirelson_constants():
    for nu, target in [(1.0, 1.0 / (4.0 * math.pi)),
                       (2.0, 2.0 / (math.pi * 3.0 ** 1.5))]:
        res = tsirelson.bound_opt(nu, tsirelson.DISCRETE, 1e-100,
                                  convention=tsirelson.PAPER_2PI,
                                  variant=tsirelson.PAPER_EXPONENT)
        ratio = res.phi_lower / abs(math.log(1e-100)) ** (1.0 + 1.0 / nu)
        assert ratio == pytest.approx(target, rel=0.05)
    _report(1, "tsirelson-constants")


def test_criterion_02_tsirelson_rate_slope():
    for spectrum in (tsirelson.DISCRETE, tsirelson.CONTINUOUS):
        for nu in (0.5, 1.0, 2.0):
            pts = []
            for r in np.geomspace(1e-80, 1e-20, 25):
                res = tsirelson.bound_opt(nu, spectrum, float(r))
                pts.append((float(r), res.phi_lower))
            fit = ratefit.fit(pts, beta_mode=("fixed", 0.0))
            assert not fit.refused
            assert fit.gamma == pytest.approx(1.0 + 1.0 / nu, abs=0.03), \
                (spectrum, nu)
    _report(2, "tsirelson-rate-slope")


def test_criterion_03_lower_bound_validity(sup_norms_nu1, sup_norms_nu2):
    for nu, norms in [(1.0, sup_norms_nu1), (2.0, sup_norms_nu2)]:
        for r in (0.05, 0.1, 0.2, 0.5):
            # bound for the simulated period-1 paths: period-1 grid count
            b = tsirelson.bound_opt(nu, tsirelson.DISCRETE, r,
                                    convention=tsirelson.PERIOD_1,
                                    variant=tsirelson.RIGOROUS_GRID_COUNT)
            phi_hat, se, hits = _phi_stats(norms, r)
            if hits > 0:
                assert b.phi_lower <= phi_hat + 3.0 * se, (nu, r)
    _report(3, "lower-bound-validity")


def test_criterion_04_l2_oracle_agreement():
    cfg = PeriodicGenConfig(1.0, 8)
    assert cfg.tail_variance <= 1e-3
    norms = pathgen.batch_norms(cfg.amplitudes(), GRID, SEED, N_MC, "l2")
    spec = smallball.WeightedChiSquareSpec.periodic(1.0, 8)
    for r in (0.5, 1.0, 2.0):
        p_hat = float(np.mean(norms <= r))
        p = smallball.exact_l2(spec, r)
        se = math.sqrt(p * (1.0 - p) / N_MC)
        assert abs(p_hat - p) <= 3.0 * se, r
    # degenerate exact case
    p0 = smallball.exact_l2(smallball.WeightedChiSquareSpec.periodic(1.0, 0),
                            1.0)
    assert p0 == pytest.approx(2.0 * 0.8413447460685429 - 1.0, abs=1e-6)
    assert p0 == pytest.approx(0.682689, abs=1e-6)
    _report(4, "l2-oracle-agreement")


def test_criterion_05_remark1_trend():
    curve = smallball.phi_l2_curve(1.0, 40, np.geomspace(1e-8, 1e-4, 9))
    ratio = np.asarray(curve.extra["phi_over_log2"])
    spread = (ratio.max() - ratio.min()) / ratio.min()
    assert spread < 0.15
    _report(5, "remark1-trend")


def test_criterion_06_anderson_domination(sup_norms_nu2):
    amps = tsirelson.minorant_amplitudes(
        tsirelson.TsirelsonConfig(2.0, tsirelson.DISCRETE, 4, tsirelson.PERIOD_1))
    y_norms = pathgen.batch_norms(amps, GRID, SEED + 1, N_MC, "sup")
    for r in (0.1, 0.3):
        p_x = float(np.mean(sup_norms_nu2 <= r))
        p_y = float(np.mean(y_norms <= r))
        se = math.sqrt(p_x * (1 - p_x) / N_MC + p_y * (1 - p_y) / N_MC)
        assert p_x <= p_y + 3.0 * se, r
    _report(6, "anderson-domination")


def test_criterion_07_covariance_recovery():
    n = 10_000
    delta = GRID.spacing
    lags = np.array([0.0, delta, 0.1, 0.5])
    # continuous spectra
    models = [spectra.continuous_nu(1.0), spectra.continuous_nu(2.0),
              spectra.bandlimited(1.0)]
    for model in models:
        vals = pathgen.continuous_values(model, lags, SEED, n)
        for j, t in enumerate(lags):
            target = spectra.covariance(model, float(t)).value
            prod = vals[:, 0] * vals[:, j]
            se = float(np.std(prod)) / math.sqrt(n)
            assert abs(float(np.mean(prod)) - target) <= 3.0 * se, (model.kind, t)
    # periodic spectra
    for nu, K in [(1.0, 45), (2.0, 7)]:
        cfg = PeriodicGenConfig(nu, K)
        assert cfg.tail_variance <= 1e-15
        vals = pathgen.series_values(cfg.amplitudes(), lags, SEED, n)
        for j, t in enumerate(lags):
            target = periodic_covariance(nu, float(t))
            prod = vals[:, 0] * vals[:, j]
            se = float(np.std(prod)) / math.sqrt(n)
            assert abs(float(np.mean(prod)) - target) <= 3.0 * se, (nu, t)
    # closed-form cross-checks
    for t in (0.0, 0.25, 0.5, 1.0, 2.0):
        assert spectra.covariance(spectra.continuous_nu(1.0), t).value == \
            pytest.approx(2.0 / (1.0 + t * t), abs=1e-8)
        assert spectra.covariance(spectra.continuous_nu(2.0), t).value == \
            pytest.approx(math.sqrt(math.pi) * math.exp(-t * t / 4.0), abs=1e-8)
        expect = 2.0 if t == 0.0 else 2.0 * math.sin(t) / t
        assert spectra.covariance(spectra.bandlimited(1.0), t).value == \
            pytest.approx(expect, abs=1e-8)
    _report(7, "covariance-recovery")


def test_criterion_08_dirichlet_certificate():
    for l in range(1, 11):
        for conv in (tsirelson.PAPER_2PI, tsirelson.PERIOD_1):
            rep = tsirelson.uncorrelated_certificate(
                tsirelson.TsirelsonConfig(1.0, tsirelson.DISCRETE, l, conv)
            )
            assert rep.passed
    for l in (1.0, 2.0, 5.0):
        rep = tsirelson.uncorrelated_certificate(
            tsirelson.TsirelsonConfig(1.0, tsirelson.CONTINUOUS, l)
        )
        assert rep.passed
    _report(8, "dirichlet-certificate")


def test_criterion_09_kuelbs_li_suite(sup_norms_nu1):
    # entropy lower bound vs the MC upper CI of phi at lambda = 2:
    # H(2r/lambda) = H(r) <= phi(r) + 2
    ell = rkhs.CoefficientEllipsoid(1.0, 8)
    for r in (0.1, 0.2, 0.4):
        hits = int(np.count_nonzero(sup_norms_nu1 <= r))
        lo, _hi = smallball.wilson_interval(hits, N_MC)
        phi_hi = -math.log(lo) if lo > 0 else math.inf
        assert rkhs.entropy_lower(ell, r) <= phi_hi + 2.0
    # alpha_r identity round-trip
    from scipy.stats import norm as normal
    for phi in (0.3, 1.0, 5.0, 12.0):
        a = rkhs.alpha_r(phi)
        assert -normal.logcdf(a) == pytest.approx(phi, abs=1e-9)
    # simplified-vs-exact comparison at lambda = sqrt(2 phi): the gap is
    # the Mills correction log Phi(lambda + alpha_r), bounded by log 2
    for phi in (8.0, 12.0, 20.0):
        lam = math.sqrt(2.0 * phi)
        out = rkhs.kl_entropy_lower(phi, 4.0 * phi, lam)
        assert out["exact"] >= out["simplified"] - math.log(2.0) - 1e-9
    _report(9, "kuelbs-li-suite")


def test_criterion_10_g_function():
    spec = gfunc.GFunctionSpec(0.5)
    # 1 / zeta(3/2) pinned from a 30-digit independent evaluation
    assert spec.c == pytest.approx(0.38279338399942656, abs=1e-10)
    cert = gfunc.g_certify(spec, t_max=1e4)
    assert cert.theta_G > 0.0
    assert cert.bounded_by_one
    assert cert.decay_exponent >= 1.0 / 1.5 - 0.1
    _report(10, "g-function")


def test_criterion_11_truncation_bound():
    for nu in (0.5, 1.0):
        model = spectra.continuous_nu(nu)
        theta = 3.0 ** (-1.0 / nu)
        pts = []
        for eps in np.geomspace(1e-12, 1e-3, 15):
            res = rkhs.truncation_entropy_upper(
                rkhs.TruncationBoundInput(model, float(eps), theta=theta)
            )
            assert res.I <= 2.0 * res.input.v
            pts.append((float(eps), res.bound_rate))
        fit = ratefit.fit(pts, beta_mode=("fixed", 0.0))
        assert fit.gamma == pytest.approx(1.0 + 1.0 / nu, abs=0.05), nu
    _report(11, "truncation-bound")


def test_criterion_12_scaling_patch():
    from smalldev.curves import BoundCurve
    eps = np.array([0.5, 0.3, 0.2])
    ell = rkhs.CoefficientEllipsoid(1.0, 4)
    H = np.array([rkhs.entropy_upper(ell, e) for e in eps])
    curve = BoundCurve(x=eps, lower=None, upper=H, label="H")
    out = rkhs.scaling_patch(curve, 0.5)
    assert np.array_equal(out.x, 2.0 * eps)
    assert np.array_equal(out.upper, 2.0 * H)  # exact arithmetic
    _report(12, "scaling-patch")


def test_criterion_13_cli_determinism(tmp_path):
    from smalldev import cli

    args = ["smallball", "--spectrum", "discrete", "--nu", "1", "--K", "8",
            "--norm", "l2", "--r", "0.5,1,2", "--n", "5000", "--grid", "256",
            "--seed", "7"]
    outs = []
    for sub, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / sub
        assert cli.main(args + ["--threads", threads, "--out", str(out)]) == 0
        outs.append((out / "smallball.csv").read_bytes())
    assert outs[0] == outs[1]
    # manifest rerun reproduces bytes
    import json

    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest["params"]["out"] = str(tmp_path / "c")
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(manifest))
    assert cli.main(["rerun", str(mfile)]) == 0
    assert (tmp_path / "c" / "smallball.csv").read_bytes() == outs[0]
    _report(13, "cli-determinism")
