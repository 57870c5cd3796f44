import math

import numpy as np
import pytest

from smalldev import tsirelson
from smalldev.errors import CertificateError, PreconditionError
from smalldev.tsirelson import (
    CONTINUOUS,
    DISCRETE,
    PAPER_2PI,
    PAPER_EXPONENT,
    PERIOD_1,
    RIGOROUS_GRID_COUNT,
    TsirelsonConfig,
)


def test_config_derived_quantities():
    cfg = TsirelsonConfig(1.0, DISCRETE, 3, PAPER_2PI)
    assert cfg.delta == pytest.approx(2 * math.pi / 7)
    assert cfg.sigma2 == pytest.approx(7 * math.exp(-3), rel=1e-12)
    assert cfg.sigma2 == pytest.approx(0.348509, abs=1e-6)
    cfg1 = TsirelsonConfig(1.0, DISCRETE, 3, PERIOD_1)
    assert cfg1.delta == pytest.approx(1 / 7)
    cfgc = TsirelsonConfig(1.0, CONTINUOUS, 2.0)
    assert cfgc.delta == pytest.approx(math.pi)
    assert cfgc.sigma2 == pytest.approx(4 * math.exp(-2), rel=1e-12)


def test_config_validation():
    with pytest.raises(PreconditionError):
        TsirelsonConfig(0.0, DISCRETE, 1)
    with pytest.raises(PreconditionError):
        TsirelsonConfig(1.0, DISCRETE, 1.5)
    with pytest.raises(PreconditionError):
        TsirelsonConfig(1.0, "other", 1)
    TsirelsonConfig(1.0, CONTINUOUS, 1.5)  # real l fine for continuous
    for nu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            TsirelsonConfig(nu, DISCRETE, 1)
        # the window used to be sized first: ZeroDivisionError or ValueError
        with pytest.raises(PreconditionError):
            tsirelson.bound_opt(nu, DISCRETE, 0.1)
    with pytest.raises(PreconditionError):
        TsirelsonConfig(1.0, CONTINUOUS, math.nan)


def test_bound_at_invalid_radius():
    # log argument equals 1 at r = sigma sqrt(pi/2): bound 0, invalid
    cfg = TsirelsonConfig(1.0, DISCRETE, 3)
    sigma = math.sqrt(cfg.sigma2)
    res = tsirelson.bound_at(cfg, sigma * math.sqrt(math.pi / 2),
                             RIGOROUS_GRID_COUNT)
    assert res.phi_lower == 0.0
    assert not res.valid


def test_bound_at_arithmetic():
    cfg = TsirelsonConfig(1.0, DISCRETE, 3, PAPER_2PI)
    r = 0.01
    res = tsirelson.bound_at(cfg, r, PAPER_EXPONENT)
    assert res.phi_lower == pytest.approx((3 / math.pi) * (-math.log(r) - 3),
                                          rel=1e-12)
    sigma = math.sqrt(cfg.sigma2)
    res2 = tsirelson.bound_at(cfg, r, RIGOROUS_GRID_COUNT)
    n = math.floor(7 / (2 * math.pi)) + 1  # = 2
    assert n == 2
    per = -math.log(math.sqrt(2 / math.pi) * r / sigma)
    assert res2.phi_lower == pytest.approx(n * per, rel=1e-12)
    # continuous one-point case: l=2 gives delta=pi, a single grid point
    cfgc = TsirelsonConfig(1.0, CONTINUOUS, 2.0)
    resc = tsirelson.bound_at(cfgc, 0.01, RIGOROUS_GRID_COUNT)
    sigc = math.sqrt(cfgc.sigma2)
    assert resc.phi_lower == pytest.approx(
        -math.log(math.sqrt(2 / math.pi) * 0.01 / sigc), rel=1e-12
    )


def test_convention_factor_2pi():
    # identical l: period-1 exponent is 2 pi times the paper one
    for variant in (PAPER_EXPONENT,):
        a = tsirelson.bound_at(TsirelsonConfig(1.0, DISCRETE, 4, PAPER_2PI),
                               1e-3, variant)
        b = tsirelson.bound_at(TsirelsonConfig(1.0, DISCRETE, 4, PERIOD_1),
                               1e-3, variant)
        assert b.phi_lower == pytest.approx(2 * math.pi * a.phi_lower,
                                            rel=1e-12)


def test_asymptotic_constant():
    assert tsirelson.asymptotic_constant(1.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-12
    )
    assert tsirelson.asymptotic_constant(1.0) == pytest.approx(0.0795775,
                                                              abs=1e-7)
    assert tsirelson.asymptotic_constant(2.0) == pytest.approx(
        2.0 / (math.pi * 3.0 ** 1.5), rel=1e-12
    )
    assert tsirelson.asymptotic_constant(2.0) == pytest.approx(0.12252,
                                                               abs=1e-4)
    # monotone trend toward 1/pi
    vals = [tsirelson.asymptotic_constant(nu) for nu in (1, 2, 10, 1000)]
    assert all(np.diff(vals) > 0)
    assert vals[-1] == pytest.approx(1 / math.pi, rel=1e-2)


def test_bound_opt_window_and_monotonicity():
    res = tsirelson.bound_opt(1.0, DISCRETE, 1e-6)
    # seed l ~ |log r|/2 ~ 6.9; optimizer should land nearby
    assert res.l_used in (6, 7, 8)
    rs = [1e-3, 1e-5, 1e-8, 1e-12]
    phis = [tsirelson.bound_opt(1.0, DISCRETE, r).phi_lower for r in rs]
    assert all(np.diff(phis) > 0)


def test_bound_opt_reaches_asymptotic_constant():
    for nu in (0.5, 1.0, 2.0):
        res = tsirelson.bound_opt(nu, DISCRETE, 1e-100)
        ratio = res.phi_lower / abs(math.log(1e-100)) ** (1.0 + 1.0 / nu)
        assert ratio == pytest.approx(tsirelson.asymptotic_constant(nu),
                                      rel=0.05)


def test_continuous_rate_constant_stabilizes():
    # continuous-spectrum envelope has the same slope with half the constant
    for nu in (0.5, 1.0, 2.0):
        vals = []
        for r in (1e-60, 1e-100):
            res = tsirelson.bound_opt(nu, CONTINUOUS, r)
            vals.append(res.phi_lower / abs(math.log(r)) ** (1.0 + 1.0 / nu))
        assert vals[0] > 0
        assert vals[1] == pytest.approx(vals[0], rel=0.05)
        assert vals[1] == pytest.approx(
            tsirelson.asymptotic_constant(nu) / 2.0, rel=0.05
        )


def _scalar_bound_opt(nu, spectrum, r, convention, variant):
    """Reference scan: bound_at at every window candidate, first maximum wins."""
    seed = (abs(math.log(r)) / (nu + 1.0)) ** (1.0 / nu)
    l_max = 4.0 * math.ceil(seed)
    if spectrum == DISCRETE:
        candidates = range(1, max(int(l_max), 1) + 1)
    else:
        candidates = np.arange(1.0, max(l_max, 1.0) + 0.25, 0.25)
    best = None
    for l in candidates:
        res = tsirelson.bound_at(TsirelsonConfig(nu, spectrum, float(l), convention),
                                 r, variant)
        if best is None or res.phi_lower > best.phi_lower:
            best = res
    return best


def _scan_cases():
    for nu in (0.5, 1.0, 2.0, 3.0):
        for spectrum, conv in ((DISCRETE, PAPER_2PI), (DISCRETE, PERIOD_1),
                               (CONTINUOUS, PAPER_2PI)):
            for variant in (PAPER_EXPONENT, RIGOROUS_GRID_COUNT):
                for r in (0.5, 1e-3, 1e-20, 1e-50):
                    yield nu, spectrum, r, conv, variant


def test_bound_opt_matches_scalar_scan():
    for case in _scan_cases():
        assert tsirelson.bound_opt(*case) == _scalar_bound_opt(*case)


@pytest.mark.parametrize("chunk", [3, 7])
def test_bound_opt_first_maximum_across_chunks(monkeypatch, chunk):
    # windows split into many chunks pick the same l as one chunk
    expected = {case: tsirelson.bound_opt(*case) for case in _scan_cases()}
    monkeypatch.setattr(tsirelson, "_CHUNK", chunk)
    for case, res in expected.items():
        assert tsirelson.bound_opt(*case) == res


def test_rigorous_bound_survives_sigma_underflow():
    # sigma^2 = e^{-784} * 57 underflows to 0 at l = 28, nu = 2
    cfg = TsirelsonConfig(2.0, DISCRETE, 28)
    assert cfg.sigma2 == 0.0
    res = tsirelson.bound_at(cfg, 1e-50, RIGOROUS_GRID_COUNT)
    assert res.phi_lower == 0.0
    assert not res.valid
    for spectrum in (DISCRETE, CONTINUOUS):
        res = tsirelson.bound_opt(2.0, spectrum, 1e-50,
                                  variant=RIGOROUS_GRID_COUNT)
        assert res.valid and res.phi_lower > 0.0


def test_minorant_covariance_forms():
    # Dirichlet kernel at zero lag equals sigma^2
    for cfg in [TsirelsonConfig(1.0, DISCRETE, 3, PAPER_2PI),
                TsirelsonConfig(1.0, DISCRETE, 3, PERIOD_1),
                TsirelsonConfig(2.0, CONTINUOUS, 5.0)]:
        assert tsirelson.minorant_covariance(cfg, 0.0) == pytest.approx(
            cfg.sigma2, rel=1e-12
        )


def _minorant_covariance_scalar(cfg, t):
    # one lag at a time, with math's scalar functions
    scale = math.exp(-(cfg.l ** cfg.nu))
    if cfg.spectrum == DISCRETE:
        m = 2 * int(cfg.l) + 1
        x = t if cfg.convention == PAPER_2PI else 2.0 * math.pi * t
        if abs(math.sin(x / 2.0)) < 1e-14:
            return scale * m * math.cos((m - 1) / 2.0 * x)
        return scale * math.sin(m * x / 2.0) / math.sin(x / 2.0)
    if t == 0.0:
        return 2.0 * cfg.l * scale
    return 2.0 * scale * math.sin(cfg.l * t) / t


def test_minorant_covariance_array_matches_scalar():
    # lags include every Dirichlet pole (t = 0 and whole periods) and t = 0
    # of the continuous form, where the array form takes its limit branch
    for cfg, period in [
        (TsirelsonConfig(1.0, DISCRETE, 3, PAPER_2PI), 2 * math.pi),
        (TsirelsonConfig(2.0, DISCRETE, 5, PERIOD_1), 1.0),
        (TsirelsonConfig(1.0, CONTINUOUS, 2.5), 1.0),
    ]:
        lags = np.concatenate([np.linspace(-2.5, 2.5, 41) * period,
                               np.arange(-3, 4) * period])
        got = tsirelson.minorant_covariance(cfg, lags)
        assert got.shape == lags.shape
        ref = [_minorant_covariance_scalar(cfg, t) for t in lags]
        assert np.all(np.isfinite(got))
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * cfg.sigma2)


def test_uncorrelated_certificate():
    for l in range(1, 11):
        for conv in (PAPER_2PI, PERIOD_1):
            rep = tsirelson.uncorrelated_certificate(
                TsirelsonConfig(1.0, DISCRETE, l, conv)
            )
            assert rep.passed
    for l in (1.0, 2.0, 5.0):
        rep = tsirelson.uncorrelated_certificate(
            TsirelsonConfig(1.0, CONTINUOUS, l)
        )
        assert rep.passed
    # wrong grid step is caught
    cfg = TsirelsonConfig(1.0, DISCRETE, 2)
    with pytest.raises(CertificateError):
        tsirelson.uncorrelated_certificate(cfg, delta=cfg.delta / 2)
