import math

import numpy as np
import pytest

import reference
from smalldev import pathgen, spectra, tsirelson
from smalldev.errors import CapacityError, CertificateError, PreconditionError
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
    with pytest.raises(PreconditionError, match="unknown convention 'other'"):
        TsirelsonConfig(1.0, DISCRETE, 1, "other")
    with pytest.raises(PreconditionError, match="unknown variant 'other'"):
        tsirelson.bound_at(TsirelsonConfig(1.0, DISCRETE, 1), 0.1, "other")
    with pytest.raises(PreconditionError, match="r must be positive"):
        tsirelson.bound_at(TsirelsonConfig(1.0, DISCRETE, 1), 0.0)
    TsirelsonConfig(1.0, CONTINUOUS, 1.5)  # real l fine for continuous
    # a continuous grid is always Delta = 2 pi / l: period-1 used to be
    # accepted, echoed and ignored
    with pytest.raises(PreconditionError, match="use convention paper-2pi"):
        TsirelsonConfig(1.0, CONTINUOUS, 2.0, PERIOD_1)
    with pytest.raises(PreconditionError, match="use convention paper-2pi"):
        tsirelson.bound_opt(1.0, CONTINUOUS, 0.01, PERIOD_1)
    for nu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            TsirelsonConfig(nu, DISCRETE, 1)
        # the window used to be sized first: ZeroDivisionError or ValueError
        with pytest.raises(PreconditionError):
            tsirelson.bound_opt(nu, DISCRETE, 0.1)
    # l = inf, and l = 1e308 where 2 l + 1 is inf, used to give sigma2 nan
    # with RuntimeWarnings from _grid
    for spectrum in (DISCRETE, CONTINUOUS):
        for l in (math.nan, math.inf, 1e308):
            with pytest.raises(PreconditionError, match="l must be finite and >= 1"):
                TsirelsonConfig(1.0, spectrum, l)


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
    with pytest.raises(PreconditionError, match="nu must be finite and positive"):
        tsirelson.asymptotic_constant(0)


def test_bound_opt_window_and_monotonicity():
    res = tsirelson.bound_opt(1.0, DISCRETE, 1e-6)
    # the asymptotic optimum l ~ |log r|/2 ~ 6.9; the scan lands nearby
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


def _step(spectrum):
    return 1.0 if spectrum == DISCRETE else 0.25


def _bound(nu, spectrum, r, convention, variant, l):
    return tsirelson.bound_at(TsirelsonConfig(nu, spectrum, float(l), convention),
                              r, variant)


def _scalar_bound_opt(*case):
    """Reference scan: bound_at at l = 1, 1 + step, ... until the bound is 0;
    the first maximum wins."""
    best, l = None, 1.0
    while True:
        res = _bound(*case, l)
        if best is None or res.phi_lower > best.phi_lower:
            best = res
        if res.phi_lower == 0.0:
            return best
        l += _step(case[1])


def _window_end(*case):
    """The first of l = 1, 2, 4, ... where bound_at is 0."""
    l = 1.0
    while _bound(*case, l).phi_lower > 0.0:
        l *= 2.0
    return l


def _scan_cases():
    # at nu 40 the window's end l^nu passes the float range
    for nu in (0.5, 1.0, 2.0, 3.0, 40.0):
        for spectrum, conv in ((DISCRETE, PAPER_2PI), (DISCRETE, PERIOD_1),
                               (CONTINUOUS, PAPER_2PI)):
            for variant in (PAPER_EXPONENT, RIGOROUS_GRID_COUNT):
                for r in (0.5, 1e-3, 1e-20, 1e-50):
                    yield nu, spectrum, r, conv, variant


def test_bound_opt_matches_scalar_scan():
    for case in _scan_cases():
        assert tsirelson.bound_opt(*case) == _scalar_bound_opt(*case)


def test_bound_opt_scans_to_where_the_bound_ends(monkeypatch):
    # the window used to end at 4 ceil(seed), with seed the paper variant's
    # optimum (|log r| / (nu + 1))^(1/nu); that cut the rigorous variant's
    # optimum off below nu of about 0.6 (nu 0.3, r 1e-5: l 5,752 and phi
    # 17,772 against l 65,841 and phi 77,225)
    small_nu = [(nu, spectrum, r, PAPER_2PI, RIGOROUS_GRID_COUNT)
                for nu in (0.3, 0.4, 0.5) for spectrum in (DISCRETE, CONTINUOUS)
                for r in (1e-5, 1e-20)]
    phi = tsirelson._phi
    scanned = []

    def recording(*args):
        l = args[4]
        if np.all(np.diff(l) == _step(args[1])):  # not the probe l = 1, 2, 4, ...
            scanned.append(l[-1])
        return phi(*args)

    monkeypatch.setattr(tsirelson, "_phi", recording)
    for case in [*_scan_cases(), *small_nu]:
        scanned.clear()
        res = tsirelson.bound_opt(*case)
        last = max(scanned)
        assert _bound(*case, last + _step(case[1])).phi_lower == 0.0, case
        assert res.phi_lower >= _bound(*case, last).phi_lower, case


@pytest.mark.parametrize("variant", [PAPER_EXPONENT, RIGOROUS_GRID_COUNT])
def test_window_past_2_to_32_is_refused_before_the_scan(monkeypatch, variant):
    calls = []
    phi = tsirelson._phi

    def counting(*args):
        calls.append(args)
        return phi(*args)

    monkeypatch.setattr(tsirelson, "_phi", counting)
    with pytest.raises(CapacityError, match="still positive at l = 4294967296"):
        tsirelson.bound_opt(0.01, DISCRETE, 1e-300, variant=variant)
    assert len(calls) == 1  # the probe of the window's end, no chunk


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


def test_minorant_past_float_range_is_zero():
    # l^nu = 1e400 overflows: the level, sigma^2 and the covariance are 0,
    # with no warning
    cfg = TsirelsonConfig(2.0, CONTINUOUS, 1e200)
    with np.errstate(all="raise"):
        assert cfg.sigma2 == 0.0
        got = reference.minorant_covariance(cfg, [0.0, 1.0, 2.5])
    assert np.array_equal(got, np.zeros(3))


def test_grid_is_evaluated_once_per_call(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return grid(*args)

    grid = tsirelson._grid
    monkeypatch.setattr(tsirelson, "_grid", counting)
    monkeypatch.setattr(tsirelson, "_CHUNK", 7)
    for spectrum, l in ((DISCRETE, 3), (CONTINUOUS, 2.5)):
        cfg = TsirelsonConfig(1.0, spectrum, l)
        for variant in (PAPER_EXPONENT, RIGOROUS_GRID_COUNT):
            calls.clear()
            tsirelson.bound_at(cfg, 1e-3, variant)
            assert len(calls) == 1, (cfg, variant)
        calls.clear()
        tsirelson.uncorrelated_certificate(cfg)
        assert len(calls) == 1, cfg
        # bound_opt: one for the window's end, one per rigorous chunk and
        # one for the winner
        case = (1.0, spectrum, 1e-20, PAPER_2PI, RIGOROUS_GRID_COUNT)
        n = int((_window_end(*case) - 1.0) / _step(spectrum)) + 1
        for variant, expected in ((PAPER_EXPONENT, 1),
                                  (RIGOROUS_GRID_COUNT, math.ceil(n / 7) + 2)):
            calls.clear()
            tsirelson.bound_opt(1.0, spectrum, 1e-20, variant=variant)
            assert len(calls) == expected, (spectrum, variant)


def test_minorant_discrete_variance_and_dirichlet_zeros():
    # Var = exp(-l^nu) (2l+1): l=3, nu=1 -> 7 e^-3
    cfg = TsirelsonConfig(1.0, DISCRETE, 3, PERIOD_1)
    amps = tsirelson.minorant_amplitudes(cfg)
    vals = pathgen.series_values(amps, np.array([0.0, 0.3]), seed=11, n_paths=30000)
    target = 7.0 * math.exp(-3.0)
    assert target == pytest.approx(0.348509, abs=1e-6)
    for col in range(2):
        v = np.var(vals[:, col])
        assert v == pytest.approx(target, abs=3 * target * math.sqrt(2 / 30000))
    # sample correlation between Y(0) and Y(k/(2l+1)) vanishes
    lags = np.arange(0, 7) / 7
    vals = pathgen.series_values(amps, lags, seed=13, n_paths=30000)
    C = np.corrcoef(vals.T)
    off = C[0, 1:]
    assert np.max(np.abs(off)) < 3.0 / math.sqrt(30000) * 1.5
    with pytest.raises(PreconditionError):
        tsirelson.minorant_amplitudes(TsirelsonConfig(1.0, CONTINUOUS, 3))


def test_minorant_continuous_variance():
    # Var = 2 l exp(-l^nu): l=2, nu=1 -> 4 e^-2; the minorant is the
    # bandlimited process scaled to density exp(-l^nu)
    cfg = TsirelsonConfig(1.0, CONTINUOUS, 2.0)
    target = 4.0 * math.exp(-2.0)
    assert target == pytest.approx(0.541341, abs=1e-6)
    assert cfg.sigma2 == pytest.approx(target, rel=1e-15)
    batch = math.sqrt(cfg.sigma2 / (2 * cfg.l)) * pathgen.continuous_values(
        spectra.bandlimited(cfg.l), np.array([0.0, 0.5, 1.0]), seed=1, n_paths=3000)
    v = float(np.var(batch[:, 0]))
    assert v == pytest.approx(target, abs=3 * target * math.sqrt(2 / 3000))


def test_minorant_covariance_forms():
    # Dirichlet kernel at zero lag equals sigma^2
    for cfg in [TsirelsonConfig(1.0, DISCRETE, 3, PAPER_2PI),
                TsirelsonConfig(1.0, DISCRETE, 3, PERIOD_1),
                TsirelsonConfig(2.0, CONTINUOUS, 5.0)]:
        assert reference.minorant_covariance(cfg, 0.0) == pytest.approx(
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
        got = reference.minorant_covariance(cfg, lags)
        assert got.shape == lags.shape
        ref = [_minorant_covariance_scalar(cfg, t) for t in lags]
        assert np.all(np.isfinite(got))
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * cfg.sigma2)


def test_uncorrelated_certificate(monkeypatch):
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
    grid = tsirelson._grid

    def halved(*args):
        level, sigma2, delta, count = grid(*args)
        return level, sigma2, delta / 2.0, count

    monkeypatch.setattr(tsirelson, "_grid", halved)
    with pytest.raises(CertificateError):
        tsirelson.uncorrelated_certificate(TsirelsonConfig(1.0, DISCRETE, 2))
