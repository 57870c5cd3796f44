import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

import reference
from smalldev import gfunc
from smalldev.errors import CapacityError, PreconditionError
from smalldev.gfunc import GFunctionSpec


def test_spec_validation_and_normalizer():
    with pytest.raises(PreconditionError):
        GFunctionSpec(0.0)
    with pytest.raises(PreconditionError):
        GFunctionSpec(1.0)
    spec = GFunctionSpec(0.5)
    assert spec.c == pytest.approx(1.0 / float(zeta(1.5, 1.0)), rel=1e-12)
    assert spec.c == pytest.approx(0.382793, abs=1e-6)
    # coefficients sum to one: 10^5 explicit terms plus the zeta tail
    head = float(np.sum(spec.a(np.arange(1, 100_001))))
    tail = spec.c * float(zeta(1.5, 100_001.0))
    assert head + tail == pytest.approx(1.0, abs=1e-12)


def test_g_at_zero_and_small_t():
    spec = GFunctionSpec(0.5)
    assert gfunc.log_abs_g(spec, 0.0)[0] == 0.0
    # brute-force high-depth product as oracle at moderate t
    k = np.arange(1, 2_000_001)
    a = spec.c * k ** (-1.5)
    for t in (0.5, 1.0, 3.0):
        x = a * t
        ref = float(np.sum(np.log(np.abs(np.sinc(x / math.pi)))))
        assert gfunc.log_abs_g(spec, t)[0] == pytest.approx(ref, abs=1e-7)


def test_first_zero_beyond_one():
    # smallest zero of G sits at pi / c > 1, so G > 0 throughout [0, 1]
    spec = GFunctionSpec(0.5)
    assert math.pi / spec.c == pytest.approx(8.2068, abs=1e-3)
    t = np.linspace(0.0, 1.0, 200)
    assert np.all(np.isfinite(gfunc.log_abs_g(spec, t)))


def test_bounded_by_one_and_sign():
    spec = GFunctionSpec(0.5)
    t = np.linspace(0.0, 50.0, 500)
    assert np.all(gfunc.log_abs_g(spec, t) <= 1e-12)
    # G changes sign at its first zero pi/c, where |G| dips to rounding level
    z = math.pi / spec.c
    near = gfunc.log_abs_g(spec, [z - 0.05, z, z + 0.05])
    assert near[1] < min(near[0], near[2]) - 20.0


def test_capacity_error_on_deep_t():
    spec = GFunctionSpec(0.5)
    with pytest.raises(CapacityError, match=f"depth cap {gfunc.MAX_DEPTH}"):
        gfunc.log_abs_g(spec, 1e12)


def test_certify_gamma_half():
    cert = gfunc.g_certify(GFunctionSpec(0.5))
    assert cert.theta_G > 0.0
    assert 0.9 < cert.theta_G < 1.0
    assert cert.bounded_by_one
    assert cert.decay_exponent >= 1.0 / 1.5 - 0.1
    assert cert.decay_exponent <= 1.0
    assert cert.C_G > 0.0


@pytest.mark.parametrize("gamma", [0.3, 0.8])
def test_certify_other_gammas(gamma):
    cert = gfunc.g_certify(GFunctionSpec(gamma))
    assert cert.theta_G > 0.0
    assert cert.bounded_by_one
    assert 1.0 / (1.0 + gamma) - 0.1 <= cert.decay_exponent <= 1.0


_K_ORACLE = 2_000_000


@pytest.mark.parametrize("gamma", [0.25, 0.5])
def test_large_t_matches_deep_product(gamma):
    # oracle: 2e6 explicit factors plus the quadratic and quartic zeta
    # tail, whose next term is below 1e-20 at a_K t <= 1e-4
    spec = GFunctionSpec(gamma)
    c = spec.c
    a = spec.a(np.arange(1, _K_ORACLE + 1))
    for t in (20.0, 137.5, 1234.5, 5000.0):
        x = a * t
        # away from the factors' zeros, where log|sin| is ill-conditioned
        big = x > 1.0
        assert np.all(np.abs(x[big] - math.pi * np.round(x[big] / math.pi)) > 1e-3)
        ref = float(np.sum(np.log(np.abs(np.sin(x) / x)))) \
            - (c * t) ** 2 * float(zeta(2 + 2 * gamma, _K_ORACLE + 1)) / 6 \
            - (c * t) ** 4 * float(zeta(4 + 4 * gamma, _K_ORACLE + 1)) / 180
        assert gfunc.log_abs_g(spec, t)[0] == pytest.approx(ref, abs=1e-9)


def _series_coef_exact(n_max):
    """zeta(2n) / (n pi^{2n}) = 2^{2n-1} |B_{2n}| / (n (2n)!), as fractions."""
    B = [Fraction(1)]
    for m in range(1, 2 * n_max + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return [2 ** (2 * n - 1) * abs(B[2 * n]) / (n * math.factorial(2 * n))
            for n in range(1, n_max + 1)]


@pytest.mark.parametrize("gamma,t", [(0.25, 9700.0), (0.5, 480.0)])
def test_tail_bound_covers_omitted_remainder(gamma, t):
    # at the depth D chosen for t, the omitted remainder
    # -sum_{k>D} [log sinc(a_k t) + N-term series] is brute-forced in
    # extended precision over k <= 2e6 (beyond, a_k t < 1e-4 and the
    # remainder is below 1e-80); t sits just under a depth doubling, so
    # the bound is close to the tolerance and far above rounding noise
    spec = GFunctionSpec(gamma)
    D = spec.depth_needed(t)
    bound = float(spec._tail_bound(D, t))
    assert 1e-13 < bound <= gfunc._TAIL_TOL
    with localcontext() as ctx:
        ctx.prec = 40
        coef = [np.longdouble(str(Decimal(f.numerator) / Decimal(f.denominator)))
                for f in _series_coef_exact(gfunc._SERIES_TERMS)]
    k = np.arange(D + 1, _K_ORACLE + 1, dtype=np.longdouble)
    x = np.longdouble(t) * np.longdouble(spec.c) * k ** np.longdouble(-1 - gamma)
    series = np.zeros_like(x)
    for b in coef[::-1]:
        series = (series + b) * x * x
    omitted = -float(np.sum(np.log(np.sin(x) / x) + series))
    assert 0.0 < omitted <= bound


@pytest.mark.parametrize("gamma", [0.25, 0.5])
def test_depth_at_1e4_and_certificate_max_depth(gamma):
    spec = GFunctionSpec(gamma)
    assert spec.depth_needed(1e4) <= 1024
    cert = gfunc.g_certify(spec)
    assert cert.max_depth == spec.depth_needed(1e4)
    assert cert.fit_t_range == (10.0, 1e4)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_log_abs_g_rejects_non_finite_t(t):
    with pytest.raises(PreconditionError):
        gfunc.log_abs_g(GFunctionSpec(0.5), [1.0, t])


# bad t_max values are covered through the CLI in test_cli.py
def test_certify_rejects_bad_range():
    with pytest.raises(PreconditionError):
        gfunc.g_certify(GFunctionSpec(0.5), t_max=5.0)


@pytest.mark.parametrize("gamma", [0.9, 0.5, 0.25, 0.1])
def test_log_abs_g_matches_the_plain_reference_bits(monkeypatch, gamma):
    # the cached c and the log-sinc formed in one buffer change no bit of
    # log |G| or of its certificate
    spec = GFunctionSpec(gamma)
    grids = (np.linspace(0.0, 1.0, 4001), np.geomspace(1.0, 1e4, 2000),
             np.geomspace(10.0, 1e4, 3000))
    for t in grids:
        assert gfunc.log_abs_g(spec, t).tobytes() \
            == reference.log_abs_g(spec, t).tobytes()
    cert = gfunc.g_certify(spec)
    monkeypatch.setattr(gfunc, "log_abs_g", reference.log_abs_g)
    ref = gfunc.g_certify(GFunctionSpec(gamma))
    assert cert.spec.c == 1.0 / float(zeta(1.0 + gamma, 1.0))
    for field in ("theta_G", "C_G", "decay_exponent"):
        assert getattr(cert, field).hex() == getattr(ref, field).hex(), field
    assert cert == ref


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_abs_g_at_most_one(gamma):
    # every factor is a sinc, so log |G| <= 0 exactly: log |sin x / x| <= 0
    # and the tail series is subtracted, so g_certify states it without a scan
    spec = GFunctionSpec(gamma)
    t = np.concatenate([np.linspace(0.0, 50.0, 5001), np.geomspace(50.0, 1e4, 5000)])
    assert np.max(gfunc.log_abs_g(spec, t)) <= 0.0


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_theta_is_abs_g_at_one(gamma):
    # on [0, 1] every a_k t <= c < pi, so every factor is positive and
    # decreasing: inf |G| is |G(1)|, which g_certify reads without a scan
    spec = GFunctionSpec(gamma)
    vals = gfunc.log_abs_g(spec, np.linspace(0.0, 1.0, 100_001))
    assert np.all(np.diff(vals) <= 0.0)
    low = math.exp(np.min(vals))
    theta = gfunc.g_certify(spec).theta_G
    assert low * (1.0 - 1e-10) <= theta <= low


def _local_maxima(t, vals):
    i = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    return t[i], vals[i]


@pytest.mark.parametrize("t_max", [20.0, 1e4])
@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_decay_certificate_holds(gamma, t_max):
    # log |G| <= -C_G t^p at every point of a dense grid of the window, with
    # the theory's exponent, and C_G under the sampled envelope's least ratio
    spec = GFunctionSpec(gamma)
    cert = gfunc.g_certify(spec, t_max=t_max)
    assert cert.decay_exponent == 1.0 / (1.0 + gamma)
    assert cert.fit_t_range == (gfunc.FIT_T_MIN, t_max)
    t = np.geomspace(gfunc.FIT_T_MIN, t_max, 20_000)
    vals = gfunc.log_abs_g(spec, t)
    assert np.all(vals <= -cert.C_G * t ** cert.decay_exponent)
    tp, vp = _local_maxima(t, vals)
    # [10, 20] holds no maximum at gamma 0.1, where G still falls
    assert 0.0 < cert.C_G <= np.min(-vp / tp ** cert.decay_exponent, initial=np.inf)


def test_decay_constants_at_1e4():
    # the closed form's least value over the window's intervals, and the
    # exponent 1/(1 + gamma) read exactly rather than fitted
    for gamma, C in [(0.1, 0.02734), (0.25, 0.06637), (0.5, 0.10631),
                     (0.75, 0.12620), (0.9, 0.12015)]:
        cert = gfunc.g_certify(GFunctionSpec(gamma))
        assert cert.C_G == pytest.approx(C, abs=1e-5), gamma


@pytest.mark.parametrize("t_max", [20.0, 1e4])
def test_certificate_reads_one_point_of_g(monkeypatch, t_max):
    # theta_G is log |G(1)|; the decay needs no value of G at all
    points = []

    def counted(spec, t):
        points.append(np.atleast_1d(t).size)
        return reference.log_abs_g(spec, t)

    monkeypatch.setattr(gfunc, "log_abs_g", counted)
    gfunc.g_certify(GFunctionSpec(0.5), t_max=t_max)
    assert points == [1]


def test_certificate_keeps_no_fit_and_no_memo():
    source = Path(gfunc.__file__).read_text()
    for name in ("polyfit", "geomspace", "lru_cache", "CertificateError"):
        assert name not in source, name
