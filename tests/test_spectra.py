import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from reference import closed_form_covariance
from smalldev import spectra
from smalldev.errors import (
    CapacityError,
    DomainError,
    NumericFailure,
    PreconditionError,
)


def test_density_values():
    m1 = spectra.continuous_nu(1.0)
    assert spectra.density_eval(m1, 0.0) == 1.0
    m2 = spectra.continuous_nu(2.0)
    assert spectra.density_eval(m2, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    ma = spectra.log_power_alpha(2.0)
    assert spectra.density_eval(ma, math.e) == pytest.approx(math.exp(-1.0), rel=1e-12)
    # log+ clips below 1
    assert spectra.density_eval(ma, 0.5) == 1.0


def test_density_even():
    for m in [spectra.continuous_nu(1.5), spectra.bandlimited(1.0),
              spectra.log_power_alpha(2.5), spectra.truncated_continuous_nu(1.0, 3.0)]:
        for u in [0.1, 0.7, 2.3, 9.0]:
            assert spectra.density_eval(m, u) == spectra.density_eval(m, -u)
        # the array formula is density_eval point by point
        u = [0.0, 0.1, -0.7, 2.3, -9.0, 1.0, math.e, -math.e, 3.0, -3.0]
        if m.cutoff is not None:
            u += [m.cutoff, -m.cutoff, np.nextafter(m.cutoff, 10.0)]
        got = spectra.density(m, np.array(u))
        assert got.tolist() == [spectra.density_eval(m, x) for x in u]
        assert got.tolist() == spectra.density(m, -np.array(u)).tolist()
        if m.cutoff is not None:  # the cutoff itself is inside the support
            assert got[-3] > 0.0 and got[-1] == 0.0


def test_discrete_atoms_and_tail():
    assert np.array_equal(spectra.discrete_log_masses(1.5, 6),
                          -np.arange(7.0) ** 1.5)
    # k^nu past the float range is a log mass of -inf, and no overflow warning
    assert spectra.discrete_log_masses(1e308, 3).tolist() == [0.0, -1.0, -math.inf, -math.inf]
    for nu, K in [(0.5, 0), (0.5, 40), (1.0, 20), (2.0, 0), (2.0, 5)]:
        ref = math.fsum(math.exp(-k ** nu) for k in range(K + 1, K + 20000))
        assert spectra.discrete_tail(nu, K) == pytest.approx(ref, rel=1e-13)
    assert spectra.discrete_tail(1.0, 0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
    for nu, K in [(math.nan, 2), (0.0, 2), (-1.0, 2), (math.inf, 2), (1.0, -1)]:
        with pytest.raises(PreconditionError):
            spectra.discrete_log_masses(nu, K)
        with pytest.raises(PreconditionError):
            spectra.discrete_tail(nu, K)
    # the series amplitudes 1 and sqrt(2) exp(-k^nu / 2), in logs
    for nu, K in [(0.5, 0), (1.0, 6), (2.0, 40), (3.0, 40)]:
        log_amp = spectra.discrete_log_amplitudes(nu, K)
        assert len(log_amp) == K + 1 and log_amp[0] == 0.0
        with mpmath.workdps(30):
            ref = [float(mpmath.log(2) / 2 - mpmath.mpf(k) ** nu / 2)
                   for k in range(1, K + 1)]
        assert log_amp[1:] == pytest.approx(ref, rel=1e-15, abs=0.0)
    for nu, K in [(math.nan, 2), (0.0, 2), (math.inf, 2), (1.0, -1)]:
        with pytest.raises(PreconditionError):
            spectra.discrete_log_amplitudes(nu, K)
    # 2.1e16 atoms would be summed: refused before any is formed
    with pytest.raises(CapacityError):
        spectra.discrete_tail(0.1, 0)
    with pytest.raises(CapacityError):
        spectra.discrete_log_masses(1.0, 1 << 22)


def test_truncated_total_mass_closed_form():
    m = spectra.truncated_continuous_nu(1.0, 2.0)
    assert spectra.total_mass(m) == pytest.approx(2.0 * (1.0 - math.exp(-2.0)),
                                                  rel=1e-14)
    for nu, c in [(0.5, 3.0), (2.5, 0.7), (3.0, 40.0)]:
        m = spectra.truncated_continuous_nu(nu, c)
        ref, _ = quad(lambda u: math.exp(-u ** nu), 0.0, min(c, 10.0),
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert spectra.total_mass(m) == pytest.approx(2.0 * ref, rel=1e-12)


@pytest.mark.parametrize("c", [1e200, 1e300, math.inf])
def test_cutoff_power_past_float_range(c):
    # cutoff ** nu used to end in a bare OverflowError: past the float range
    # P(1/nu, c^nu) is 1 and Q(1/nu, c^nu) is 0
    m = spectra.truncated_continuous_nu(2.0, c)
    assert spectra.total_mass(m) == spectra.total_mass(spectra.continuous_nu(2.0))
    assert spectra.exp_moment(m, 0.0) == spectra.exp_moment(spectra.continuous_nu(2.0), 0.0)
    assert spectra.continuous_tail(2.0, c) == 0.0


def test_quad_upper_limit_is_computed_once_per_model(monkeypatch):
    model = spectra.log_power_alpha(2.5)
    U = spectra._quad_upper_limit(model)

    def no_density_eval(m, u):
        raise AssertionError("density evaluated again")

    monkeypatch.setattr(spectra, "density_eval", no_density_eval)
    assert spectra._quad_upper_limit(spectra.log_power_alpha(2.5)) == U


def test_total_mass():
    assert spectra.total_mass(spectra.continuous_nu(1.0)) == pytest.approx(2.0, rel=1e-12)
    assert spectra.total_mass(spectra.continuous_nu(2.0)) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12
    )
    assert spectra.total_mass(spectra.bandlimited(1.0)) == 2.0
    # frozen quadrature check for the slowly decaying family, alpha = 2
    ma = spectra.log_power_alpha(2.0)
    got = spectra.total_mass(ma)
    from scipy.integrate import quad

    ref = 2.0 * sum(
        quad(lambda u: spectra.density_eval(ma, u), a, b, limit=300)[0]
        for a, b in [(0.0, 1.0), (1.0, 50.0), (50.0, 5e4)]
    )
    assert got == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("alpha, ref", [(1.05, 18.31161096094057),
                                        (1.2, 8.636240430394646),
                                        (1.5, 6.262160113915515)])
def test_log_power_total_mass(alpha, ref):
    # 2 (1 + int_0^inf e^(s - s^alpha) ds) to 30 digits (mpmath); the mass
    # spreads over u up to about e^40, and one QUADPACK pass over [0, U]
    # never samples its bulk
    assert spectra.total_mass(spectra.log_power_alpha(alpha)) == pytest.approx(
        ref, rel=1e-10)


@pytest.mark.parametrize("alpha, t, ref, tol", [
    (1.2, 0.5, 2.4519729446941551, {"rel": 1e-8}),
    (1.5, 0.5, 2.7071451071166638, {"rel": 1e-8}),
    (1.2, 2.0, -0.0022018795061131960, {"abs": 1e-9}),
    (1.5, 2.0, -0.084298154821058323, {"abs": 1e-9}),
])
def test_log_power_covariance(alpha, t, ref, tol):
    # references from mpmath.quadosc, which differs from two float methods
    # by up to 2.8e-10
    got = spectra.covariance(spectra.log_power_alpha(alpha), t).value
    assert got == pytest.approx(ref, **tol)


def test_log_power_out_of_reach_raises():
    # at alpha = 1.01 the mass reaches u = e^600, past what QUADPACK resolves
    # against cos(u t): a flagged piece, never a silent number
    with pytest.raises(NumericFailure):
        spectra.covariance(spectra.log_power_alpha(1.01), 0.5)
    # at alpha = 1.001 the tail runs past the largest float
    with pytest.raises(CapacityError):
        spectra.total_mass(spectra.log_power_alpha(1.001))


def _continuous_nu_covariance_mp(nu, t):
    """2 int_0^inf exp(-u^nu) cos(u t) du by mpmath, away from QUADPACK.

    For nu < 1 along the rotated contour u = i y, where exp(-u^nu) stays
    bounded and e^(-y t) damps the integrand; for nu > 1 by the Taylor
    series in t, sum_n (-1)^n t^(2n) Gamma((2n + 1)/nu) / ((2n)! nu), whose
    terms rise and then fall (the largest is about 1e34 at nu 1.5, t 10).
    """
    if nu < 1:
        with mpmath.workdps(30):
            rot = mpmath.expjpi(mpmath.mpf(nu) / 2)
            val = -mpmath.quad(lambda y: mpmath.exp(-y ** nu * rot - y * t),
                               [0, 1, 10, 100, 1000, mpmath.inf]).imag
            return float(2 * val)
    with mpmath.workdps(80):
        nu, t = mpmath.mpf(nu), mpmath.mpf(t)
        val, n, term = 0, 0, 1
        while term > mpmath.mpf(10) ** -40:
            term = (t ** (2 * n) * mpmath.gamma((2 * n + 1) / nu)
                    / (mpmath.factorial(2 * n) * nu))
            val += (-1) ** n * term
            n += 1
        return float(2 * val)


def test_covariance_closed_forms():
    m1 = spectra.continuous_nu(1.0)
    cv = spectra.covariance(m1, 0.5)
    assert cv.value == pytest.approx(1.6, rel=1e-9)
    m2 = spectra.continuous_nu(2.0)
    assert spectra.covariance(m2, 0.0).value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    mb = spectra.bandlimited(1.0)
    assert abs(spectra.covariance(mb, math.pi).value) < 1e-9
    for m in [mb] + [spectra.continuous_nu(nu) for nu in (0.3, 0.5, 1.0, 1.5, 2.0, 4.0)]:
        for t in [0.0, 0.01, 0.1, 0.3, 0.5, 1.7, 2.0, 4.0, 10.0]:
            ref = closed_form_covariance(m, t)
            if ref is None:
                ref = _continuous_nu_covariance_mp(m.nu, t)
            assert spectra.covariance(m, t).value == pytest.approx(ref, abs=1e-12), (m, t)


def test_covariance_at_zero_is_total_mass():
    for m in [spectra.continuous_nu(0.7), spectra.bandlimited(2.0),
              spectra.log_power_alpha(3.0)]:
        assert spectra.covariance(m, 0.0).value == pytest.approx(
            spectra.total_mass(m), rel=1e-9
        )
    # at nu = 0.001 the mass and the tail point are past the float range
    for t in (0.0, 1.0):
        with pytest.raises(CapacityError):
            spectra.covariance(spectra.continuous_nu(0.001), t)


def test_bochner_positivity():
    rng = np.random.default_rng(12345)
    for m in [spectra.continuous_nu(1.0), spectra.continuous_nu(2.0),
              spectra.bandlimited(1.0)]:
        R0 = spectra.total_mass(m)
        lags = rng.uniform(0.0, 2.0, size=8)
        M = np.array(
            [[spectra.covariance(m, ti - tj).value for tj in lags] for ti in lags]
        )
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() >= -1e-8 * R0


def test_covariance_bounded_by_mass():
    for m in [spectra.continuous_nu(1.0), spectra.bandlimited(1.0)]:
        R0 = spectra.total_mass(m)
        for t in [0.1, 0.9, 2.5]:
            assert abs(spectra.covariance(m, t).value) <= R0 * (1 + 1e-12)


def test_exp_moment():
    m2 = spectra.continuous_nu(2.0)
    assert spectra.exp_moment(m2, 0.0) == pytest.approx(math.pi ** 0.25, rel=1e-10)
    # nu = 2: M(r)^2 = 2 int_0^inf exp(r u - u^2) du = sqrt(pi) e^(r^2/4) (1 + erf(r/2))
    for r in (2.0, 40.0):
        ref = math.sqrt(math.pi) * math.exp(r * r / 4.0) * (1.0 + math.erf(r / 2.0))
        assert spectra.exp_moment(m2, r) ** 2 == pytest.approx(ref, rel=1e-12)
    m1 = spectra.continuous_nu(1.0)
    with pytest.raises(DomainError):
        spectra.exp_moment(m1, 1.0)
    # rate just below 1 converges: integral = 2/(1-rate)
    assert spectra.exp_moment(m1, 0.5) == pytest.approx(2.0, rel=1e-8)
    with pytest.raises(DomainError):
        spectra.exp_moment(spectra.continuous_nu(0.5), 0.1)
    with pytest.raises(DomainError):
        spectra.exp_moment(spectra.log_power_alpha(2.0), 0.1)
    # truncated/bandlimited always converge: 2 int_0^c exp(rate u) du; the
    # integrand is shifted by its largest exponent, here rate c, so the error
    # check is relative to the peak and c = 10 passes it too
    for c, rate in [(1.0, 5.0), (10.0, 5.0)]:
        assert spectra.exp_moment(spectra.bandlimited(c), rate) == pytest.approx(
            math.sqrt(2.0 * math.expm1(rate * c) / rate), rel=1e-12)
    # truncated nu = 1: 2 int_0^3 exp(-u / 2) du
    assert spectra.exp_moment(spectra.truncated_continuous_nu(1.0, 3.0), 0.5) == (
        pytest.approx(math.sqrt(4.0 * -math.expm1(-1.5)), rel=1e-12))
    with pytest.raises(PreconditionError):
        spectra.exp_moment(m2, math.nan)


def test_exp_moment_past_float_range():
    # log M = 0.5 (1400 + log(1 - e^-1400)) = 700 is still in range
    assert math.log(spectra.exp_moment(spectra.bandlimited(700.0), 2.0)) == (
        pytest.approx(700.0, rel=1e-14))
    with pytest.raises(CapacityError):  # log M = 1000
        spectra.exp_moment(spectra.bandlimited(1000.0), 2.0)
    # the peak near u = 0.44 dwarfs exp(rate c - c^nu), which underflows
    with mpmath.workdps(30):
        ref = 2 * mpmath.quad(lambda u: mpmath.exp(u - u ** 1.5), [0, 1, 3, 10, 50])
    assert spectra.exp_moment(spectra.truncated_continuous_nu(1.5, 2000.0), 1.0) ** 2 == (
        pytest.approx(float(ref), rel=1e-12))
    with pytest.raises(CapacityError):  # the peak is near u = 5^100
        spectra.exp_moment(spectra.continuous_nu(1.01), 5.0)
    with pytest.raises(CapacityError):  # the tail point is past 5^10000
        spectra.exp_moment(spectra.continuous_nu(1.0001), 5.0)
    # integrated to the tilted-tail point 1.5 and not to the cutoff, where
    # u^160 overflowed
    with mpmath.workdps(30):
        ref = mpmath.sqrt(2 * mpmath.quad(lambda u: mpmath.exp(u - u ** 160),
                                          [0, 0.97, 1, 1.05, 1.5, 100]))
    assert spectra.exp_moment(spectra.truncated_continuous_nu(160.0, 100.0), 1.0) == (
        pytest.approx(float(ref), rel=1e-10))


def test_exp_moment_at_rate_zero_is_root_mass():
    for m in [spectra.continuous_nu(1.5),
              spectra.bandlimited(2.0), spectra.log_power_alpha(3.0),
              spectra.truncated_continuous_nu(1.0, 2.0)]:
        assert spectra.exp_moment(m, 0.0) == math.sqrt(spectra.total_mass(m))


def test_model_validation():
    with pytest.raises(PreconditionError):
        spectra.continuous_nu(0.0)
    with pytest.raises(PreconditionError):
        spectra.log_power_alpha(1.0)
    with pytest.raises(PreconditionError):
        spectra.bandlimited(-1.0)
    # the discrete atoms are no model: they come from the (nu, K) functions
    for kind in ("nope", spectra.DISCRETE_NU):
        with pytest.raises(PreconditionError, match="unknown spectral model kind"):
            spectra.SpectralModel(kind, nu=1.0)
    for bad in (lambda: spectra.continuous_nu(math.nan),
                lambda: spectra.continuous_nu(math.inf),
                lambda: spectra.log_power_alpha(math.nan),
                lambda: spectra.truncated_continuous_nu(1.0, math.nan)):
        with pytest.raises(PreconditionError):
            bad()


@pytest.mark.parametrize("nu", [0.5, 0.75, 1.0, 2.0, 3.0])
def test_tail_mass_point_inverts_the_tail(nu):
    u = spectra.tail_mass_point(spectra.continuous_nu(nu), 1e-10)
    assert spectra.continuous_tail(nu, u) == pytest.approx(1e-10, rel=1e-9)
    # a cutoff that comes first is the point; bandlimited has no tail past it
    assert spectra.tail_mass_point(spectra.truncated_continuous_nu(nu, u / 2), 1e-10) == u / 2
    assert spectra.tail_mass_point(spectra.truncated_continuous_nu(nu, 2 * u), 1e-10) == u


def test_tail_mass_point_edges_and_refusals():
    assert spectra.tail_mass_point(spectra.bandlimited(2.5), 1e-10) == 2.5
    assert spectra.tail_mass_point(spectra.log_power_alpha(2.0), 1e-10) is None
    # past the float range in logs, with no overflow
    assert spectra.tail_mass_point(spectra.continuous_nu(0.006), 1e-10) == math.inf
    with pytest.raises(PreconditionError, match="tol > 0"):
        spectra.tail_mass_point(spectra.continuous_nu(1.0), 0.0)

