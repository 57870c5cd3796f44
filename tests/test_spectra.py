import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from smalldev import spectra
from smalldev.errors import (
    CapacityError,
    DomainError,
    NumericFailure,
    PreconditionError,
    UnsupportedOperation,
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


def test_density_rejects_discrete():
    with pytest.raises(UnsupportedOperation):
        spectra.density_eval(spectra.discrete_nu(1.0), 0.3)
    with pytest.raises(UnsupportedOperation):
        spectra.density(spectra.discrete_nu(1.0), np.array([0.0, 0.3]))


def test_atom_mass():
    m = spectra.discrete_nu(1.0)
    assert spectra.atom_mass(m, 0) == 1.0
    assert spectra.atom_mass(m, 3) == pytest.approx(math.exp(-3.0), rel=1e-12)
    m2 = spectra.discrete_nu(2.0)
    assert spectra.atom_mass(m2, -2) == pytest.approx(math.exp(-4.0), rel=1e-12)
    with pytest.raises(UnsupportedOperation):
        spectra.atom_mass(spectra.continuous_nu(1.0), 1)


def test_discrete_atoms_and_tail():
    assert np.array_equal(spectra.discrete_log_masses(1.5, 6),
                          -np.arange(7.0) ** 1.5)
    for nu, K in [(0.5, 0), (0.5, 40), (1.0, 20), (2.0, 0), (2.0, 5)]:
        ref = math.fsum(math.exp(-k ** nu) for k in range(K + 1, K + 20000))
        assert spectra.discrete_tail(nu, K) == pytest.approx(ref, rel=1e-13)
    m = spectra.discrete_nu(1.0)
    assert spectra.total_mass(m) == pytest.approx(
        1.0 + 2.0 / (math.e - 1.0), rel=1e-14)
    for nu, K in [(math.nan, 2), (0.0, 2), (-1.0, 2), (math.inf, 2), (1.0, -1)]:
        with pytest.raises(PreconditionError):
            spectra.discrete_log_masses(nu, K)
        with pytest.raises(PreconditionError):
            spectra.discrete_tail(nu, K)
    # 2.1e16 atoms would be summed: refused before any is formed
    with pytest.raises(CapacityError):
        spectra.total_mass(spectra.discrete_nu(0.1))
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
            ref = spectra.closed_form_covariance(m, t)
            if ref is None:
                ref = _continuous_nu_covariance_mp(m.nu, t)
            assert spectra.covariance(m, t).value == pytest.approx(ref, abs=1e-12), (m, t)


def test_covariance_at_zero_is_total_mass():
    for m in [spectra.continuous_nu(0.7), spectra.discrete_nu(2.0),
              spectra.bandlimited(2.0), spectra.log_power_alpha(3.0)]:
        assert spectra.covariance(m, 0.0).value == pytest.approx(
            spectra.total_mass(m), rel=1e-9
        )


def test_bochner_positivity():
    rng = np.random.default_rng(12345)
    for m in [spectra.continuous_nu(1.0), spectra.continuous_nu(2.0),
              spectra.discrete_nu(1.0), spectra.bandlimited(1.0)]:
        R0 = spectra.total_mass(m)
        lags = rng.uniform(0.0, 2.0, size=8)
        M = np.array(
            [[spectra.covariance(m, ti - tj).value for tj in lags] for ti in lags]
        )
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() >= -1e-8 * R0


def test_covariance_bounded_by_mass():
    for m in [spectra.continuous_nu(1.0), spectra.discrete_nu(1.0)]:
        R0 = spectra.total_mass(m)
        for t in [0.1, 0.9, 2.5]:
            assert abs(spectra.covariance(m, t).value) <= R0 * (1 + 1e-12)


def test_discrete_covariance_period_one():
    m = spectra.discrete_nu(1.0)
    a = spectra.covariance(m, 0.37).value
    b = spectra.covariance(m, 1.37).value
    assert a == pytest.approx(b, rel=1e-12)


def test_exp_moment():
    m2 = spectra.continuous_nu(2.0)
    assert spectra.exp_moment(m2, 0.0) == pytest.approx(math.pi ** 0.25, rel=1e-10)
    # independent oracle: integral of exp(r*u - u^2) = sqrt(pi)*exp(r^2/4)*Phi-type form
    from scipy.integrate import quad

    ref = 2.0 * quad(lambda u: math.exp(2.0 * u - u * u), 0, 60, limit=300)[0]
    assert spectra.exp_moment(m2, 2.0) == pytest.approx(math.sqrt(ref), rel=1e-9)
    m1 = spectra.continuous_nu(1.0)
    with pytest.raises(DomainError):
        spectra.exp_moment(m1, 1.0)
    # rate just below 1 converges: integral = 2/(1-rate)
    assert spectra.exp_moment(m1, 0.5) == pytest.approx(2.0, rel=1e-8)
    with pytest.raises(DomainError):
        spectra.exp_moment(spectra.continuous_nu(0.5), 0.1)
    with pytest.raises(DomainError):
        spectra.exp_moment(spectra.log_power_alpha(2.0), 0.1)
    # truncated/bandlimited always converge: 2 int_0^c exp(rate u) du, whose
    # error check is relative to the tilt at c, so c = 10 passes it too
    for c, rate in [(1.0, 5.0), (10.0, 5.0)]:
        assert spectra.exp_moment(spectra.bandlimited(c), rate) == pytest.approx(
            math.sqrt(2.0 * math.expm1(rate * c) / rate), rel=1e-12)
    # truncated nu = 1: 2 int_0^3 exp(-u / 2) du
    assert spectra.exp_moment(spectra.truncated_continuous_nu(1.0, 3.0), 0.5) == (
        pytest.approx(math.sqrt(4.0 * -math.expm1(-1.5)), rel=1e-12))
    with pytest.raises(PreconditionError):
        spectra.exp_moment(m2, math.nan)


def test_exp_moment_at_rate_zero_is_root_mass():
    for m in [spectra.continuous_nu(1.5), spectra.discrete_nu(2.0),
              spectra.bandlimited(2.0), spectra.log_power_alpha(3.0),
              spectra.truncated_continuous_nu(1.0, 2.0)]:
        assert spectra.exp_moment(m, 0.0) == math.sqrt(spectra.total_mass(m))


def test_exp_moment_discrete():
    m = spectra.discrete_nu(2.0)
    ref = 1.0 + 2.0 * sum(math.exp(1.0 * k - k * k) for k in range(1, 60))
    assert spectra.exp_moment(m, 1.0) == pytest.approx(math.sqrt(ref), rel=1e-12)
    # nu = 10: every atom past k = 1 underflows to 0
    assert spectra.exp_moment(spectra.discrete_nu(10.0), 1.0) == math.sqrt(3.0)
    # nu = 1: 1 + 2 sum_k exp(-k / 2) = 1 + 2 / (e^(1/2) - 1)
    assert spectra.exp_moment(spectra.discrete_nu(1.0), 0.5) == pytest.approx(
        math.sqrt(1.0 + 2.0 / math.expm1(0.5)), rel=1e-13)


def test_log_moment_asym():
    # nu=2: (nu-1) r^{nu/(nu-1)} / (2 nu^{nu/(nu-1)}) = r^2/8
    assert spectra.log_moment_asym(2.0, 3.0) == pytest.approx(9.0 / 8.0, rel=1e-12)
    with pytest.raises(PreconditionError):
        spectra.log_moment_asym(1.0, 3.0)
    # convergence of the true log-moment to the asymptote at large rate
    rate = 40.0
    val = math.log(spectra.exp_moment(spectra.continuous_nu(2.0), rate))
    assert val / spectra.log_moment_asym(2.0, rate) == pytest.approx(1.0, rel=5e-2)


def test_model_validation():
    with pytest.raises(PreconditionError):
        spectra.continuous_nu(0.0)
    with pytest.raises(PreconditionError):
        spectra.log_power_alpha(1.0)
    with pytest.raises(PreconditionError):
        spectra.bandlimited(-1.0)
    with pytest.raises(PreconditionError):
        spectra.SpectralModel("nope")
    for bad in (lambda: spectra.continuous_nu(math.nan),
                lambda: spectra.discrete_nu(math.inf),
                lambda: spectra.log_power_alpha(math.nan),
                lambda: spectra.truncated_continuous_nu(1.0, math.nan)):
        with pytest.raises(PreconditionError):
            bad()
