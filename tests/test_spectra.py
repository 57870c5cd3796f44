import math

import numpy as np
import pytest

from smalldev import spectra
from smalldev.errors import DomainError, PreconditionError, UnsupportedOperation


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


def test_covariance_closed_forms():
    m1 = spectra.continuous_nu(1.0)
    cv = spectra.covariance(m1, 0.5)
    assert cv.value == pytest.approx(1.6, rel=1e-9)
    m2 = spectra.continuous_nu(2.0)
    assert spectra.covariance(m2, 0.0).value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    mb = spectra.bandlimited(1.0)
    assert abs(spectra.covariance(mb, math.pi).value) < 1e-9
    for m in (m1, m2, mb):
        for t in [0.0, 0.3, 1.7, 4.0]:
            ref = spectra.closed_form_covariance(m, t)
            assert spectra.covariance(m, t).value == pytest.approx(ref, abs=1e-8)


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
    # truncated/bandlimited always converge
    assert spectra.exp_moment(spectra.bandlimited(1.0), 5.0) > 0


def test_exp_moment_discrete():
    m = spectra.discrete_nu(2.0)
    ref = 1.0 + 2.0 * sum(math.exp(1.0 * k - k * k) for k in range(1, 60))
    assert spectra.exp_moment(m, 1.0) == pytest.approx(math.sqrt(ref), rel=1e-12)


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
