import math

import numpy as np
import pytest
from scipy.stats import norm

from smalldev import rkhs, smallball, spectra
from smalldev.curves import BoundCurve
from smalldev.errors import CapacityError, CertificateError, PreconditionError
from smalldev.rkhs import CoefficientEllipsoid, TruncationBoundInput


def test_member_to_function():
    ell = CoefficientEllipsoid(1.0, 2)
    t = np.linspace(0.0, 1.0, 101)
    # all zeros
    z = rkhs.ellipsoid_member_to_function(ell, np.zeros(5, complex), t)
    assert np.all(z == 0.0)
    # constant member
    c = np.zeros(5, complex)
    c[2] = 1.0  # index k = 0
    f = rkhs.ellipsoid_member_to_function(ell, c, t)
    assert np.allclose(f, 1.0)
    # boundary cosine member: c_{+-1} = e^{-1/2}/sqrt(2)
    c = np.zeros(5, complex)
    amp = math.exp(-0.5) / math.sqrt(2.0)
    c[1] = c[3] = amp
    assert ell.membership(c) == pytest.approx(1.0, rel=1e-12)
    f = rkhs.ellipsoid_member_to_function(ell, c, t)
    assert np.max(np.abs(f)) == pytest.approx(2.0 * amp, rel=1e-6)
    assert 2.0 * amp == pytest.approx(0.857763, abs=1e-6)
    # outside the ball
    c[1] *= 1.1
    with pytest.raises(PreconditionError):
        rkhs.ellipsoid_member_to_function(ell, c, t)


@pytest.mark.parametrize("top", [0, 1, 5, rkhs._GRID - 1, rkhs._GRID,
                                 rkhs._GRID + 1, 10 * rkhs._GRID])
def test_term_counts_match_inverse(top):
    for a in (1.0, 0.37, math.sqrt(2.0) * math.exp(-2.0)):
        s = a / (top + 0.5)
        assert math.floor(a / s) == top
        got = rkhs._term_counts(a, s)
        assert got.dtype == np.int64 and len(got) == rkhs._GRID + 1
        assert np.array_equal(got, rkhs._term_counts_by_inverse(a, s, top))


def test_entropy_trivial_and_interval():
    ell = CoefficientEllipsoid(1.0, 4)
    # one ball suffices beyond the diameter
    assert rkhs.entropy_upper(ell, 2.0 * ell.sup_radius + 0.1) == 0.0
    # one-dimensional ellipsoid = interval of half-length 1
    e0 = CoefficientEllipsoid(1.0, 0)
    for eps in (0.3, 0.1, 0.05):
        n = math.exp(rkhs.entropy_upper(e0, eps))
        assert abs(n - math.ceil(1.0 / eps)) <= 2.5


def test_entropy_bracket_sandwich_and_monotone():
    ell = CoefficientEllipsoid(1.0, 6)
    eps_list = [0.8, 0.4, 0.25, 0.15]
    lo_prev, hi_prev = -1.0, -1.0
    for eps in eps_list:
        br = rkhs.entropy_bracket(ell, eps)
        assert br.H_lower <= br.H_upper
        assert br.H_lower >= lo_prev - 1e-12
        assert br.H_upper >= hi_prev - 1e-12
        lo_prev, hi_prev = br.H_lower, br.H_upper
    br = rkhs.entropy_bracket(ell, 0.25)
    assert br.H_lower >= 0.0
    assert br.H_upper > 0.0


def _enumerated_cells(axes, steps):
    """Exhaustive count of the lattice cells meeting the ellipsoid: each
    j >= 0 stands for two cells, kept while sum (j s / a)^2 <= 1."""
    q = np.zeros(1)
    for a, s in zip(axes, steps):
        terms = (np.arange(math.floor(a / s) + 1) * s / a) ** 2
        q = (q[:, None] + terms[None, :]).ravel()
        q = q[q <= 1.0]
    return 2 ** len(axes) * len(q)


def test_lattice_count_covers_enumeration_below_product():
    for nu in (0.5, 1.0, 2.0):
        for K in (0, 1, 2, 3):
            axes = np.sort(CoefficientEllipsoid(nu, K).semi_axes())[::-1]
            for eps in (1.0, 0.5, 0.3, 0.2):
                steps = np.full(len(axes), 2.0 * eps / len(axes))
                exact = _enumerated_cells(axes, steps)
                product = int(np.prod(2 * np.ceil(axes / steps) + 1))
                cells = rkhs._count_lattice_cells(axes, steps)
                assert min(exact, product) <= cells <= min(1.01 * exact, product)


def test_bracket_names_rule_and_cells():
    ell = CoefficientEllipsoid(1.0, 4)
    br = rkhs.entropy_bracket(ell, 2.0 * ell.sup_radius)
    assert (br.upper_method, br.upper_cells, br.H_upper) == (rkhs.SINGLE_BALL, 1, 0.0)
    for eps in (0.5, 0.3, 0.2):
        br = rkhs.entropy_bracket(ell, eps)
        assert br.upper_method == rkhs.LATTICE_COVERING
        assert br.H_upper == math.log(br.upper_cells)
        assert br.H_upper == rkhs.entropy_upper(ell, eps)


def test_overflowing_count_returns_labelled_product():
    # nu=2, K=8 at eps=1e-3 keeps 8 coordinates with up to 7500 cells each
    ell = CoefficientEllipsoid(2.0, 8)
    br = rkhs.entropy_bracket(ell, 1e-3)
    assert br.upper_method == rkhs.COORDINATE_PRODUCT
    assert br.upper_cells > np.iinfo(np.int64).max
    assert br.H_upper == math.log(br.upper_cells)


def test_semi_axes_past_mass_underflow():
    # exp(-k^2) underflows to 0 from k = 28 on; the semi-axes stay normal
    ell = CoefficientEllipsoid(2.0, 28)
    axes = ell.semi_axes()
    assert axes[0] == 1.0 and len(axes) == 57
    assert axes[-1] == pytest.approx(math.sqrt(2.0) * math.exp(-392.0), rel=1e-13)
    assert math.isfinite(rkhs.entropy_lower(ell, 0.1))
    with pytest.raises(PreconditionError):
        CoefficientEllipsoid(math.nan, 4)
    with pytest.raises(PreconditionError):
        rkhs.entropy_lower(CoefficientEllipsoid(1.0, 4), math.nan)


def test_entropy_capacity_error():
    ell = CoefficientEllipsoid(0.35, 40)
    with pytest.raises(CapacityError, match="smallest supported"):
        rkhs.entropy_upper(ell, 1e-6)


def test_kl_phi_to_H():
    curve = BoundCurve(x=np.array([0.1]), lower=np.array([5.0]),
                       upper=np.array([5.0]), label="test")
    out = rkhs.kl_phi_to_H(curve, lam=2.0)
    assert out.x[0] == pytest.approx(0.1)
    assert out.upper[0] == pytest.approx(7.0)
    # phi == 0 gives lambda^2/2
    zero = BoundCurve(x=np.array([1.0]), lower=np.array([0.0]),
                      upper=np.array([0.0]), label="test")
    assert rkhs.kl_phi_to_H(zero, lam=3.0).upper[0] == pytest.approx(4.5)
    # raising lambda adds (lam'^2 - lam^2)/2 at shifted abscissa
    a = rkhs.kl_phi_to_H(curve, lam=2.0).upper[0]
    b = rkhs.kl_phi_to_H(curve, lam=4.0).upper[0]
    assert b - a == pytest.approx((16.0 - 4.0) / 2.0)


def test_alpha_r():
    assert rkhs.alpha_r(math.log(2.0)) == pytest.approx(0.0, abs=1e-12)
    assert rkhs.alpha_r(0.0) == math.inf
    # independent quantile oracle
    assert rkhs.alpha_r(5.0) == pytest.approx(norm.ppf(math.exp(-5.0)),
                                              abs=1e-10)
    # identity round-trip: -log Phi(alpha_r) = phi
    for phi in (0.5, 2.0, 8.0, 30.0):
        a = rkhs.alpha_r(phi)
        assert -norm.logcdf(a) == pytest.approx(phi, rel=1e-9)


def test_kl_entropy_lower_simplified_dominance():
    # exact >= simplified - log 2 always; gap vanishes as phi grows
    for phi in (8.0, 12.0, 20.0):
        lam = math.sqrt(2.0 * phi)
        out = rkhs.kl_entropy_lower(phi, 4.0 * phi, lam)
        assert out["exact"] >= out["simplified"] - math.log(2.0) - 1e-9
        # at lam = sqrt(2 phi) the simplified quadratic vanishes
        assert out["simplified"] == pytest.approx(4.0 * phi)


def test_truncation_bound():
    model = spectra.continuous_nu(0.5)
    inp = TruncationBoundInput(model, 1e-3, theta=1.0 / 9.0)
    L = abs(math.log(1e-3))
    assert inp.v == pytest.approx((3.0 * L) ** 2, rel=1e-12)
    assert inp.v == pytest.approx(429.4, abs=0.1)
    assert inp.delta == pytest.approx((1.0 / 9.0) / L, rel=1e-12)
    assert inp.delta == pytest.approx(0.016086, abs=1e-5)
    res = rkhs.truncation_entropy_upper(inp)
    assert res.I <= 2.0 * inp.v
    assert res.bound_certified > 0.0
    assert res.tail_sup <= 1e-3
    # linear in C
    inp2 = TruncationBoundInput(model, 1e-3, theta=1.0 / 9.0, C=3.0)
    res2 = rkhs.truncation_entropy_upper(inp2)
    assert res2.bound_certified == pytest.approx(3.0 * res.bound_certified,
                                                 rel=1e-12)
    # theta cap enforced
    with pytest.raises(PreconditionError):
        TruncationBoundInput(model, 1e-3, theta=0.5)


def test_truncation_I_leq_2v_sweep():
    for nu in (0.5, 1.0):
        model = spectra.continuous_nu(nu)
        theta = 3.0 ** (-1.0 / nu)
        for eps in (1e-12, 1e-8, 1e-5, 1e-3):
            res = rkhs.truncation_entropy_upper(
                TruncationBoundInput(model, eps, theta=theta)
            )
            assert res.I <= 2.0 * res.input.v


def test_scaling_patch():
    H = BoundCurve(x=np.array([0.1, 0.2]), lower=None,
                   upper=np.array([10.0, 5.0]), label="H")
    out = rkhs.scaling_patch(H, 0.5)
    assert np.allclose(out.x, [0.2, 0.4])
    assert np.allclose(out.upper, [20.0, 10.0])
    assert rkhs.scaling_patch(H, 1.0).upper[0] == pytest.approx(10.0)
    assert rkhs.scaling_patch(H, 0.4).extra["n"] == 3


def test_rkhs_growth_check():
    report = rkhs.rkhs_growth_check(2.0, sample_count=20,
                                    imag_range=[0.0, 0.5, 1.0], seed=2)
    assert report["passed"]
    assert report["worst_ratio"] <= 1.0 + 1e-8


def test_kl_cross_consistency_with_exact_l2():
    # entropy lower bound vs the exact small-ball curve at lambda = 2
    ell = CoefficientEllipsoid(1.0, 8)
    spec = smallball.WeightedChiSquareSpec.periodic(1.0, 8)
    for r in (0.1, 0.2, 0.4):
        phi = -smallball.log_exact_l2(spec, r)
        H_low = rkhs.entropy_lower(ell, r)
        assert H_low <= phi + 2.0 + 1e-9
