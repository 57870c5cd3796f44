import math

import numpy as np
import pytest
from scipy.integrate import quad

from smalldev import pathgen, spectra
from smalldev.errors import PreconditionError
from smalldev.pathgen import GridSpec, PathSample, PeriodicGenConfig


def test_grid_validation():
    with pytest.raises(PreconditionError):
        GridSpec(t_min=0.5, t_max=0.5, n_points=2)
    with pytest.raises(PreconditionError):
        GridSpec(n_points=1)
    g = GridSpec(0.0, 1.0, 11)
    assert g.spacing == pytest.approx(0.1)


def test_periodic_config_tail():
    # K=20 at nu=1 leaves tail 2*e^{-21}/(1-e^{-1}) ~ 2.4e-9 > 1e-12
    with pytest.raises(PreconditionError, match="minimal admissible K"):
        PeriodicGenConfig(nu=1.0, K=20, tail_tol=1e-12)
    PeriodicGenConfig(nu=1.0, K=20, tail_tol=1e-8)  # ok


def reported_minimal_K(nu, K, tail_tol):
    with pytest.raises(PreconditionError, match="minimal admissible K") as e:
        PeriodicGenConfig(nu, K, tail_tol=tail_tol)
    return int(str(e.value).rsplit(" ", 1)[1])


@pytest.mark.parametrize("nu, K, tail_tol", [(0.4, 40, 1e-6),
                                             (0.5, 40, 1e-12),
                                             (1.0, 20, 1e-12)])
def test_minimal_admissible_K_matches_brute_force(nu, K, tail_tol):
    k = K
    while 2.0 * spectra.discrete_tail(nu, k) > tail_tol:
        k += 1
    assert reported_minimal_K(nu, K, tail_tol) == k


def test_minimal_admissible_K_calls_tail_at_most_three_times(monkeypatch):
    # it used to call discrete_tail once per k: 7000 calls and 2 s here
    calls = []
    tail = spectra.discrete_tail
    monkeypatch.setattr(spectra, "discrete_tail",
                        lambda nu, K: calls.append(K) or tail(nu, K))
    assert reported_minimal_K(0.4, 40, 1e-12) == 7042
    assert len(calls) <= 3


@pytest.mark.parametrize("tail_tol", [0.0, -1.0, float("nan")])
def test_periodic_config_rejects_bad_tail_tol(tail_tol):
    with pytest.raises(PreconditionError, match="tail_tol must be positive"):
        PeriodicGenConfig(1.0, 4, tail_tol=tail_tol)


@pytest.mark.parametrize("nu, K", [(float("nan"), 3), (0.0, 3), (math.inf, 3),
                                   (1.0, -1)])
def test_periodic_config_rejects_bad_nu_and_K(nu, K):
    # nu = nan used to loop forever in the tail sum
    with pytest.raises(PreconditionError, match="finite nu > 0 and K >= 0"):
        PeriodicGenConfig(nu, K)


def test_periodic_single_atom_variance():
    cfg = PeriodicGenConfig(nu=1.0, K=0, tail_tol=2.0)
    grid = GridSpec(n_points=4)
    vals = pathgen.series_values(cfg.amplitudes(), grid.times(), seed=3,
                                 n_paths=4000)
    # K=0 paths are constant in t with unit variance
    assert np.ptp(vals, axis=1).max() == 0.0
    assert np.var(vals[:, 0]) == pytest.approx(1.0, abs=0.08)


def test_periodic_variance_truncated_sum():
    # frozen geometric-sum value: 1 + 2*e^{-1}(1-e^{-20})/(1-e^{-1})
    target = 1.0 + 2.0 * math.exp(-1) * (1 - math.exp(-20)) / (1 - math.exp(-1))
    assert target == pytest.approx(2.16395, abs=1e-5)
    cfg = PeriodicGenConfig(nu=1.0, K=20, tail_tol=1e-8)
    vals = pathgen.series_values(cfg.amplitudes(), np.array([0.0]), seed=9,
                                 n_paths=20000)
    sd_err = target * math.sqrt(2.0 / 20000)
    assert np.var(vals[:, 0]) == pytest.approx(target, abs=3 * sd_err)


def test_seed_determinism_and_offset_consistency():
    cfg = PeriodicGenConfig(nu=1.0, K=8, tail_tol=1e-3)
    grid = GridSpec(n_points=64)
    a = pathgen.gen_periodic(cfg, grid, seed=42, path_index=5)
    b = pathgen.gen_periodic(cfg, grid, seed=42, path_index=5)
    assert np.array_equal(a.values, b.values)
    # the same path extracted from a batch is bit-identical
    batch = pathgen.series_values(cfg.amplitudes(), grid.times(), seed=42,
                                  n_paths=10)
    assert np.array_equal(batch[5], a.values)
    # batches spanning block boundaries agree with offset reads
    tail = pathgen.series_values(cfg.amplitudes(), grid.times(), seed=42,
                                 n_paths=4, offset=510)
    full = pathgen.series_values(cfg.amplitudes(), grid.times(), seed=42,
                                 n_paths=514)
    assert np.array_equal(tail, full[510:514])


def test_gen_periodic_is_a_batch_row():
    # a path read alone, at a block start too, equals its row of a batch
    grid = GridSpec(n_points=1024)
    for K in (8, 20, 45):
        cfg = PeriodicGenConfig(nu=1.0, K=K, tail_tol=math.inf)
        batch = pathgen.series_values(cfg.amplitudes(), grid.times(), seed=4,
                                      n_paths=600)
        for i in (0, 511, 512, 599):
            path = pathgen.gen_periodic(cfg, grid, seed=4, path_index=i)
            assert np.array_equal(path.values, batch[i])


def test_minorant_discrete_variance_and_dirichlet_zeros():
    # Var = exp(-l^nu) (2l+1): l=3, nu=1 -> 7 e^-3
    grid = GridSpec(n_points=8)
    vals = pathgen.series_values(pathgen.minorant_discrete_amplitudes(3, 1.0),
                                 np.array([0.0, 0.3]), seed=11, n_paths=30000)
    target = 7.0 * math.exp(-3.0)
    assert target == pytest.approx(0.348509, abs=1e-6)
    for col in range(2):
        v = np.var(vals[:, col])
        assert v == pytest.approx(target, abs=3 * target * math.sqrt(2 / 30000))
    # sample correlation between Y(0) and Y(k/(2l+1)) vanishes
    l = 3
    lags = np.arange(0, 2 * l + 1) / (2 * l + 1)
    vals = pathgen.series_values(pathgen.minorant_discrete_amplitudes(l, 1.0),
                                 lags, seed=13, n_paths=30000)
    C = np.corrcoef(vals.T)
    off = C[0, 1:]
    assert np.max(np.abs(off)) < 3.0 / math.sqrt(30000) * 1.5


def test_minorant_continuous_variance():
    # Var = 2 l exp(-l^nu): l=2, nu=1 -> 4 e^-2
    grid = GridSpec(n_points=3)
    target = 4.0 * math.exp(-2.0)
    assert target == pytest.approx(0.541341, abs=1e-6)
    # paths 0..2999 in one batch: the same values as 3000 single-path calls
    batch = math.exp(-1.0) * pathgen.continuous_values(
        spectra.bandlimited(2), grid.times(), seed=1, n_paths=3000)
    for i in (0, 7, 8, 2999):  # block edges at QUAD_BLOCK = 8
        path = pathgen.gen_minorant_continuous(2, 1.0, grid, seed=1, path_index=i)
        assert np.array_equal(path.values, batch[i])
    samples = batch[:, 0]
    v = float(np.var(samples))
    assert v == pytest.approx(target, abs=3 * target * math.sqrt(2 / 3000))


def test_norms():
    grid = GridSpec(n_points=5)
    p = PathSample(grid, np.full(5, 0.7), seed=0)
    assert pathgen.sup_norm(p) == pytest.approx(0.7)
    assert pathgen.l2_norm(p) == pytest.approx(0.7, rel=1e-12)
    p2 = PathSample(GridSpec(n_points=2), np.array([-3.0, 1.0]), seed=0)
    assert pathgen.sup_norm(p2) == 3.0
    # single-frequency path: L2 norm of cos(2 pi t) on [0,1] is 1/sqrt(2)
    g = GridSpec(n_points=1001)
    vals = np.cos(2 * np.pi * g.times())
    assert pathgen.l2_norm(PathSample(g, vals, seed=0)) == pytest.approx(
        1 / math.sqrt(2), abs=1e-3
    )


def test_batch_norms_match_per_path():
    # 1030 paths cross two block boundaries and end in a partial block
    n = 2 * pathgen.BLOCK + 6
    for nu, K, grid in [(2.0, 6, GridSpec(n_points=128)),
                        (1.0, 20, GridSpec(0.0, 1.0, 16)),  # aliases K = 20
                        (2.0, 6, GridSpec(0.0, 0.7, 100))]:
        cfg = PeriodicGenConfig(nu=nu, K=K, tail_tol=math.inf)
        sup = pathgen.batch_norms(cfg.amplitudes(), grid, seed=21, n_paths=n,
                                  norm="sup")
        l2 = pathgen.batch_norms(cfg.amplitudes(), grid, seed=21, n_paths=n,
                                 norm="l2")
        for i in range(n):
            p = pathgen.gen_periodic(cfg, grid, seed=21, path_index=i)
            assert sup[i] == pathgen.sup_norm(p), (K, grid, i)
            assert l2[i] == pytest.approx(pathgen.l2_norm(p), rel=1e-12), (K, grid, i)


@pytest.mark.parametrize("norm, cap", [("sup", math.inf), ("sup", 0.0),
                                       ("sup", 1.5), ("l2", math.inf),
                                       ("l2", 1.5)],
                         ids=["sup", "sup-cap-0", "sup-cap-1.5", "l2",
                              "l2-cap-1.5"])
def test_batch_norms_prefix_of_longer_batch(norm, cap):
    amps = PeriodicGenConfig(nu=1.0, K=8, tail_tol=math.inf).amplitudes()
    grid = GridSpec(n_points=64)
    short = pathgen.batch_norms(amps, grid, seed=3, n_paths=513, norm=norm,
                                cap=cap)
    full = pathgen.batch_norms(amps, grid, seed=3, n_paths=1024, norm=norm,
                               cap=cap)
    assert np.array_equal(short, full[:513])


#: even, odd, two-point and off-[0, 1] grids for the sup-norm screen
SCREEN_GRIDS = [GridSpec(n_points=1024), GridSpec(n_points=1023),
                GridSpec(n_points=2), GridSpec(-0.4, 1.7, 101)]


@pytest.mark.parametrize("grid", SCREEN_GRIDS,
                         ids=["1024", "1023", "2", "off-unit-101"])
def test_capped_sup_norms(grid):
    amps = PeriodicGenConfig(nu=1.0, K=20, tail_tol=math.inf).amplitudes()
    n = 2 * pathgen.BLOCK + 6
    exact = pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="sup")
    median = float(np.median(exact))
    for cap in (0.0, median):
        got = pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="sup",
                                  cap=cap)
        near = got <= cap
        assert np.array_equal(near, exact <= cap), cap
        # a product over a subset of rows or columns may round differently
        # in its last bits from the whole block's
        np.testing.assert_allclose(got[near], exact[near], rtol=1e-13, atol=0)
        assert np.all(got[~near] > cap)
        assert np.all(got[~near] <= exact[~near] * (1.0 + 1e-13))
    # cap = inf screens nothing: the norms of the whole block's paths
    assert np.array_equal(pathgen.batch_norms(amps, grid, seed=5, n_paths=n,
                                              norm="sup", cap=math.inf), exact)
    # the L2 norm forms no path and takes no cap
    assert np.array_equal(
        pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="l2", cap=median),
        pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="l2"))


def test_continuous_pairwise_correlation():
    # two-point grids: corr equals R(0.5)/R(0)
    grid = GridSpec(0.0, 0.5, 2)
    cases = [(spectra.continuous_nu(2.0), math.exp(-0.0625)),
             (spectra.continuous_nu(1.0), 0.8)]
    for model in (spectra.continuous_nu(0.5),
                  spectra.truncated_continuous_nu(1.0, 2.0),
                  spectra.log_power_alpha(1.5)):
        cases.append((model, spectra.covariance(model, 0.5).value
                      / spectra.covariance(model, 0.0).value))
    for model, target in cases:
        vals = pathgen.continuous_values(model, grid.times(), seed=5,
                                         n_paths=4000)
        c = np.corrcoef(vals.T)[0, 1]
        assert c == pytest.approx(target, abs=3.0 / math.sqrt(4000)), model


def _half_mass_below(model, u):
    """int_0^u f; for the log-power family in log frequency s = log x, as
    min(u, 1) + int_0^(log u) e^(s - s^alpha) ds, since a quad over [0, u]
    does not sample the bulk of the mass at large u."""
    tol = dict(epsabs=1e-14, epsrel=1e-12, limit=200)
    if model.kind != spectra.LOG_POWER_ALPHA:
        return quad(lambda x: spectra.density_eval(model, x), 0.0, u, **tol)[0]
    return min(u, 1.0) + quad(lambda s: math.exp(s - s ** model.alpha), 0.0,
                              math.log(max(u, 1.0)), **tol)[0]


@pytest.mark.parametrize("model", [spectra.continuous_nu(0.5),
                                   spectra.continuous_nu(1.5),
                                   spectra.truncated_continuous_nu(1.0, 2.0),
                                   spectra.log_power_alpha(1.2),
                                   spectra.log_power_alpha(1.5)])
def test_strata_quantiles_exact(model):
    # stratum j sits at the midpoint quantile p_j of the positive half mass;
    # log-power strata come from a trapezoid table, whose error peaks just
    # past the kink at u = 1
    rel = 2e-8 if model.kind == spectra.LOG_POWER_ALPHA else 1e-9
    u, m = pathgen._strata_frequencies(model)
    half_mass = m * pathgen.N_STRATA
    assert half_mass == pytest.approx(spectra.total_mass(model) / 2.0,
                                      rel=1e-12)
    for j in (0, 1, pathgen.N_STRATA // 2, pathgen.N_STRATA - 1):
        p = (j + 0.5) / pathgen.N_STRATA
        assert _half_mass_below(model, u[j]) / half_mass == pytest.approx(p, rel=rel), j


def test_strata_frequencies_cached_read_only():
    u, m = pathgen._strata_frequencies(spectra.continuous_nu(0.5))
    u2, m2 = pathgen._strata_frequencies(spectra.continuous_nu(0.5))
    assert u2 is u and m2 == m
    with pytest.raises(ValueError):
        u[0] = 0.0


def test_continuous_determinism_and_metadata():
    model = spectra.continuous_nu(1.0)
    grid = GridSpec(n_points=16)
    a = pathgen.gen_continuous(model, grid, seed=77)
    b = pathgen.gen_continuous(model, grid, seed=77)
    assert np.array_equal(a.values, b.values)
    assert a.meta["method"] == "spectral-quadrature"


def test_continuous_variance_on_coarse_long_grid():
    # 16 points on [0, 10]: R(0) = 2 for nu = 1.  The process is stationary,
    # so each path's mean of x(t)^2 over the grid estimates R(0).
    model = spectra.continuous_nu(1.0)
    grid = GridSpec(0.0, 10.0, 16)
    n = 400
    s = np.array([np.mean(pathgen.gen_continuous(model, grid, seed=3,
                                                 path_index=i).values ** 2)
                  for i in range(n)])
    se = float(np.std(s)) / math.sqrt(n)
    assert float(np.mean(s)) == pytest.approx(spectra.total_mass(model),
                                              abs=4 * se)


def test_gen_continuous_is_a_batch_row():
    model = spectra.continuous_nu(0.5)
    grid = GridSpec(0.0, 10.0, 16)
    batch = pathgen.continuous_values(model, grid.times(), seed=21,
                                      n_paths=12, offset=0)
    for i in (6, 7, 8, 9):  # across the first block boundary
        path = pathgen.gen_continuous(model, grid, seed=21, path_index=i)
        assert np.array_equal(path.values, batch[i])
    tail = pathgen.continuous_values(model, grid.times(), seed=21,
                                     n_paths=5, offset=6)
    assert np.array_equal(tail, batch[6:11])


def test_continuous_stationarity():
    model = spectra.continuous_nu(2.0)
    R0 = spectra.total_mass(model)
    vals = pathgen.continuous_values(model, np.array([0.0, 1.0]), seed=8,
                                     n_paths=4000)
    se = R0 * math.sqrt(2.0 / 4000)
    assert np.var(vals[:, 0]) == pytest.approx(R0, abs=3 * se)
    assert np.var(vals[:, 1]) == pytest.approx(R0, abs=3 * se)


def test_gen_continuous_rejects_discrete():
    with pytest.raises(PreconditionError):
        pathgen.gen_continuous(spectra.discrete_nu(1.0), GridSpec(n_points=4),
                               seed=0)


def test_series_normals_keying_and_layout():
    # path i of seed s is sum_k amp_k (xi_k cos 2 pi k t + eta_k sin 2 pi k t)
    # with xi_0..xi_K, eta_1..eta_K in that order in row i % BLOCK of the
    # normals of the generator keyed by (s, i // BLOCK)
    K, seed, offset = 3, 17, pathgen.BLOCK - 2
    amps = PeriodicGenConfig(nu=1.0, K=K, tail_tol=math.inf).amplitudes()
    t = np.linspace(0.0, 1.0, 9)
    vals = pathgen.series_values(amps, t, seed, n_paths=4, offset=offset)
    k = np.arange(K + 1)[:, None]
    for row, i in enumerate(range(offset, offset + 4)):
        block, pos = divmod(i, pathgen.BLOCK)
        z = pathgen._rng_for_block(seed, block).standard_normal(
            (pathgen.BLOCK, 2 * K + 1))[pos]
        xi, eta = z[: K + 1], np.concatenate([[0.0], z[K + 1:]])
        ref = np.sum(amps[:, None] * (xi[:, None] * np.cos(2 * np.pi * k * t)
                                      + eta[:, None] * np.sin(2 * np.pi * k * t)),
                     axis=0)
        assert np.max(np.abs(vals[row] - ref)) <= 1e-12 * np.max(np.abs(ref)), i


def test_quadrature_normals_keying_and_layout():
    # path i is sum_j sqrt(2 m) (xi_j cos u_j t + eta_j sin u_j t) with
    # xi_1..xi_S, eta_1..eta_S in row i % QUAD_BLOCK of the normals keyed by
    # (seed, i // QUAD_BLOCK), at the strata frequencies u_j
    model = spectra.continuous_nu(1.0)
    seed, offset, S = 23, pathgen.QUAD_BLOCK - 1, pathgen.N_STRATA
    t = np.array([0.0, 0.3, 2.5, 7.0])
    vals = pathgen.continuous_values(model, t, seed, n_paths=3, offset=offset)
    u, m = pathgen._strata_frequencies(model)
    for row, i in enumerate(range(offset, offset + 3)):
        block, pos = divmod(i, pathgen.QUAD_BLOCK)
        z = pathgen._rng_for_block(seed, block).standard_normal(
            (pathgen.QUAD_BLOCK, 2 * S))[pos]
        xi, eta = z[:S], z[S:]
        ref = math.sqrt(2.0 * m) * np.array(
            [math.fsum(xi * np.cos(u * x)) + math.fsum(eta * np.sin(u * x))
             for x in t])
        assert np.max(np.abs(vals[row] - ref)) <= 1e-12 * np.max(np.abs(ref)), i
