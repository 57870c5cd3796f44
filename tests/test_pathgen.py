import ast
import math
import re
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from reference import closed_form_covariance
from smalldev import pathgen, spectra
from smalldev.errors import CapacityError, PreconditionError
from smalldev.pathgen import GridSpec, PeriodicGenConfig


def fresh_rng(seed: int, block: int) -> np.random.Generator:
    """A newly built generator of the key (seed, block), the reference that
    the library's re-keyed one must equal."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def test_grid_validation():
    with pytest.raises(PreconditionError):
        GridSpec(t_min=0.5, t_max=0.5, n_points=2)
    with pytest.raises(PreconditionError):
        GridSpec(n_points=1)
    # more points than any basis may hold, refused before the times are formed
    with pytest.raises(CapacityError, match="grid points pass"):
        GridSpec(n_points=pathgen.MAX_BASIS_ENTRIES + 1)
    # non-finite bounds, or finite bounds whose span overflows
    for t_min, t_max in [(0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0),
                         (math.nan, 1.0), (-1e308, 1e308)]:
        with pytest.raises(PreconditionError, match="finite span"):
            GridSpec(t_min, t_max, 8)
    g = GridSpec(0.0, 1.0, 11)
    assert g.spacing == pytest.approx(0.1)


def test_phases_past_float_range_are_refused():
    # the largest frequency times the largest |t| overflows: cos and sin of
    # the phases would be NaN
    grid = GridSpec(0.0, 1e308, 8)
    cfg = PeriodicGenConfig(nu=1.0, K=4)
    with pytest.raises(CapacityError, match="past the float range"):
        pathgen.gen_periodic(cfg, grid, seed=1)
    with pytest.raises(CapacityError, match="past the float range"):
        pathgen.gen_continuous(spectra.continuous_nu(1.0), grid, seed=1)
    with pytest.raises(CapacityError, match="past the float range"):
        pathgen.series_values(cfg.amplitudes(), np.array([0.0, -1e308]), 1, 1)
    # K = 0 has only the constant term, whose phase is 0 at every t
    vals = pathgen.gen_periodic(PeriodicGenConfig(1.0, 0),
                                grid, seed=1).values
    assert np.all(vals == vals[0])


def test_periodic_config_tail():
    # K = 20 at nu = 1 leaves 2 e^{-21} / (1 - e^{-1}) ~ 2.4e-9 out; the
    # config used to refuse it at its default tolerance of 1e-12
    cfg = PeriodicGenConfig(1.0, 20)
    assert cfg.tail_variance == 2.0 * spectra.discrete_tail(1.0, 20)
    assert cfg.tail_variance == pytest.approx(
        2.0 * math.exp(-21) / (1.0 - math.exp(-1)), rel=1e-12)
    path = pathgen.gen_periodic(cfg, GridSpec(n_points=8), seed=1)
    assert path.meta["tail_variance"] == cfg.tail_variance


@pytest.mark.parametrize("nu, K", [(float("nan"), 3), (0.0, 3), (math.inf, 3),
                                   (1.0, -1)])
def test_periodic_config_rejects_bad_nu_and_K(nu, K):
    # nu = nan used to loop forever in the tail sum
    with pytest.raises(PreconditionError, match="finite nu > 0 and K >= 0"):
        PeriodicGenConfig(nu, K)


def test_periodic_single_atom_variance():
    cfg = PeriodicGenConfig(nu=1.0, K=0)
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
    cfg = PeriodicGenConfig(nu=1.0, K=20)
    vals = pathgen.series_values(cfg.amplitudes(), np.array([0.0]), seed=9,
                                 n_paths=20000)
    sd_err = target * math.sqrt(2.0 / 20000)
    assert np.var(vals[:, 0]) == pytest.approx(target, abs=3 * sd_err)


def test_seed_determinism_and_offset_consistency():
    cfg = PeriodicGenConfig(nu=1.0, K=8)
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
        cfg = PeriodicGenConfig(nu=1.0, K=K)
        batch = pathgen.series_values(cfg.amplitudes(), grid.times(), seed=4,
                                      n_paths=600)
        for i in (0, 511, 512, 599):
            path = pathgen.gen_periodic(cfg, grid, seed=4, path_index=i)
            assert np.array_equal(path.values, batch[i])


def test_batch_norms_match_per_path():
    # 1030 paths cross two block boundaries and end in a partial block
    n = 2 * pathgen.BLOCK + 6
    for nu, K, grid in [(2.0, 6, GridSpec(n_points=128)),
                        (1.0, 20, GridSpec(0.0, 1.0, 16)),  # aliases K = 20
                        (2.0, 6, GridSpec(0.0, 0.7, 100))]:
        cfg = PeriodicGenConfig(nu=nu, K=K)
        sup = pathgen.batch_norms(cfg.amplitudes(), grid, seed=21, n_paths=n,
                                  norm="sup")
        l2 = pathgen.batch_norms(cfg.amplitudes(), grid, seed=21, n_paths=n,
                                 norm="l2")
        t = grid.times()
        for i in range(n):
            values = pathgen.gen_periodic(cfg, grid, seed=21, path_index=i).values
            assert sup[i] == float(np.max(np.abs(values))), (K, grid, i)
            l2_ref = math.sqrt(np.trapezoid(values ** 2, t))
            assert l2[i] == pytest.approx(l2_ref, rel=1e-12), (K, grid, i)


@pytest.mark.parametrize("norm, radii", [("sup", ()), ("sup", (0.0,)),
                                         ("sup", (1.5,)), ("l2", ()),
                                         ("l2", (1.5,))],
                         ids=["sup", "sup-radius-0", "sup-radius-1.5", "l2",
                              "l2-radius-1.5"])
def test_batch_norms_prefix_of_longer_batch(norm, radii):
    amps = PeriodicGenConfig(nu=1.0, K=8).amplitudes()
    grid = GridSpec(n_points=64)
    short = pathgen.batch_norms(amps, grid, seed=3, n_paths=513, norm=norm,
                                radii=radii)
    full = pathgen.batch_norms(amps, grid, seed=3, n_paths=1024, norm=norm,
                               radii=radii)
    assert np.array_equal(short, full[:513])


#: even, odd, two-point and off-[0, 1] grids for the sup-norm screen
SCREEN_GRIDS = [GridSpec(n_points=1024), GridSpec(n_points=1023),
                GridSpec(n_points=2), GridSpec(-0.4, 1.7, 101)]


@pytest.mark.parametrize("grid", SCREEN_GRIDS,
                         ids=["1024", "1023", "2", "off-unit-101"])
def test_capped_sup_norms(grid):
    amps = PeriodicGenConfig(nu=1.0, K=20).amplitudes()
    n = 2 * pathgen.BLOCK + 6
    exact = pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="sup")
    radii = [0.0, float(np.median(exact))] + np.quantile(exact, [0.1, 0.3, 0.9]).tolist()
    got = pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="sup",
                              radii=radii)
    for r in radii:
        assert np.array_equal(got <= r, exact <= r), r
    # a settled path returns its screen maximum, a lower bound; a product
    # over a subset of rows may round differently in its last bits from
    # the whole block's
    assert np.all(got <= exact * (1.0 + 1e-13))
    # no radii: the norms of the whole block's paths
    assert np.array_equal(pathgen.batch_norms(amps, grid, seed=5, n_paths=n,
                                              norm="sup", radii=()), exact)
    # the L2 norm forms no path and ignores the radii
    assert np.array_equal(
        pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="l2", radii=radii),
        pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="l2"))


#: (nu, K, grid) of the bracket tests: the screen grids, an odd, an aliased
#: (K = 20 on 16 points) and a short one, and a slow and a fast decay
BRACKET_CASES = [(1.0, 20, grid) for grid in SCREEN_GRIDS] + [
    (1.0, 20, GridSpec(n_points=333)), (1.0, 20, GridSpec(n_points=16)),
    (1.0, 20, GridSpec(0.0, 0.7, 100)), (0.5, 200, GridSpec(n_points=1024)),
    (2.0, 7, GridSpec(n_points=1024))]
BRACKET_IDS = ["1024", "1023", "2", "off-unit-101", "333", "16-aliased",
               "short-100", "nu0.5-K200", "nu2-K7"]


@pytest.mark.parametrize("nu, K, grid", BRACKET_CASES, ids=BRACKET_IDS)
def test_sup_radii_classify_at_the_exact_norms(nu, K, grid):
    # a radius at a path's own whole-grid norm, or one ulp either side of
    # it, is the hardest case: that path reaches the whole grid, and a
    # product over a subset of the block's rows may round its norm to the
    # other side
    amps = PeriodicGenConfig(nu=nu, K=K).amplitudes()
    n = pathgen.BLOCK
    exact = pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="sup")
    for i in range(0, n, 16):
        radii = [exact[i], np.nextafter(exact[i], 0.0), np.nextafter(exact[i], math.inf)]
        got = pathgen.batch_norms(amps, grid, seed=5, n_paths=n, norm="sup",
                                  radii=radii)
        for r in radii:
            assert np.array_equal(got <= r, exact <= r), (i, r)


@pytest.mark.parametrize("nu, K, grid", BRACKET_CASES, ids=BRACKET_IDS)
def test_sup_bracket_covers_the_interval(nu, K, grid):
    # the curvature bound holds between grid points too: the maximum on a
    # grid 8 times finer over the same span stays inside the bracket
    amps = PeriodicGenConfig(nu=nu, K=K).amplitudes()
    times = grid.times()
    basis = pathgen._fourier_basis(amps, times)
    screen = pathgen._screen(amps, basis, times)
    fine = np.linspace(grid.t_min, grid.t_max, 8 * (grid.n_points - 1) + 1)
    z = fresh_rng(11, 0).standard_normal((pathgen.BLOCK, len(basis)))
    m, high, margin = pathgen._sup_bracket(z, screen)
    exact = pathgen._max_abs(z @ basis)
    assert np.all(m - margin <= exact) and np.all(exact <= high)
    assert np.all(pathgen._max_abs(z @ pathgen._fourier_basis(amps, fine)) <= high)
    # the margin is rounding-sized
    assert np.all(margin < 1e-11 * high)


needs_blas_control = pytest.mark.skipif(
    pathgen._blas_threads() is None, reason="numpy bundles no OpenBLAS to pin")


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count, set back afterwards."""
    get, put = pathgen._blas_threads()
    before = get()
    yield get, put
    put(before)


@needs_blas_control
@pytest.mark.parametrize("n_points", [1024, 1023, 1025, 256, 100, 33, 2])
def test_batch_norms_same_bits_at_any_thread_count(n_points, blas_threads):
    # at 1023 and 1025 points the norms used to depend on the process's
    # BLAS thread count (sup at 1023 and l2 at 1025 here)
    get, put = blas_threads
    amps = PeriodicGenConfig(nu=1.0, K=45).amplitudes()
    grid = GridSpec(n_points=n_points)
    n = 3000
    put(1)
    exact = pathgen.batch_norms(amps, grid, seed=7, n_paths=n, norm="sup")
    cases = [("sup", (0.0,)), ("sup", (float(np.median(exact)),)), ("sup", ()),
             ("l2", ())]
    want = {case: pathgen.batch_norms(amps, grid, 7, n, *case) for case in cases}
    for blas in (1, 2):
        put(blas)
        for threads in (1, 2, 4):
            for case in cases:
                got = pathgen.batch_norms(amps, grid, 7, n, *case, threads=threads)
                assert np.array_equal(got, want[case]), (blas, threads, case)


@needs_blas_control
def test_batch_norms_restores_blas_threads(blas_threads, monkeypatch):
    get, put = blas_threads
    amps = PeriodicGenConfig(nu=1.0, K=8).amplitudes()
    put(2)
    before = get()
    pathgen.batch_norms(amps, GridSpec(n_points=64), 1, 1100, "sup", threads=2)
    assert get() == before
    with pytest.raises(CapacityError):  # raised before any worker starts
        pathgen.batch_norms(amps, GridSpec(0.0, 1e308, 8), 1, 1100, "sup")
    assert get() == before
    seen = []
    rng_for_block = pathgen._rng_for_block
    # at two workers the calling thread reduces block 0, a pool thread 1-2
    for threads, bad in ((1, 1), (2, 0), (2, 1)):
        def failing_rng(seed, block, bad=bad):
            seen.append(get())
            if block == bad:
                raise RuntimeError(f"block {bad}")
            return rng_for_block(seed, block)

        monkeypatch.setattr(pathgen, "_rng_for_block", failing_rng)
        with pytest.raises(RuntimeError, match=f"block {bad}"):
            pathgen.batch_norms(amps, GridSpec(n_points=64), 1, 1100, "l2",
                                threads=threads)
        assert get() == before
    assert set(seen) == {1}


@needs_blas_control
def test_concurrent_batch_norms_calls_restore_blas_threads(blas_threads):
    # overlapping calls from several threads would restore one another's
    # pin and leave the BLAS on one thread
    get, put = blas_threads
    put(2)
    before = get()
    amps = PeriodicGenConfig(nu=1.0, K=45).amplitudes()
    grid = GridSpec(n_points=1023)
    want = pathgen.batch_norms(amps, grid, 4, 1100, "sup")
    got = [None] * 3

    def call(i):
        got[i] = pathgen.batch_norms(amps, grid, 4, 1100, "sup", threads=2)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(g is not None and np.array_equal(g, want) for g in got)
    assert get() == before


@pytest.fixture
def executor(monkeypatch):
    """Stands in for ThreadPoolExecutor in pathgen, starting no thread: each
    submitted call runs at once; yields the worker counts the executors were
    made with and the arguments of the calls."""
    made, calls = [], []

    class InlineExecutor:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            calls.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pathgen, "ThreadPoolExecutor", InlineExecutor)
    return made, calls


@pytest.mark.parametrize("cpus, n_blocks, ranges", [
    (2, 10, [(0, 5), (5, 10)]),
    (3, 10, [(0, 3), (3, 6), (6, 10)]),
    (64, 3, [(0, 1), (1, 2), (2, 3)]),
    (64, 1, None),
    (1, 10, None),
])
def test_batch_norms_workers_take_contiguous_block_ranges(monkeypatch, executor,
                                                          cpus, n_blocks, ranges):
    # one contiguous range of blocks per worker, never one call per block,
    # and at most min(threads, CPUs, blocks) workers, the calling thread
    # taking the first range; None: the calling thread alone
    amps = PeriodicGenConfig(nu=1.0, K=4).amplitudes()
    grid = GridSpec(n_points=32)
    n = n_blocks * pathgen.BLOCK - 3
    want = pathgen.batch_norms(amps, grid, 2, n, "sup")
    made, calls = executor
    monkeypatch.setattr(pathgen, "_usable_cpus", lambda: cpus)
    if pathgen._blas_threads() is None:
        ranges = None
    got = pathgen.batch_norms(amps, grid, 2, n, "sup", threads=10**6)
    assert np.array_equal(got, want)
    assert made == ([] if ranges is None else [len(ranges) - 1])
    assert calls == ([] if ranges is None else ranges[1:])


def test_batch_norms_without_blas_control_runs_one_worker(monkeypatch, executor):
    amps = PeriodicGenConfig(nu=1.0, K=4).amplitudes()
    grid = GridSpec(n_points=33)
    want = pathgen.batch_norms(amps, grid, 2, 5 * pathgen.BLOCK, "l2")
    made, _ = executor
    monkeypatch.setattr(pathgen, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(pathgen, "_blas_threads", lambda: None)
    got = pathgen.batch_norms(amps, grid, 2, 5 * pathgen.BLOCK, "l2", threads=4)
    assert np.array_equal(got, want)
    assert made == []


def test_batch_norms_refuses_bad_counts():
    amps = PeriodicGenConfig(nu=1.0, K=4).amplitudes()
    grid = GridSpec(n_points=16)
    for n_paths, threads in ((-1, 1), (10, 0)):
        with pytest.raises(PreconditionError):
            pathgen.batch_norms(amps, grid, 1, n_paths, "sup", threads=threads)
    for n_paths in (10**15, 10**22):  # past memory, past numpy's array size
        with pytest.raises(CapacityError, match="do not fit in memory"):
            pathgen.batch_norms(amps, grid, 1, n_paths, "sup")
    with pytest.raises(PreconditionError, match="unknown norm 'linf'"):
        pathgen.batch_norms(amps, grid, 1, 10, "linf")


def test_batch_norms_refuses_bad_radii():
    amps = PeriodicGenConfig(nu=1.0, K=4).amplitudes()
    grid = GridSpec(n_points=16)
    for radii in ([math.nan], [1.0, -0.5], [-math.inf]):
        with pytest.raises(PreconditionError, match="radii must be >= 0"):
            pathgen.batch_norms(amps, grid, 1, 10, "sup", radii)
    # zero and infinite radii are sides like any other
    assert pathgen.batch_norms(amps, grid, 1, 10, "sup", [0.0, math.inf]).shape == (10,)


def test_fourier_basis_past_its_entry_bound_is_refused():
    # numpy's MemoryError used to end these; both sizes are ones that numpy
    # refuses at once, the basis at 35 TB and the L2 Gram at 298 GiB
    amps = np.exp(spectra.discrete_log_amplitudes(1.0, (1 << 22) - 1))
    grid = GridSpec(n_points=1 << 20)
    message = r"8388607 x 1048576 Fourier basis or Gram passes 33554432 entries"
    with pytest.raises(CapacityError, match=message):
        pathgen.series_values(amps, grid.times(), 1, 1)
    with pytest.raises(CapacityError, match=message):
        pathgen.batch_norms(amps, grid, 1, 10, "sup")
    amps = PeriodicGenConfig(nu=1.0, K=100_000).amplitudes()
    with pytest.raises(CapacityError, match="200001 x 200001 Fourier basis"):
        pathgen.batch_norms(amps, GridSpec(n_points=16), 1, 200, "l2")
    # the benchmark's basis, 91 x 1024, is far inside the bound
    assert 91 * 1024 * 256 < pathgen.MAX_BASIS_ENTRIES


def test_normals_block_past_the_entry_bound_is_refused():
    # from K = 32,768 a counter block's 512 x (2K + 1) normals pass the bound
    # even where the basis, on 2 points, is far inside it
    amps = PeriodicGenConfig(nu=1.0, K=32_768).amplitudes()
    grid = GridSpec(n_points=2)
    message = r"512 x 65537 Fourier basis or Gram passes 33554432 entries"
    with pytest.raises(CapacityError, match=message):
        pathgen.series_values(amps, grid.times(), 1, 1)
    with pytest.raises(CapacityError, match=message):
        pathgen.batch_norms(amps, grid, 1, 1, "sup")
    # the L2 Gram, 65537 square, is refused first
    with pytest.raises(CapacityError, match="65537 x 65537"):
        pathgen.batch_norms(amps, grid, 1, 1, "l2")
    assert 512 * (2 * 32_767 + 1) <= pathgen.MAX_BASIS_ENTRIES


def test_blas_lookup_without_a_bundled_openblas(monkeypatch, tmp_path):
    # no library in numpy.libs, one that does not load, and one without the
    # 64-bit-integer thread calls: each leaves the BLAS as it is
    lookup = pathgen._blas_threads.__wrapped__
    monkeypatch.setattr(pathgen.glob, "glob", lambda pattern: [])
    assert lookup() is None
    missing = str(tmp_path / "libscipy_openblas64_.so")
    monkeypatch.setattr(pathgen.glob, "glob", lambda pattern: [missing])
    assert lookup() is None
    monkeypatch.setattr(pathgen.ctypes, "CDLL", lambda path: object())
    assert lookup() is None


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(pathgen.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pathgen.os, "cpu_count", lambda: 3)
    assert pathgen._usable_cpus() == 3
    monkeypatch.setattr(pathgen.os, "cpu_count", lambda: None)  # unknown
    assert pathgen._usable_cpus() == 1


def test_continuous_pairwise_correlation():
    # two-point grids: corr equals R(0.5)/R(0)
    grid = GridSpec(0.0, 0.5, 2)
    cases = [(spectra.continuous_nu(2.0), math.exp(-0.0625)),
             (spectra.continuous_nu(1.0), 0.8)]
    for model in (spectra.continuous_nu(0.5),
                  spectra.truncated_continuous_nu(1.0, 2.0)):
        cases.append((model, spectra.covariance(model, 0.5).value
                      / spectra.covariance(model, 0.0).value))
    for model, target in cases:
        vals = pathgen.continuous_values(model, grid.times(), seed=5,
                                         n_paths=4000)
        c = np.corrcoef(vals.T)[0, 1]
        assert c == pytest.approx(target, abs=3.0 / math.sqrt(4000)), model


def test_continuous_determinism_and_metadata():
    model = spectra.continuous_nu(1.0)
    grid = GridSpec(n_points=16)
    a = pathgen.gen_continuous(model, grid, seed=77)
    b = pathgen.gen_continuous(model, grid, seed=77)
    assert np.array_equal(a.values, b.values)
    assert a.meta["method"] == pathgen.PIVOTED_CHOLESKY


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


def test_factor_cache_matches_cold_calls():
    # gen_continuous path i is row i of continuous_values on the grid's
    # times, whether its factor is built afresh or read from the cache,
    # across a block boundary and out of order
    model = spectra.continuous_nu(0.5)
    grid = GridSpec(0.0, 10.0, 16)
    order = (9, 3, 8, 7, 0, 15, 16, 23)
    cold = {}
    for i in order:
        pathgen._factor.cache_clear()
        cold[i] = pathgen.gen_continuous(model, grid, seed=31, path_index=i).values
    pathgen._factor.cache_clear()
    batch = pathgen.continuous_values(model, grid.times(), seed=31, n_paths=24)
    for i in order:
        hit = pathgen.gen_continuous(model, grid, seed=31, path_index=i).values
        assert np.array_equal(hit, cold[i]) and np.array_equal(hit, batch[i]), i
    assert pathgen._factor.cache_info().misses == 1


def _count_series_blocks(monkeypatch):
    calls = []
    block = pathgen._series_block
    monkeypatch.setattr(pathgen, "_series_block",
                        lambda *a: calls.append(a[1:]) or block(*a))
    pathgen._factor.cache_clear()
    return calls


def test_continuous_block_not_shared_across_grids_or_seeds(monkeypatch):
    model = spectra.continuous_nu(1.0)
    keys = [(GridSpec(0.0, 10.0, 16), 5), (GridSpec(0.0, 10.0, 17), 5),
            (GridSpec(0.0, 10.01, 16), 5), (GridSpec(0.0, 10.0, 16), 6)]
    calls = _count_series_blocks(monkeypatch)
    paths = [pathgen.gen_continuous(model, grid, seed, path_index=2).values
             for grid, seed in keys]
    assert len(calls) == len(keys)
    assert pathgen._factor.cache_info().misses == 3  # the seed shares a factor
    for (grid, seed), path in zip(keys, paths):
        row = pathgen.continuous_values(model, grid.times(), seed, 1, offset=2)[0]
        assert np.array_equal(path, row), (grid, seed)
    assert not np.array_equal(paths[0], paths[2])
    assert not np.array_equal(paths[0], paths[3])


def test_gen_continuous_values_are_the_callers():
    model = spectra.continuous_nu(1.0)
    grid = GridSpec(0.0, 1.0, 8)
    first = pathgen.gen_continuous(model, grid, seed=9, path_index=1)
    kept = first.values.copy()
    first.values[:] = 0.0
    first.meta["rank"] = -1
    again = pathgen.gen_continuous(model, grid, seed=9, path_index=1)
    assert np.array_equal(again.values, kept)
    assert again.values.flags.writeable and again.meta["rank"] > 0


def test_gen_continuous_rejects_negative_path_index():
    with pytest.raises(PreconditionError, match="path index must be >= 0"):
        pathgen.gen_continuous(spectra.continuous_nu(1.0), GridSpec(n_points=4),
                               seed=0, path_index=-1)


def test_continuous_stationarity():
    model = spectra.continuous_nu(2.0)
    R0 = spectra.total_mass(model)
    vals = pathgen.continuous_values(model, np.array([0.0, 1.0]), seed=8,
                                     n_paths=4000)
    se = R0 * math.sqrt(2.0 / 4000)
    assert np.var(vals[:, 0]) == pytest.approx(R0, abs=3 * se)
    assert np.var(vals[:, 1]) == pytest.approx(R0, abs=3 * se)


def test_series_normals_keying_and_layout():
    # path i of seed s is sum_k amp_k (xi_k cos 2 pi k t + eta_k sin 2 pi k t)
    # with xi_0..xi_K, eta_1..eta_K in that order in row i % BLOCK of the
    # normals of the generator keyed by (s, i // BLOCK)
    K, seed, offset = 3, 17, pathgen.BLOCK - 2
    amps = PeriodicGenConfig(nu=1.0, K=K).amplitudes()
    t = np.linspace(0.0, 1.0, 9)
    vals = pathgen.series_values(amps, t, seed, n_paths=4, offset=offset)
    k = np.arange(K + 1)[:, None]
    for row, i in enumerate(range(offset, offset + 4)):
        block, pos = divmod(i, pathgen.BLOCK)
        z = fresh_rng(seed, block).standard_normal((pathgen.BLOCK, 2 * K + 1))[pos]
        xi, eta = z[: K + 1], np.concatenate([[0.0], z[K + 1:]])
        ref = np.sum(amps[:, None] * (xi[:, None] * np.cos(2 * np.pi * k * t)
                                      + eta[:, None] * np.sin(2 * np.pi * k * t)),
                     axis=0)
        assert np.max(np.abs(vals[row] - ref)) <= 1e-12 * np.max(np.abs(ref)), i


def test_quadrature_normals_keying_and_layout():
    # path i is z L, with z the rank normals in row i % QUAD_BLOCK of the
    # generator keyed by (seed, i // QUAD_BLOCK), and L the factor of the
    # Gauss-Legendre covariance at the call's times
    seed, offset = 23, pathgen.QUAD_BLOCK - 1
    for model, t in [(spectra.continuous_nu(1.0), [0.0, 0.3, 2.5, 7.0]),
                     (spectra.continuous_nu(0.5), [0.0, 0.3, 2.5, 10.0])]:
        t = np.array(t)
        vals = pathgen.continuous_values(model, t, seed, n_paths=3, offset=offset)
        rule = pathgen.spectral_rule(model, float(t[-1]))
        rows, pivots, _ = pathgen._pivoted_cholesky(pathgen._rule_gram(rule, t))
        assert sorted(pivots) == [0, 1, 2, 3]
        for row, i in enumerate(range(offset, offset + 3)):
            block, pos = divmod(i, pathgen.QUAD_BLOCK)
            z = fresh_rng(seed, block).standard_normal((pathgen.QUAD_BLOCK, len(rows)))[pos]
            ref = np.array([math.fsum(z * rows[:, j]) for j in range(len(t))])
            assert np.max(np.abs(vals[row] - ref)) <= 1e-12 * np.max(np.abs(ref)), i


def test_rekeyed_generator_draws_a_fresh_stream():
    # each key's stream equals a newly built generator's, bit for bit, after
    # draws that leave the kept generator's buffer and spare 32-bit word used
    for seed, block in ((0, 0), (2 ** 64 - 1, 0), (5, 2 ** 64 - 1)):
        used = pathgen._rng_for_block(seed ^ 1, block ^ 1)
        used.standard_normal(2)
        used.integers(0, 10, size=1, dtype=np.uint32)
        state = used.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
        rng = pathgen._rng_for_block(seed, block)
        want = fresh_rng(seed, block)
        assert np.array_equal(rng.standard_normal(1001), want.standard_normal(1001))
        assert np.array_equal(rng.integers(0, 2 ** 32, size=7, dtype=np.uint32),
                              want.integers(0, 2 ** 32, size=7, dtype=np.uint32))


def test_interleaved_calls_from_threads_draw_their_own_streams(monkeypatch):
    # every thread re-keys before any draws: a generator shared between
    # them would give each the normals of whichever key came last
    model, t = spectra.continuous_nu(1.0), np.linspace(0.0, 1.0, 9)
    n = 5 * pathgen.QUAD_BLOCK
    want = {seed: pathgen.continuous_values(model, t, seed, n) for seed in (3, 4, 5, 6)}
    meet = threading.Barrier(len(want), timeout=30)
    rng_for_block = pathgen._rng_for_block

    def keyed_together(seed, block):
        rng = rng_for_block(seed, block)
        meet.wait()
        return rng

    monkeypatch.setattr(pathgen, "_rng_for_block", keyed_together)
    got = {}

    def call(seed):
        got[seed] = pathgen.continuous_values(model, t, seed, n)

    callers = [threading.Thread(target=call, args=(seed,)) for seed in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert got.keys() == want.keys()
    assert all(got[seed].tobytes() == want[seed].tobytes() for seed in want)


def test_counter_blocks_build_no_generator(monkeypatch):
    # a thread builds one Philox and re-keys it per block, where a Philox
    # per block was 125 and 20 builds for these calls
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or philox(*a, **k))
    model, t = spectra.continuous_nu(1.0), np.linspace(0.0, 1.0, 9)
    amps = PeriodicGenConfig(nu=1.0, K=8).amplitudes()
    for call in (lambda: pathgen.continuous_values(model, t, 1, 1000),
                 lambda: pathgen.batch_norms(amps, GridSpec(n_points=64), 1, 10 ** 4, "sup")):
        built.clear()
        caller = threading.Thread(target=call)  # a thread that holds no generator yet
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(built) == 1


def _rule_covariance(rule, t):
    """R_N(t) = sum_j amp_j^2 cos(u_j t), summed exactly."""
    return math.fsum(rule.amp ** 2 * np.cos(rule.u * t))


@pytest.mark.parametrize("model", [spectra.continuous_nu(0.75), spectra.continuous_nu(1.0),
                                   spectra.continuous_nu(1.5), spectra.continuous_nu(2.0),
                                   spectra.continuous_nu(3.0), spectra.bandlimited(1.0),
                                   spectra.bandlimited(10.0),
                                   spectra.truncated_continuous_nu(2.0, 3.0)])
@pytest.mark.parametrize("span", [1.0, 10.0])
def test_gauss_legendre_covariance_within_stated_bound(model, span):
    # the largest |R_N - R| over 100 lags of (0, span] is within the rule's
    # stated bound; R from the closed forms where they exist
    rule = pathgen.spectral_rule(model, span)
    assert len(rule.u) <= pathgen.MAX_PAIRS
    err = 0.0
    for t in np.linspace(span / 100, span, 100):
        exact = closed_form_covariance(model, t)
        exact = spectra.covariance(model, t).value if exact is None else exact
        err = max(err, abs(_rule_covariance(rule, t) - exact))
    assert err <= rule.cov_error, (err, rule.cov_error)
    assert rule.cov_error <= 5.0 * pathgen.COV_TOL


@pytest.mark.parametrize("nu", [5.0, 8.0, 20.0, 50.0])
@pytest.mark.parametrize("span", [1.0, 10.0])
def test_gauss_legendre_is_sound_at_large_nu(nu, span):
    # exp(-u^nu) is near a step at large nu, so one panel of the span's phase
    # is not enough; the rule doubles its panels until its weights are
    # non-negative and its error estimate is within MAX_COV_ERROR
    model = spectra.continuous_nu(nu)
    rule = pathgen.spectral_rule(model, span)
    assert np.all(np.isfinite(rule.amp)) and rule.cov_error <= pathgen.MAX_COV_ERROR
    assert _rule_covariance(rule, 0.0) == pytest.approx(spectra.total_mass(model),
                                                        rel=1e-12, abs=0)
    err = max(abs(_rule_covariance(rule, t) - spectra.covariance(model, t).value)
              for t in np.linspace(span / 10, span, 10))
    assert err <= rule.cov_error, (err, rule.cov_error)
    values = pathgen.continuous_values(model, np.linspace(0.0, span, 5), 3, 4)
    assert np.all(np.isfinite(values))


def test_unsound_gauss_legendre_doubles_its_panels():
    # at nu 20 on [0, 1] the phase asks for one panel, whose 20 points miss
    # the mass by about 1e-6, past the last weight: that rule is refused
    model = spectra.continuous_nu(20.0)
    mass, top = spectra.total_mass(model), spectra.tail_mass_point(model, pathgen.COV_TOL)
    assert top * 1.0 < pathgen.PANEL_PHASE
    assert pathgen._gauss_legendre(model, 1.0, mass, top, 1, 0) is None
    assert pathgen._gauss_legendre(model, 1.0, mass, top, 2, 0) is None
    sound = pathgen._gauss_legendre(model, 1.0, mass, top, 4, 0)
    assert len(pathgen.spectral_rule(model, 1.0).u) == len(sound.u) == 80


@pytest.mark.parametrize("model, span", [
    (spectra.continuous_nu(0.5), 1.0), (spectra.continuous_nu(0.5), 10.0),
    (spectra.continuous_nu(2.0), 10.0), (spectra.bandlimited(3.0), 2.0),
    (spectra.truncated_continuous_nu(1.5, 2.0), 1.0)])
def test_rule_variance_is_the_total_mass(model, span):
    rule = pathgen.spectral_rule(model, span)
    assert _rule_covariance(rule, 0.0) == pytest.approx(spectra.total_mass(model),
                                                        rel=1e-12, abs=0)


def test_rule_choice_counts_pairs():
    # the pairs follow the span's phase, at most PANEL_PHASE a panel (at 3 pi
    # nu 0.5 on [0, 10] took 15,800); past MAX_PAIRS, and for the log-power
    # family, whose tail has no closed inverse, there is no rule
    pairs = {(nu, span): len(pathgen.spectral_rule(spectra.continuous_nu(nu), span).u)
             for nu in (0.5, 1.0, 2.0) for span in (1.0, 10.0)}
    assert pairs == {(0.5, 1.0): 860, (0.5, 10.0): 6140,
                     (1.0, 1.0): 20, (1.0, 10.0): 200, (2.0, 1.0): 20, (2.0, 10.0): 40}
    with pytest.raises(CapacityError, match="no closed inverse"):
        pathgen.spectral_rule(spectra.log_power_alpha(3.0), 1.0)
    for nu, span in ((0.3, 1.0), (0.5, 200.0)):
        with pytest.raises(CapacityError, match="no sound Gauss-Legendre rule within 65536"):
            pathgen.spectral_rule(spectra.continuous_nu(nu), span)
    # a bandlimited Tsirelson minorant's path takes tens of pairs
    assert len(pathgen.spectral_rule(spectra.bandlimited(5.0), 1.0).u) == 20


@pytest.mark.parametrize("nu, span, pairs", [(0.5, 100.0, 59060), (0.4, 10.0, 36800)])
def test_wide_panels_answer_long_spans(nu, span, pairs):
    # at panels of PANEL_PHASE these spans fit in MAX_PAIRS, and the rule's
    # covariance over 100 lags is within its stated error
    model = spectra.continuous_nu(nu)
    rule = pathgen.spectral_rule(model, span)
    assert len(rule.u) == pairs and rule.cov_error <= pathgen.MAX_COV_ERROR
    err = max(abs(_rule_covariance(rule, t) - spectra.covariance(model, t).value)
              for t in np.linspace(span / 100, span, 100))
    assert err <= rule.cov_error, (err, rule.cov_error)


def test_panel_phase_is_where_the_remainder_bound_is_eps():
    # c_N w^(2N) = eps at w = PANEL_PHASE / 2, and the GL_POINTS rule
    # integrates cos(w x) over [-1, 1] to rounding there
    n = pathgen.GL_POINTS
    c = 2 ** (2 * n + 1) * math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
    w = pathgen.PANEL_PHASE / 2.0
    assert c * w ** (2 * n) == pytest.approx(np.finfo(float).eps, rel=1e-12)
    assert pathgen.PANEL_PHASE == pytest.approx(24.90, abs=5e-3)
    x, weights = np.polynomial.legendre.leggauss(n)
    assert abs(weights @ np.cos(w * x) - 2.0 * math.sin(w) / w) <= 1e-14


def test_gen_continuous_meta_names_the_rule():
    grid = GridSpec(0.0, 1.0, 64)
    model = spectra.continuous_nu(1.0)
    meta = pathgen.gen_continuous(model, grid, seed=1).meta
    rule = pathgen.spectral_rule(model, 1.0)
    rows, _, residual = pathgen._pivoted_cholesky(pathgen._rule_gram(rule, grid.times()))
    assert meta == {"method": pathgen.PIVOTED_CHOLESKY, "rank": len(rows),
                    "n_pairs": 20, "cov_error_estimate": rule.cov_error + residual}
    assert len(rows) < grid.n_points and 0.0 < residual <= pathgen.COV_TOL
    # nu 0.5 on [0, 10] takes a 6,140-pair rule and states its error too
    meta = pathgen.gen_continuous(spectra.continuous_nu(0.5), GridSpec(0.0, 10.0, 8),
                                  seed=1).meta
    assert meta["n_pairs"] == 6140 and meta["rank"] == 8
    assert 0.0 < meta["cov_error_estimate"] <= pathgen.MAX_COV_ERROR + pathgen.COV_TOL


FACTOR_MODELS = [spectra.continuous_nu(nu) for nu in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)] \
    + [spectra.bandlimited(1.0), spectra.bandlimited(10.0),
       spectra.truncated_continuous_nu(2.0, 3.0)]


@pytest.mark.parametrize("model", FACTOR_MODELS, ids=lambda m: "-".join(
    [m.kind] + [f"{v:g}" for v in (m.nu, m.cutoff) if v is not None]))
@pytest.mark.parametrize("t_max, n_points", [(1.0, 16), (1.0, 64), (10.0, 16), (10.0, 64)])
def test_sampled_covariance_within_stated_error(model, t_max, n_points):
    # every entry of L'L, the covariance the paths sample, is within the
    # stated error of spectra.covariance at its lag
    grid = GridSpec(0.0, t_max, n_points)
    rows, meta = pathgen._factor(model, grid.times().tobytes())
    lags = np.arange(n_points) * grid.spacing
    exact = [closed_form_covariance(model, t) for t in lags]
    exact = np.array([spectra.covariance(model, t).value if e is None else e
                      for t, e in zip(lags, exact)])
    index = np.arange(n_points)
    err = np.abs(rows.T @ rows - exact[np.abs(index[:, None] - index)])
    assert np.max(err) <= meta["cov_error_estimate"], (np.max(err), meta)
    assert meta["rank"] == len(rows) <= n_points


#: the continuous (model, grid) keys of the benchmark's continuous-sim workload
BENCH_KEYS = [(1.0, 10.0, 16), (0.5, 10.0, 16), (0.5, 1.0, 64), (1.0, 1.0, 64)]


@pytest.mark.parametrize("nu, t_max, n_points", BENCH_KEYS)
def test_pivots_do_not_depend_on_rounding(nu, t_max, n_points):
    # a symmetric change of 1e-15 relative in C, as another BLAS build or
    # thread count makes, moves no pivot: each is the lowest index within
    # the stated tolerance of the largest residual, not the argmax.  The
    # leading rows hold to 1e-12; a later row k moves by the change of its
    # Schur complement over sqrt(d_k), up to 5e-10 at nu 1 on [0, 1] x 64,
    # so it is held times its pivot entry sqrt(d_k), as L'L is, to 1e-12 R(0)
    grid = GridSpec(0.0, t_max, n_points)
    model = spectra.continuous_nu(nu)
    cov = pathgen._rule_gram(pathgen.spectral_rule(model, t_max), grid.times())
    rows, pivots, _ = pathgen._pivoted_cholesky(cov)
    scale = cov[0, 0]
    diag = rows[np.arange(len(rows)), pivots][:, None]
    lead = diag[:, 0] ** 2 >= 1e-3 * scale  # pivots that carry most of R(0)
    rng = np.random.default_rng(2012)
    for _ in range(10):
        noise = rng.uniform(-1.0, 1.0, cov.shape)
        moved, moved_pivots, _ = pathgen._pivoted_cholesky(
            cov * (1.0 + 1e-15 * (noise + noise.T) / 2.0))
        assert np.array_equal(moved_pivots, pivots)
        assert np.max(np.abs(moved - rows)[lead]) <= 1e-12
        assert np.max(np.abs(moved - rows) * diag) <= 1e-12 * scale
        assert np.max(np.abs(moved.T @ moved - rows.T @ rows)) <= 1e-12 * scale


def test_log_power_refusal_computes_no_mass(monkeypatch):
    # the tail alone refuses the log-power family, before its mass, a
    # QUADPACK integral that a refusal does not cache, is computed
    calls = []
    monkeypatch.setattr(spectra, "_spectral_integral", lambda *args: calls.append(args))
    model = spectra.log_power_alpha(1.5)
    with pytest.raises(CapacityError, match="no closed inverse"):
        pathgen.continuous_values(model, np.linspace(0.0, 1.0, 8), seed=1, n_paths=2)
    assert calls == []


#: why each family below has no rule: only the last two try one
NO_RULE_CAUSE = {
    "log-power-alpha (alpha 1.5)": "the tail has no closed inverse",
    "continuous-nu (nu 0.006)": "the tail point of mass 1e-10 is past the float range",
    "continuous-nu (nu 0.3)": "no sound Gauss-Legendre rule within 65536 cos/sin pairs",
    "continuous-nu (nu 0.5)": "no sound Gauss-Legendre rule within 65536 cos/sin pairs",
}


@pytest.mark.parametrize("model, times, family", [
    (spectra.log_power_alpha(1.5), np.linspace(0.0, 1.0, 8), "log-power-alpha (alpha 1.5)"),
    (spectra.continuous_nu(0.3), np.linspace(0.0, 1.0, 8), "continuous-nu (nu 0.3)"),
    (spectra.continuous_nu(0.5), np.linspace(0.0, 200.0, 8), "continuous-nu (nu 0.5)"),
    (spectra.continuous_nu(0.006), np.linspace(0.0, 1.0, 4), "continuous-nu (nu 0.006)")])
def test_no_sound_rule_is_refused(model, times, family):
    # no path is given without a stated covariance error, and the refusal
    # names its cause
    span = f"{times[-1] - times[0]:g}"
    with pytest.raises(CapacityError, match=rf"{re.escape(family)} over span {span}: "
                                            rf"{re.escape(NO_RULE_CAUSE[family])}"):
        pathgen.continuous_values(model, times, seed=1, n_paths=2)


def test_factor_work_past_its_bound_is_refused():
    # nu 1 on [0, 1] has a 60-pair rule, but (60 + 4096) 4096^2 passes the
    # bound before the 128 MB covariance is formed
    with pytest.raises(CapacityError, match=r"continuous-nu \(nu 1\) at 4096 times "
                                            r"over span 1: factor work"):
        pathgen.gen_continuous(spectra.continuous_nu(1.0), GridSpec(0.0, 1.0, 4096), 1)
    path = pathgen.gen_continuous(spectra.continuous_nu(1.0), GridSpec(0.0, 1.0, 2048), 1)
    assert path.meta["rank"] < 20


def test_factor_is_one_realisation_per_set_of_times():
    # a path depends on its set of times, not on their offset: shifted times
    # give the same covariance and so the same path
    model, t = spectra.continuous_nu(1.0), np.linspace(0.0, 1.0, 9)
    a = pathgen.continuous_values(model, t, seed=3, n_paths=2)
    assert np.array_equal(pathgen.continuous_values(model, t + 5.0, seed=3, n_paths=2), a)
    # a sub-grid is another realisation: its factor has other rows
    b = pathgen.continuous_values(model, t[::2], seed=3, n_paths=2)
    assert not np.array_equal(b, a[:, ::2])


def test_one_rng_keying_scheme():
    # every random number in the library comes from the Philox generator that
    # _rng_for_block keys by (seed, block); no module builds its own
    found = set()
    for path in Path(pathgen.__file__).parent.glob("*.py"):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for line, code in enumerate(text.splitlines(), start=1):
            if "np.random." in code:
                # ast.walk is breadth first: the innermost enclosing def is last
                inner = [f.name for f in functions if f.lineno <= line <= f.end_lineno]
                found.add((path.name, inner[-1] if inner else "<module>"))
    assert found == {("pathgen.py", "_rng_for_block")}


def test_keys_past_64_bits_are_refused():
    # the key is two 64-bit words: a seed outside them was folded into them
    # (-1 gave the paths of 2^64 - 1), and a block past them ended in an
    # OverflowError
    cfg, grid = PeriodicGenConfig(1.0, 4), GridSpec(0.0, 1.0, 8)
    for seed in (-1, 2 ** 64):
        with pytest.raises(PreconditionError, match=r"seed must be in \[0, 2\^64\)"):
            pathgen.gen_periodic(cfg, grid, seed)
        with pytest.raises(PreconditionError, match="seed must be in"):
            pathgen.batch_norms(cfg.amplitudes(), grid, seed, 100, "sup")
    last = 2 ** 64 * pathgen.BLOCK - 1  # the last path of block 2^64 - 1
    assert np.all(np.isfinite(pathgen.gen_periodic(cfg, grid, 2 ** 64 - 1, last).values))
    with pytest.raises(CapacityError, match=r"counter block 18446744073709551616 .* "
                                            r"past 2\^64"):
        pathgen.gen_periodic(cfg, grid, 1, last + 1)
    with pytest.raises(CapacityError, match=r"past 2\^64"):
        pathgen.gen_continuous(spectra.continuous_nu(1.0), grid, 1,
                               2 ** 64 * pathgen.QUAD_BLOCK)


def test_seed_must_be_an_integer():
    # 1.9 gave seed 1's paths; numpy integers are integers
    model, grid = spectra.continuous_nu(1.0), GridSpec(0.0, 1.0, 8)
    with pytest.raises(PreconditionError, match="seed must be an integer, got 1.9"):
        pathgen.gen_continuous(model, grid, 1.9)
    want = pathgen.gen_continuous(model, grid, 3, 2).values
    got = pathgen.gen_continuous(model, grid, np.uint64(3), np.int64(2)).values
    assert np.array_equal(got, want)


def test_negative_path_count_is_refused():
    # ended in numpy's "negative dimensions" ValueError
    with pytest.raises(PreconditionError, match="path count must be >= 0, got -1"):
        pathgen.continuous_values(spectra.continuous_nu(1.0), np.linspace(0.0, 1.0, 8),
                                  seed=1, n_paths=-1)


def test_path_index_must_be_an_integer():
    # ended in a slicing TypeError
    with pytest.raises(PreconditionError, match="path index must be an integer, got 2.7"):
        pathgen.gen_continuous(spectra.continuous_nu(1.0), GridSpec(0.0, 1.0, 8), 1, 2.7)


def test_thread_count_must_be_an_integer():
    # ended in a TypeError from range
    amps = PeriodicGenConfig(nu=1.0, K=4).amplitudes()
    with pytest.raises(PreconditionError, match="threads must be an integer, got 1.5"):
        pathgen.batch_norms(amps, GridSpec(n_points=16), 1, 10 ** 4, "sup", threads=1.5)


def test_caches_are_bounded_and_read_only():
    # every lru_cache names a finite maxsize, and no cached array is writeable:
    # a caller that could mutate one would corrupt every later path
    unbounded = []
    for path in Path(pathgen.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                name = ast.unparse(dec.func if isinstance(dec, ast.Call) else dec)
                if name.split(".")[-1] not in ("lru_cache", "cache"):
                    continue
                size = ([k.value for k in dec.keywords if k.arg == "maxsize"]
                        + dec.args if isinstance(dec, ast.Call) else [])
                if not (size and isinstance(size[0], ast.Constant)
                        and isinstance(size[0].value, int)):
                    unbounded.append((path.name, node.name))
    assert unbounded == []
    rows, _ = pathgen._factor(spectra.continuous_nu(1.0), GridSpec(n_points=4).times().tobytes())
    assert not rows.flags.writeable
