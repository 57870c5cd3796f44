"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Every layer is timed from outside, around calls into its functions; the
library's code is not changed.  `spectra.density_eval`,
`tsirelson.bound_at` and `smallball._log_cdf_contour` are hot scalar calls
and only counted.
"""

from __future__ import annotations


def _gflop(counts, args, result) -> None:
    # batch_norms(amps, grid, seed, n_paths, norm): per path and grid point,
    # two K-term basis products (2 flops per term each), the constant term
    # and the norm reduction; computed from array sizes, not measured
    amps, grid, n_paths = args[0], args[1], args[3]
    K = len(amps) - 1
    counts["pathgen.batch_norms.flop"] += (4 * K + 3) * n_paths * grid.n_points


def _circulant(counts, args, result) -> None:
    counts["pathgen.circulant"] += result.meta.get("method") == "circulant"


def _points(counts, args, result) -> None:
    counts["gfunc.log_abs_g.points"] += len(result)


def install(tracer, sd) -> None:
    """Wrap the traced functions of the smalldev modules held by `sd`."""
    t = tracer
    t.span(sd.cli, "main", "cli.main")
    t.span(sd.pathgen, "batch_norms", "pathgen.batch_norms", account=_gflop)
    t.span(sd.pathgen, "_series_block", "pathgen.series_block")
    t.span(sd.pathgen, "gen_continuous", "pathgen.gen_continuous",
           account=_circulant)
    t.span(sd.pathgen, "continuous_values", "pathgen.continuous_values")
    t.span(sd.spectra, "covariance", "spectra.covariance")
    t.count(sd.spectra, "density_eval", "spectra.density_eval")
    t.span(sd.smallball, "estimate", "smallball.estimate")
    t.span(sd.smallball, "log_exact_l2", "smallball.log_exact_l2")
    t.count(sd.smallball, "_log_cdf_contour", "smallball.contour")
    t.span(sd.tsirelson, "bound_opt", "tsirelson.bound_opt")
    t.count(sd.tsirelson, "bound_at", "tsirelson.bound_at")
    t.span(sd.tsirelson, "uncorrelated_certificate", "tsirelson.certificate")
    t.span(sd.rkhs, "entropy_upper", "rkhs.entropy_upper")
    t.span(sd.rkhs, "entropy_lower", "rkhs.entropy_lower")
    t.span(sd.rkhs, "_count_lattice_cells", "rkhs.lattice")
    t.span(sd.rkhs, "truncation_entropy_upper", "rkhs.truncation")
    t.span(sd.gfunc, "log_abs_g", "gfunc.log_abs_g", account=_points)
    t.span(sd.ratefit, "fit", "ratefit.fit")


def metrics(tracer, n_passes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, keyed by their BENCHMARK.json name."""
    s = tracer.summary()
    c = tracer.counts

    def field(name, key):
        return s[name][key] if name in s else 0

    def share(num, den):
        return num / den if den else 0.0

    per_pass = {
        "pathgen.batch_norms.busy_s": field("pathgen.batch_norms", "busy_s"),
        "pathgen.series_block.calls": field("pathgen.series_block", "calls"),
        "pathgen.series_block.busy_s": field("pathgen.series_block", "busy_s"),
        "pathgen.batch_norms.gflop_computed": c["pathgen.batch_norms.flop"] / 1e9,
        "pathgen.gen_continuous.busy_s": field("pathgen.gen_continuous", "busy_s"),
        "pathgen.gen_continuous.self_s": field("pathgen.gen_continuous", "self_s"),
        "pathgen.continuous_values.busy_s":
            field("pathgen.continuous_values", "busy_s"),
        "spectra.covariance.calls": field("spectra.covariance", "calls"),
        "spectra.covariance.busy_s": field("spectra.covariance", "busy_s"),
        "spectra.density_eval.calls": c["spectra.density_eval"],
        "smallball.estimate.self_s": field("smallball.estimate", "self_s"),
        "smallball.log_exact_l2.busy_s": field("smallball.log_exact_l2", "busy_s"),
        "smallball.contour.calls": c["smallball.contour"],
        "tsirelson.bound_opt.busy_s": field("tsirelson.bound_opt", "busy_s"),
        "tsirelson.bound_at.calls": c["tsirelson.bound_at"],
        "tsirelson.certificate.busy_s": field("tsirelson.certificate", "busy_s"),
        "rkhs.entropy_upper.busy_s": field("rkhs.entropy_upper", "busy_s"),
        "rkhs.entropy_lower.busy_s": field("rkhs.entropy_lower", "busy_s"),
        "rkhs.truncation.busy_s": field("rkhs.truncation", "busy_s"),
        "gfunc.log_abs_g.busy_s": field("gfunc.log_abs_g", "busy_s"),
        "gfunc.log_abs_g.points": c["gfunc.log_abs_g.points"],
        "ratefit.fit.busy_s": field("ratefit.fit", "busy_s"),
        "cli.main.self_s": field("cli.main", "self_s"),
    }
    out = {k: v / n_passes for k, v in per_pass.items()}
    # ratios of two counts need no per-pass scaling
    out["pathgen.circulant_frac"] = share(
        c["pathgen.circulant"], field("pathgen.gen_continuous", "calls"))
    out["tsirelson.candidates_per_bound"] = share(
        c["tsirelson.bound_at"], field("tsirelson.bound_opt", "calls"))
    lattice = s.get("rkhs.lattice")
    out["rkhs.lattice_fallback_frac"] = share(
        lattice["errors"]["MemoryError"], lattice["calls"]) if lattice else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
