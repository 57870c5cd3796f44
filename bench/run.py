#!/usr/bin/env python3
"""smalldev benchmark: run one workload and report its metrics.

    python3 bench/run.py --workload {mc-fourier,bounds,continuous-sim} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; it works on the checkout that holds this file and runs
the library from its `src/` directory, in this one process.  It sets the
library up several times (import of every smalldev module plus a
workload-specific warm-up) and reports the median as `setup_s`, then runs
timed passes of the workload, one call at a time, until the next pass would
end after `--seconds`.  Before the first pass and after every pass it times
a fixed reference kernel; `pass_s` is the median pass time and `pass_rel`
that median divided by the median reference time.  It then checks the outputs and prints a report, ending
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts failed operations and failed checks; a check that fails
because of a known defect of the library (see bench/README.md) is reported
by name and counted in `fail_frac`, but not in `failed`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json.
With `--trace 1` passes alternate between untraced and traced, and the
metrics are the per-layer metrics of BENCHMARK.json, per traced pass, plus
the tracing overhead (median traced pass minus median untraced pass).

A full result with the environment, every metric, every check and the
sha256 digest of every output is written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path("bench") / "out"  # relative to ROOT, so manifests do not vary
MODULES = ("cli", "gfunc", "pathgen", "ratefit", "rkhs", "smallball",
           "spectra", "tsirelson")
SETUPS = 5
REFERENCE_REPEATS = 5


def import_smalldev():
    """Import every smalldev module afresh; earlier copies are dropped so
    that each set-up pays the package's own import cost."""
    for name in [m for m in sys.modules
                 if m == "smalldev" or m.startswith("smalldev.")]:
        del sys.modules[name]
    return argparse.Namespace(**{m: importlib.import_module(f"smalldev.{m}")
                                 for m in MODULES})


def reference_s() -> list[float]:
    """Wall times of a fixed mix of interpreter and numpy work that does not
    use the library: how fast this machine runs right now.

    On a shared machine the speed of the same code drifts by tens of percent
    over minutes; dividing pass time by the reference time of the same run
    cancels most of that drift (see bench/README.md)."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    a, b = rng.standard_normal((256, 64)), rng.standard_normal((64, 512))
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        for _ in range(8):
            c = a @ b
            np.cos(c, out=c)
            float(c.max())
        times.append(perf_counter() - t0)
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def digest_changes(workload: str, seed: int, digests: dict) -> dict | None:
    """Compare output digests with bench/reference_digests.json, if it has
    an entry for this workload and seed.  Changes are reported, not failed."""
    try:
        ref = json.loads((HERE / "reference_digests.json").read_text())
    except (OSError, ValueError):
        return None
    entry = ref.get(workload, {})
    entry = entry.get(str(seed)) or entry.get("any")
    if entry is None:
        return None
    return {name: ("changed" if name in entry else "new")
            for name, d in digests.items() if entry.get(name) != d} | \
        {name: "missing" for name in entry if name not in digests}


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, size: str = "full") -> int:
    sys.path.insert(0, str(HERE))
    from workloads import SIZES, WORKLOADS, nproc

    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "smalldev" / "__init__.py").is_file():
        print(f"error: no smalldev sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # -- set-up, several times; every set-up re-imports the library
    setup_times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        sd = import_smalldev()
        wl = WORKLOADS[args.workload](sd, args.seed, str(out),
                                      SIZES[size][args.workload])
        wl.warm_up()
        setup_times.append(perf_counter() - t0)

    # -- timed passes; with --trace 1 every second pass is traced
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer
        tracer = Tracer()
    plain, traced = [], []
    refs = reference_s()  # before the first pass and after every pass
    start = perf_counter()
    p = 0
    while True:
        is_traced = tracer is not None and p % 2 == 1
        if is_traced:
            layers.install(tracer, sd)
        t0 = perf_counter()
        try:
            wl.run_pass(p)
        finally:
            if is_traced:
                tracer.uninstall()
        (traced if is_traced else plain).append(perf_counter() - t0)
        wl.stage_times[-1]["traced"] = is_traced
        refs += reference_s()
        p += 1
        if tracer is not None and not traced:
            continue
        elapsed = perf_counter() - start
        if elapsed + statistics.median(plain + traced) > args.seconds:
            break

    wl.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_checks = [c for c in wl.checks if not c[1]]
    defect_checks = [c for c in failed_checks if c[0] in wl.known_defects]
    # a run is correct unless an operation or a check fails for a reason
    # other than a known defect; fail_frac counts every failure
    failed = len(wl.failed_ops) + len(failed_checks) - len(defect_checks)
    fail_frac = (len(wl.failed_ops) + len(failed_checks)) / max(wl.attempted, 1)

    e2e = {
        "setup_s": statistics.median(setup_times),
        "pass_rel": statistics.median(plain) / statistics.median(refs),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - fail_frac,
    }
    named = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    report = {k: (v, named[k]["unit"], named[k]["better"]) for k, v in e2e.items()}
    report["pass_s"] = (statistics.median(plain), "s", "lower")
    report["reference_s"] = (statistics.median(refs), "s", "lower")
    report.update(wl.metrics())
    per_layer = {}
    if tracer is not None:
        overhead = statistics.median(traced) - statistics.median(plain)
        per_layer = layers.metrics(tracer, len(traced), overhead)
        with open(out.parent / f"spans-{args.workload}.json", "w") as f:
            json.dump({"columns": ["name", "parent", "start", "end", "error"],
                       "spans": tracer.span_rows(),
                       "counts": dict(tracer.counts)}, f)

    env = environment(args, nproc())
    changes = digest_changes(args.workload, args.seed, wl.digests)
    result = {
        "env": env,
        "setup_s_each": setup_times,
        "pass_s_each": plain,
        "pass_traced_s_each": traced,
        "reference_s_each": refs,
        "stage_times": wl.stage_times,
        "metrics": {k: {"value": v, "unit": u, "better": b}
                    for k, (v, u, b) in report.items()},
        "per_layer": {k: {"value": v, "unit": named[k]["unit"],
                          "better": named[k]["better"]}
                      for k, v in per_layer.items()},
        "attempted": wl.attempted,
        "failed_ops": wl.failed_ops,
        "checks": [{"name": n, "ok": ok, "detail": d,
                    "known_defect": wl.known_defects.get(n)}
                   for n, ok, d in wl.checks],
        "digests": wl.digests,
        "digest_changes": changes,
    }
    with open(out.parent / f"result-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    # -- human-readable report
    print(f"smalldev benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (v, unit, better) in report.items():
        print(f"  {name:<24} {v:>14.6g} {unit:<6} ({better} is better)")
    for name, v in per_layer.items():
        print(f"  {name:<38} {v:>14.6g} {named[name]['unit']:<6} "
              f"({named[name]['better']} is better)")
    print(f"fail_frac = {len(wl.failed_ops) + len(failed_checks)}/"
          f"{wl.attempted} = {fail_frac:.4g} "
          f"({len(wl.failed_ops)} failed operations + {len(failed_checks)} "
          f"failed checks, {len(defect_checks)} of them of a known defect, "
          f"over {wl.attempted} operations attempted; "
          f"{len(wl.checks)} checks made)")
    for msg in wl.failed_ops:
        print(f"  FAILED operation: {msg}")
    for name, _, detail in failed_checks:
        defect = wl.known_defects.get(name)
        tag = f" (known defect: {defect})" if defect else ""
        print(f"  FAILED check{tag}: {name}: {detail}")
    passing = [n for n, ok, _ in wl.checks if ok and n in wl.known_defects]
    if passing and not defect_checks:
        print("  known defect no longer shows; every check of it passes: "
              + "; ".join(passing))
    if changes is None:
        print(f"output digests: {len(wl.digests)} recorded, no reference for this seed")
    else:
        print(f"output digests: {len(wl.digests)} recorded, "
              f"{len(changes)} differ from the reference")
        for name, how in sorted(changes.items()):
            print(f"  digest {how}: {name}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": wl.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
