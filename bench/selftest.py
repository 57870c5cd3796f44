#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and fails unless
each run ends with a result line of the expected form and
emits every metric named in BENCHMARK.json and in bench/README.md.  It also
checks that the benchmark refuses to run, with a non-zero exit code and no
result line, in a directory that holds only BENCHMARK.json and bench/.
Takes under a minute; it asserts nothing about speed or correctness of the
library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: metrics each workload reports besides the end-to-end ones
WORKLOAD_METRICS = {
    "mc-fourier": ["mc_paths_per_s", "mc_paths_per_s_par"],
    "bounds": ["tsirelson_s", "entropy_s", "l2_exact_s", "gcertify_s",
               "entropy_log_gap", "tsirelson_lower_ratio"],
    "continuous-sim": ["simulate_paths_per_s", "simulate_cold_s"],
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_run(spec: dict, workload: str, trace: int) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)], size="tiny")
    lines = buf.getvalue().strip().splitlines()
    tag = f"{workload} trace={trace}"
    expect(code == 0, f"{tag}: exit code {code}")
    last = json.loads(lines[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(last)}")
    expect(isinstance(last["attempted"], int) and last["attempted"] >= 1
           and isinstance(last["failed"], int), f"{tag}: attempted/failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expect(set(last["metrics"]) == {m["name"] for m in wanted},
           f"{tag}: metric names {sorted(last['metrics'])}")
    for m in wanted:
        got = last["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{tag}: unit of {m['name']}")
        expect(isinstance(got["value"], (int, float))
               and math.isfinite(got["value"]), f"{tag}: value of {m['name']}")
    report = "\n".join(lines[:-1])
    for name in ([m["name"] for m in spec["end_to_end"]] + ["pass_s", "reference_s"]
                 + WORKLOAD_METRICS[workload]):
        expect(f"  {name} " in report, f"{tag}: {name} missing from the report")
    expect("fail_frac = " in report, f"{tag}: fail_frac missing from the report")
    result = json.loads((ROOT / "bench" / "out" /
                         f"result-{workload}-trace{trace}.json").read_text())
    for key in ("nproc", "python", "numpy", "scipy", "blas",
                "OPENBLAS_NUM_THREADS", "commit", "seed"):
        expect(key in result["env"], f"{tag}: env lacks {key}")
    expect(result["digests"], f"{tag}: no output digests")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / "bench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "bounds", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"correct"' not in proc.stdout, "bare directory: printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOAD_METRICS),
           "workloads of BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"selftest: {w['name']} trace={trace} ok", flush=True)
    check_bare_directory(spec)
    print("selftest: bare directory refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
