import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from smalldev import cli, pathgen


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path) as f:
        return f.read()


def l2_phi(out):
    """phi of the first row of an l2_exact.csv, read by its column name."""
    header, row = read(out / "l2_exact.csv").splitlines()[:2]
    return float(dict(zip(header.split(","), row.split(",")))["phi"])


def test_smallball_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["smallball", "--spectrum", "discrete", "--nu", "1", "--K", "8",
            "--norm", "l2", "--r", "0.5,1,2", "--n", "2000", "--grid", "128",
            "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    body1 = read(out1 / "smallball.csv")
    body2 = read(out2 / "smallball.csv")
    assert body1 == body2
    lines = body1.strip().split("\n")
    assert lines[0] == ("r,norm,n,hits,p_hat,ci_low,ci_high,phi_hat,"
                        "phi_lo,phi_hi,grid,seed")
    assert len(lines) == 4


ROUNDTRIP = {
    "simulate-discrete": ["simulate", "--spectrum", "discrete", "--nu", "1",
                          "--K", "20", "--n-points", "64", "--seed", "5"],
    "simulate-continuous": ["simulate", "--spectrum", "continuous",
                            "--nu", "0.5", "--t-max", "10", "--n-points", "16",
                            "--path-index", "9", "--seed", "3"],
    "smallball": ["smallball", "--nu", "1", "--K", "8", "--norm", "sup",
                  "--r", "0.5,1,2", "--n", "500", "--grid", "64", "--seed", "7"],
    "l2-exact": ["l2-exact", "--nu", "1", "--K", "10", "--r", "0.5,1.0",
                 "--seed", "3"],
    "tsirelson": ["tsirelson", "--spectrum", "discrete", "--nu", "1",
                  "--r", "1e-20,1e-50"],
    "tsirelson-l": ["tsirelson", "--spectrum", "continuous", "--nu", "2",
                    "--r", "1e-10,0.01", "--l", "5", "--convention", "paper-2pi",
                    "--variant", "rigorous-grid-count"],
    "entropy": ["entropy", "--nu", "1", "--K", "4", "--eps", "0.5,0.3"],
    "kl-translate": ["kl-translate", "--input", "phi.csv", "--lam", "2.5"],
    "g-certify": ["g-certify", "--gamma", "0.5", "--t-max", "1000"],
    "scaling": ["scaling", "--input", "phi.csv", "--c", "0.5"],
    "fit": ["fit", "--input", "phi.csv", "--beta", "fixed:0.5"],
    "problem5": ["problem5", "--alpha", "2", "--r", "1e-10,1e-6"],
}


@pytest.mark.parametrize("argv", ROUNDTRIP.values(), ids=ROUNDTRIP.keys())
def test_manifest_rerun_roundtrip(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.csv").write_text(
        "r,phi\n1e-15,357.8\n1e-9,128.8\n1e-6,57.2\n1e-4,25.4\n")
    assert run(argv + ["--out", "a"]) == 0
    manifest = json.loads(read("a/manifest.json"))
    manifest["params"]["out"] = "b"
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert run(["rerun", "m.json"]) == 0
    assert json.loads(read("b/manifest.json")) == manifest
    results = sorted(os.listdir("a"))
    assert sorted(os.listdir("b")) == results
    for name in results:
        if name != "manifest.json":
            assert read(f"a/{name}") == read(f"b/{name}"), name


def test_continuous_rerun_with_cold_caches(tmp_path, monkeypatch):
    # the rerun builds the path's factor afresh, as a rerun in a new process
    # does, and writes the same bytes
    monkeypatch.chdir(tmp_path)
    assert run(ROUNDTRIP["simulate-continuous"] + ["--out", "a"]) == 0
    manifest = json.loads(read("a/manifest.json"))
    manifest["params"]["out"] = "b"
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    caches = [f for f in vars(pathgen).values() if hasattr(f, "cache_clear")]
    assert pathgen._factor in caches
    for cache in caches:
        cache.cache_clear()
    assert run(["rerun", "m.json"]) == 0
    assert pathgen._factor.cache_info().misses == 1
    assert read("a/path.csv") == read("b/path.csv")


@pytest.mark.skipif(pathgen._blas_threads() is None,
                    reason="numpy bundles no OpenBLAS to pin")
def test_smallball_bytes_at_any_thread_count(tmp_path):
    # the same bytes at every --threads, whatever the BLAS thread count
    # before the run, which the run leaves as it found it
    get, put = pathgen._blas_threads()
    before = get()
    args = ["smallball", "--nu", "1", "--K", "45", "--norm", "sup",
            "--r", "0.8,1.2,2", "--n", "3000", "--grid", "1023", "--seed", "7"]
    outs = set()
    try:
        for blas in (1, 2):
            put(blas)
            expected = get()
            for threads in ("1", "2", "4"):
                out = tmp_path / f"{blas}-{threads}"
                assert run(args + ["--threads", threads, "--out", str(out)]) == 0
                assert get() == expected
                outs.add(read(out / "smallball.csv"))
    finally:
        put(before)
    assert len(outs) == 1


def test_tsirelson_asymptotic_via_cli(tmp_path):
    out = tmp_path / "t"
    assert run(["tsirelson", "--spectrum", "discrete", "--nu", "1",
                "--r", "1e-100", "--convention", "paper-2pi",
                "--variant", "paper-exponent", "--out", str(out)]) == 0
    row = read(out / "tsirelson.csv").strip().split("\n")[1].split(",")
    phi_lower = float(row[7])
    ratio = phi_lower / math.log(1e-100) ** 2
    assert ratio == pytest.approx(1.0 / (4.0 * math.pi), rel=0.05)


def test_l2_exact_at_large_contour_step(tmp_path):
    # the nu = 2, K = 27 contour steps near 7e7; it used to exit 1 with
    # "contour truncation did not converge"
    out = tmp_path / "l2"
    assert run(["l2-exact", "--nu", "2", "--K", "27",
                "--r", "1.2861081668351373e-4", "--out", str(out)]) == 0
    assert l2_phi(out) == pytest.approx(57.72628461187268, rel=1e-12)


def test_l2_exact_deep_radius(tmp_path):
    # s0 is near 5.5e200 here, far beyond where s0 ** 2 overflows
    out = tmp_path / "l2"
    assert run(["l2-exact", "--nu", "1", "--K", "5", "--r", "1e-100",
                "--out", str(out)]) == 0
    x = 1e-200
    lam = [math.exp(-k) for k in range(1, 6)]
    lead = (-5.5 * math.log(x / 2.0) + math.lgamma(6.5)
            + sum(math.log(v) for v in lam))
    assert l2_phi(out) == pytest.approx(lead, rel=1e-12)


def test_l2_exact_near_one(tmp_path):
    # p = 1 - 1.08e-6: the vertical-line contour could not bound its tail
    # here and exited 1; phi is the 40-digit mpmath value
    out = tmp_path / "l2"
    assert run(["l2-exact", "--nu", "1", "--K", "2", "--r", "5",
                "--out", str(out)]) == 0
    assert l2_phi(out) == pytest.approx(1.0800625733796997e-06, rel=1e-13,
                                        abs=0.0)


def test_l2_exact_overflowing_r_squared_exits_1(tmp_path, capsys):
    # r^2 = inf used to end in a ValueError traceback from the saddle search
    assert run(["l2-exact", "--nu", "1", "--K", "2", "--r", "1e200",
                "--out", str(tmp_path / "l2")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("K", ["0", "1", "5"])
def test_l2_exact_subnormal_r_squared_exits_1(tmp_path, capsys, K):
    assert run(["l2-exact", "--nu", "1", "--K", K, "--r", "1e-160",
                "--out", str(tmp_path / "l2")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")


@pytest.mark.parametrize("nu, K", [("2", "28"), ("2", "40"), ("1", "746")])
def test_l2_exact_past_underflowing_atoms(tmp_path, nu, K):
    # an atom mass of 0 used to end in "weights must be positive"
    out = tmp_path / "l2"
    assert run(["l2-exact", "--nu", nu, "--K", K, "--r", "0.5,3",
                "--out", str(out)]) == 0
    assert len(read(out / "l2_exact.csv").splitlines()) == 3


def test_manifest_with_format_reruns_identically(tmp_path):
    # manifests written while --format existed still carry it, and those
    # written while every command took --threads carry threads
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["simulate", "--spectrum", "discrete", "--nu", "1", "--K", "20",
                "--n-points", "64", "--seed", "5", "--out", str(out1)]) == 0
    manifest = json.loads(read(out1 / "manifest.json"))
    assert "format" not in manifest["params"]
    assert "threads" not in manifest["params"]
    manifest["params"].update(format="csv", threads=1, out=str(out2))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    assert run(["rerun", str(mpath)]) == 0
    assert read(out1 / "path.csv") == read(out2 / "path.csv")
    assert json.loads(read(out2 / "manifest.json")) == manifest


def test_manifest_key_prefixing_a_flag_sets_nothing(tmp_path, monkeypatch):
    # "gam" is no flag: it is kept as given and must not set --gamma
    monkeypatch.chdir(tmp_path)
    assert run(["g-certify", "--gamma", "0.5", "--t-max", "100",
                "--out", "a"]) == 0
    manifest = json.loads(read("a/manifest.json"))
    manifest["params"].update(out="b", gam=0.3)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert run(["rerun", "m.json"]) == 0
    assert json.loads(read("b/manifest.json")) == manifest
    assert read("a/g_certify.json") == read("b/g_certify.json")


def exit_code(argv):
    try:
        return run(argv)
    except SystemExit as e:  # argparse rejects malformed flags this way
        return e.code


@pytest.mark.parametrize("argv", [
    ["rerun"],
    ["rerun", "missing.json"],
    ["l2-exact", "--nu", "1", "--r", "1", "--out", "o", "--config"],
    ["l2-exact", "--nu", "1", "--r", "1", "--out", "o", "--config", "missing.cfg"],
    ["l2-exact", "--nu", "1", "--r", "a,b", "--out", "o"],
    ["fit", "--input", "missing.csv", "--out", "o"],
    ["fit", "--input", "empty.csv", "--out", "o"],
    ["scaling", "--input", "empty.csv", "--c", "0.5", "--out", "o"],
    ["fit", "--input", "bad.csv", "--out", "o"],
    ["kl-translate", "--input", "bad.csv", "--out", "o"],
    ["fit", "--input", "ok.csv", "--beta", "fixed", "--out", "o"],
    ["fit", "--input", "ok.csv", "--beta", "fixed:x", "--out", "o"],
    ["fit", "--input", "ok.csv", "--beta", "foo:1", "--out", "o"],
    ["kl-translate", "--input", "semi.csv", "--out", "o"],
    ["scaling", "--input", "semi.csv", "--c", "0.5", "--out", "o"],
    ["scaling", "--input", "wide.csv", "--c", "0.5", "--out", "o"],
    ["kl-translate", "--input", "wide.csv", "--out", "o"],
    ["fit", "--input", "wide.csv", "--out", "o"],
    # --threads 0 used to be accepted and recorded; only smallball takes it
    ["smallball", "--nu", "1", "--norm", "sup", "--r", "1", "--threads", "0",
     "--out", "o"],
    ["smallball", "--nu", "1", "--norm", "sup", "--r", "1", "--threads", "-1",
     "--out", "o"],
    ["l2-exact", "--nu", "1", "--r", "1", "--threads", "1", "--out", "o"],
    # non-finite values used to reach the results: fit wrote NaN into
    # fit.json, which is no JSON, and kl-translate and scaling nan rows
    ["fit", "--input", "nan.csv", "--out", "o"],
    ["kl-translate", "--input", "nan.csv", "--out", "o"],
    ["scaling", "--input", "nan.csv", "--c", "0.5", "--out", "o"],
    ["fit", "--input", "inf.csv", "--out", "o"],
    ["kl-translate", "--input", "inf.csv", "--out", "o"],
    ["scaling", "--input", "inf.csv", "--c", "0.5", "--out", "o"],
])
def test_usage_errors_exit_2_without_output(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    inputs = {"empty.csv": "", "bad.csv": "r,phi\n1e-5,abc\n",
              "nan.csv": "r,phi\n1e-15,357.8\n0.01,nan\n",
              "inf.csv": "r,phi\n1e-15,357.8\n0.01,inf\n",
              "semi.csv": "r;phi\n1e-5;3.0\n",
              "wide.csv": "epsilon,lower,upper\n0.5,0.69,17.8\n",
              "ok.csv": "r,phi\n1e-5,3.0\n1e-10,9.0\n1e-20,25.0\n"}
    for name, body in inputs.items():
        (tmp_path / name).write_text(body)
    assert exit_code(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("argv", [
    ["l2-exact", "--nu", "1", "--r"],
    ["smallball", "--nu", "1", "--norm", "sup", "--r"],
    ["tsirelson", "--spectrum", "discrete", "--nu", "1", "--r"],
    ["problem5", "--alpha", "2", "--r"],
    ["entropy", "--nu", "1", "--eps"],
], ids=["l2-exact", "smallball", "tsirelson", "problem5", "entropy"])
@pytest.mark.parametrize("numbers", ["", ","], ids=["empty", "comma"])
def test_empty_number_list_exits_2_without_output(tmp_path, monkeypatch,
                                                  capsys, argv, numbers):
    # each used to exit 0 and write a result with only its header row
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv + [numbers, "--out", "o"]) == 2
    assert "expected at least one number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


COMMON = {"out": "o", "seed": 0}
SMALLBALL = {**COMMON, "spectrum": "discrete", "nu": 1.0, "K": 4, "norm": "sup",
             "r": [1.0], "n": 100, "grid": 16, "threads": 1}


@pytest.mark.parametrize("manifest", [
    {"command": "bogus", "params": {"out": "o"}},
    {"command": "entropy", "params": {"nu": 1.0, "K": 1, "eps": [0.5]}},
    {"command": "entropy", "params": {"out": "o"}},
    # values that the flags of the command reject
    {"command": "fit", "params": {**COMMON, "input": "../ok.csv",
                                  "beta": "fixed"}},
    {"command": "l2-exact", "params": {**COMMON, "nu": 1.0, "K": 4,
                                       "r": "abc"}},
    {"command": "smallball", "params": {**SMALLBALL, "spectrum": "continuous"}},
    {"command": "tsirelson", "params": {
        **COMMON, "spectrum": "discrete", "nu": 1.0, "r": [1e-5], "l": None,
        "convention": "bogus", "variant": "paper-exponent"}},
    {"command": "l2-exact", "params": {**COMMON, "nu": 1.0, "K": 4.5,
                                       "r": [1.0]}},
    {"command": "smallball", "params": {**SMALLBALL, "threads": 0}},
    {"command": "smallball", "params": {**SMALLBALL, "threads": -1}},
    # a manifest must name a command, not an option or another rerun
    {"command": "-h", "params": {"out": "o"}},
    {"command": "rerun", "params": {"out": "o"}},
])
def test_bad_manifest_exits_2_without_output(tmp_path, monkeypatch, manifest):
    (tmp_path / "ok.csv").write_text("r,phi\n1e-5,3.0\n1e-10,9.0\n")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    assert exit_code(["rerun", "manifest.json"]) == 2
    assert [p.name for p in run_dir.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("manifest", [[1], {"command": "entropy",
                                             "params": [1, 2]}])
def test_malformed_manifest_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                             manifest):
    # a list manifest ended in a TypeError, a list of params in an
    # AttributeError, both as tracebacks
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert run(["rerun", "manifest.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["tsirelson", "--bogus", "1"])
    assert e.value.code == 2


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nu=1\nK=10\nr=0.5\nseed=3\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["l2-exact", "--config", str(cfgfile), "--out", str(out1)]) == 0
    # explicit flag overrides the config value
    assert run(["l2-exact", "--config", str(cfgfile), "--K", "40",
                "--out", str(out2)]) == 0
    m1 = json.loads(read(out1 / "manifest.json"))
    m2 = json.loads(read(out2 / "manifest.json"))
    assert m1["params"]["K"] == 10
    assert m2["params"]["K"] == 40


def test_config_equals_form_applies_the_file(tmp_path):
    # --config=FILE used to be parsed and then ignored: the run took K = 40
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("K=10\n")
    out = tmp_path / "a"
    assert run(["l2-exact", "--nu", "1", "--r", "0.5", f"--config={cfgfile}",
                "--out", str(out)]) == 0
    assert json.loads(read(out / "manifest.json"))["params"]["K"] == 10


def test_simulate_path_csv(tmp_path):
    out = tmp_path / "s"
    assert run(["simulate", "--spectrum", "discrete", "--nu", "1",
                "--K", "20", "--n-points", "64", "--seed", "5",
                "--out", str(out)]) == 0
    lines = read(out / "path.csv").strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 65


def test_entropy_and_scaling_pipeline(tmp_path):
    out1 = tmp_path / "e"
    assert run(["entropy", "--nu", "1", "--K", "4", "--eps", "0.5,0.3",
                "--out", str(out1)]) == 0
    lines = read(out1 / "entropy.csv").strip().split("\n")
    assert len(lines) == 3
    # feed upper curve into the scaling patch
    hcsv = tmp_path / "h.csv"
    rows = [ln.split(",")[:3] for ln in lines[1:]]
    hcsv.write_text("epsilon,H\n" + "\n".join(f"{r[0]},{r[2]}" for r in rows))
    out2 = tmp_path / "sc"
    assert run(["scaling", "--input", str(hcsv), "--c", "0.5",
                "--out", str(out2)]) == 0
    got = read(out2 / "scaling.csv").strip().split("\n")[1:]
    for src, dst in zip(rows, got):
        eps, H = float(src[0]), float(src[2])
        x, h2 = (float(v) for v in dst.split(","))
        assert x == pytest.approx(2 * eps)
        assert h2 == pytest.approx(2 * H)


def test_entropy_below_the_old_dimension_cap(tmp_path):
    # eps 0.1 and 0.01 keep 16 and 17 coordinates at K = 8; a cap of 14 once
    # refused them, though the counter falls back to the product by itself
    out = tmp_path / "e"
    assert run(["entropy", "--nu", "1", "--K", "8", "--eps", "0.5,0.1,0.01",
                "--out", str(out)]) == 0
    rows = [line.split(",") for line in read(out / "entropy.csv").splitlines()[1:]]
    assert [row[4] for row in rows] == ["lattice-covering", "lattice-covering",
                                        "coordinate-product"]
    assert [round(float(row[2]), 2) for row in rows[1:]] == [48.66, 96.26]
    assert all(float(row[1]) <= float(row[2]) for row in rows)


def test_fit_and_problem5(tmp_path):
    pcsv = tmp_path / "phi.csv"
    rows = [f"{r},{abs(math.log(r)) ** 2}"
            for r in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4)]
    # a blank line between the points is skipped
    pcsv.write_text("r,phi\n" + "\n".join(rows[:2]) + "\n\n" + "\n".join(rows[2:]))
    out = tmp_path / "f"
    assert run(["fit", "--input", str(pcsv), "--beta", "fixed:0",
                "--out", str(out)]) == 0
    res = json.loads(read(out / "fit.json"))
    assert res["n_points"] == 5
    assert res["gamma"] == pytest.approx(2.0, abs=1e-6)
    out5 = tmp_path / "p5"
    assert run(["problem5", "--alpha", "2", "--r", "1e-10,1e-6",
                "--out", str(out5)]) == 0
    lines = read(out5 / "problem5.csv").strip().split("\n")
    assert lines[0] == "r,phi_lower,phi_upper"
    assert len(lines) == 3


def test_g_certify_json(tmp_path):
    out = tmp_path / "g"
    assert run(["g-certify", "--gamma", "0.5", "--t-max", "1000",
                "--out", str(out)]) == 0
    res = json.loads(read(out / "g_certify.json"))
    assert res["theta_G"] > 0
    assert res["bounded_by_one"]


def test_g_certify_near_gamma_one(tmp_path):
    # a 10-point window at gamma near 1 has no envelope maxima to fit, and
    # the closed-form certificate needs none
    out = tmp_path / "g"
    assert run(["g-certify", "--gamma", "0.999999", "--t-max", "20",
                "--out", str(out)]) == 0
    res = json.loads(read(out / "g_certify.json"))
    assert res["C_G"] > 0 and res["decay_exponent"] == 1.0 / (1.0 + 0.999999)


def test_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLDEV_SEED", "123")
    out = tmp_path / "x"
    assert run(["l2-exact", "--nu", "1", "--K", "4", "--r", "1.0",
                "--out", str(out)]) == 0
    m = json.loads(read(out / "manifest.json"))
    assert m["params"]["seed"] == 123


def test_env_seed_is_read_at_each_run(tmp_path, monkeypatch):
    # the parser is built once, so the seed default cannot live in it
    args = ["l2-exact", "--nu", "1", "--K", "4", "--r", "1.0"]
    seeds = []
    for env in ("123", "456"):
        monkeypatch.setenv("SMALLDEV_SEED", env)
        out = tmp_path / env
        assert run(args + ["--out", str(out)]) == 0
        seeds.append(json.loads(read(out / "manifest.json"))["params"]["seed"])
    monkeypatch.delenv("SMALLDEV_SEED")
    assert run(args + ["--out", str(tmp_path / "unset")]) == 0
    seeds.append(json.loads(read(tmp_path / "unset" / "manifest.json"))
                 ["params"]["seed"])
    # an explicit --seed wins over the environment
    monkeypatch.setenv("SMALLDEV_SEED", "456")
    assert run(args + ["--seed", "7", "--out", str(tmp_path / "flag")]) == 0
    seeds.append(json.loads(read(tmp_path / "flag" / "manifest.json"))
                 ["params"]["seed"])
    assert seeds == [123, 456, 0, 7]


@pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]])
def test_bad_env_seed_exits_2(tmp_path, monkeypatch, capsys, seed_flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SMALLDEV_SEED", "abc")
    assert run(["l2-exact", "--nu", "1", "--r", "1", "--out", "o"]
               + seed_flag) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once(tmp_path):
    cli._build_parser.cache_clear()
    for name in ("a", "b"):
        assert run(["l2-exact", "--nu", "1", "--K", "4", "--r", "1.0",
                    "--out", str(tmp_path / name)]) == 0
    manifest = json.loads(read(tmp_path / "a" / "manifest.json"))
    manifest["params"]["out"] = str(tmp_path / "c")
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert run(["rerun", str(tmp_path / "m.json")]) == 0
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("t_max", ["0", "-5", "nan", "5", "inf"])
def test_g_certify_bad_t_max_exits_1(tmp_path, capsys, t_max):
    assert run(["g-certify", "--gamma", "0.5", "--t-max", t_max,
                "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: t_max must be finite and above FIT_T_MIN = 10")


BAD_INPUT = {
    "l2-exact-nu-0": (["l2-exact", "--nu", "0", "--K", "4", "--r", "1"],
                      "finite nu > 0 and K >= 0"),
    "l2-exact-K-negative": (["l2-exact", "--nu", "1", "--K", "-3", "--r", "1"],
                            "finite nu > 0 and K >= 0"),
    "l2-exact-nu-negative": (["l2-exact", "--nu", "-1", "--K", "4", "--r", "1"],
                             "finite nu > 0 and K >= 0"),
    "l2-exact-nu-nan": (["l2-exact", "--nu", "nan", "--K", "4", "--r", "1"],
                        "finite nu > 0 and K >= 0"),
    "entropy-nu-nan": (["entropy", "--nu", "nan", "--K", "4", "--eps", "0.5"],
                       "finite nu > 0 and K >= 0"),
    "entropy-eps-nan": (["entropy", "--nu", "1", "--K", "4", "--eps", "nan"],
                        "epsilon must be positive"),
    "tsirelson-nu-0": (["tsirelson", "--spectrum", "discrete", "--nu", "0",
                        "--r", "0.1"], "nu must be finite and positive"),
    "tsirelson-nu-negative": (["tsirelson", "--spectrum", "discrete", "--nu",
                               "-1", "--r", "0.1"],
                              "nu must be finite and positive"),
    "tsirelson-nu-nan": (["tsirelson", "--spectrum", "discrete", "--nu", "nan",
                          "--r", "0.1"], "nu must be finite and positive"),
    "tsirelson-l-inf": (["tsirelson", "--spectrum", "continuous", "--nu", "1",
                         "--r", "0.1", "--l", "inf"], "l must be finite and >= 1"),
    "simulate-path-index-negative": (["simulate", "--spectrum", "discrete",
                                      "--nu", "1", "--K", "4", "--n-points",
                                      "8", "--path-index", "-1"],
                                     "path index must be >= 0"),
    "smallball-r-nan": (["smallball", "--nu", "1", "--K", "4", "--norm", "sup",
                         "--r", "nan", "--n", "200", "--grid", "16"],
                        "radii must be positive"),
    "simulate-continuous-nu-nan": (["simulate", "--spectrum", "continuous",
                                    "--nu", "nan", "--n-points", "8"],
                                   "requires finite nu > 0"),
    "problem5-alpha-nan": (["problem5", "--alpha", "nan", "--r", "0.1"],
                           "alpha must exceed 1"),
    "simulate-discrete-nu-tiny": (["simulate", "--spectrum", "discrete",
                                   "--nu", "0.001", "--n-points", "8"],
                                  "exceed 2^22"),
    "smallball-nu-tiny": (["smallball", "--nu", "0.001", "--norm", "sup",
                           "--r", "1", "--n", "200", "--grid", "16"],
                          "exceed 2^22"),
    "simulate-continuous-nu-tiny": (["simulate", "--spectrum", "continuous",
                                     "--nu", "0.001", "--n-points", "4"],
                                    "past the float range"),
    "simulate-continuous-tail-point-past-float": (["simulate", "--spectrum",
                                                   "continuous", "--nu", "0.006",
                                                   "--n-points", "4"],
                                                  "the tail point of mass 1e-10 is "
                                                  "past the float range"),
    "simulate-continuous-nu-0.3": (["simulate", "--spectrum", "continuous",
                                    "--nu", "0.3", "--n-points", "8"],
                                   "continuous-nu (nu 0.3) over span 1: no sound "
                                   "Gauss-Legendre rule within 65536 cos/sin pairs"),
    "simulate-seed-negative": (["simulate", "--spectrum", "discrete", "--nu", "1",
                                "--K", "4", "--n-points", "8", "--seed", "-1"],
                               "seed must be in [0, 2^64), got -1"),
    "simulate-seed-2-to-64": (["simulate", "--spectrum", "continuous", "--nu", "1",
                               "--n-points", "8", "--seed", "18446744073709551616"],
                              "seed must be in [0, 2^64)"),
    "smallball-seed-negative": (["smallball", "--nu", "1", "--K", "4", "--norm", "sup",
                                 "--r", "1", "--n", "200", "--grid", "16",
                                 "--seed", "-1"], "seed must be in [0, 2^64)"),
    # the deterministic commands used to record any seed in the manifest
    "l2-exact-seed-negative": (["l2-exact", "--nu", "1", "--K", "2", "--r", "1",
                                "--seed", "-1"], "seed must be in [0, 2^64), got -1"),
    "tsirelson-seed-2-to-64": (["tsirelson", "--spectrum", "discrete", "--nu", "1",
                                "--r", "0.01", "--seed", "18446744073709551616"],
                               "seed must be in [0, 2^64)"),
    "fit-seed-negative": (["fit", "--input", "phi.csv", "--seed", "-1"],
                          "seed must be in [0, 2^64)"),
    "simulate-discrete-block-past-2-to-64": (["simulate", "--spectrum", "discrete",
                                              "--nu", "1", "--K", "4", "--n-points",
                                              "8", "--path-index",
                                              "100000000000000000000000"],
                                             "is past 2^64"),
    "simulate-continuous-block-past-2-to-64": (["simulate", "--spectrum",
                                                "continuous", "--nu", "1",
                                                "--n-points", "8", "--path-index",
                                                "100000000000000000000000"],
                                               "is past 2^64"),
    "entropy-eps-tiny": (["entropy", "--nu", "1", "--K", "3", "--eps", "1e-320"],
                         "past the float range"),
    "g-certify-gamma-below-resolution": (["g-certify", "--gamma", "1e-300"],
                                         "1 + gamma > 1"),
    "tsirelson-window-past-2-to-32": (["tsirelson", "--spectrum", "discrete",
                                       "--nu", "0.2", "--r", "1e-100"],
                                      "still positive at l = 4294967296"),
    "tsirelson-rigorous-window-past-2-to-32": (["tsirelson", "--spectrum",
                                                "discrete", "--nu", "0.01",
                                                "--r", "1e-300", "--variant",
                                                "rigorous-grid-count"],
                                               "still positive at l = 4294967296"),
    "tsirelson-continuous-period-1": (["tsirelson", "--spectrum", "continuous",
                                       "--nu", "1", "--r", "0.01",
                                       "--convention", "period-1"],
                                      "use convention paper-2pi"),
    "problem5-alpha-inf": (["problem5", "--alpha", "inf", "--r", "0.1"],
                           "alpha must exceed 1 and be finite"),
    "kl-translate-lam-nan": (["kl-translate", "--input", "phi.csv", "--lam",
                              "nan"], "lambda must be finite and positive"),
    "kl-translate-lam-inf": (["kl-translate", "--input", "phi.csv", "--lam",
                              "inf"], "lambda must be finite and positive"),
    "fit-beta-fixed-nan": (["fit", "--input", "phi.csv", "--beta", "fixed:nan"],
                           "fixed beta must be finite"),
    "fit-beta-fixed-inf": (["fit", "--input", "phi.csv", "--beta", "fixed:inf"],
                           "fixed beta must be finite"),
    "simulate-t-max-inf": (["simulate", "--spectrum", "continuous", "--nu", "1",
                            "--n-points", "8", "--t-max", "inf"],
                           "finite t_min < t_max with a finite span"),
    "simulate-discrete-phases-past-float": (["simulate", "--spectrum",
                                             "discrete", "--nu", "1", "--K",
                                             "4", "--n-points", "8",
                                             "--t-max", "1e308"],
                                            "past the float range"),
    "simulate-continuous-phases-past-float": (["simulate", "--spectrum",
                                               "continuous", "--nu", "1",
                                               "--n-points", "8",
                                               "--t-max", "1e308"],
                                              "past the float range"),
    "problem5-shapes-past-float": (["problem5", "--alpha", "1.01", "--r",
                                    "1e-300,1e-100,0.1"],
                                   "past the float range"),
    "entropy-eps-inf": (["entropy", "--nu", "1", "--eps", "inf"],
                        "epsilon must be positive and finite"),
    "smallball-n-past-memory": (["smallball", "--nu", "1", "--K", "4", "--norm",
                                 "sup", "--r", "1", "--n", "1000000000000000",
                                 "--grid", "16", "--threads", "2"],
                                "1000000000000000 norms do not fit in memory"),
    "l2-exact-r-0": (["l2-exact", "--nu", "1", "--r", "0"], "r must be positive"),
    "scaling-c-2": (["scaling", "--input", "phi.csv", "--c", "2"],
                    "c must be in (0, 1]"),
    "tsirelson-r-2": (["tsirelson", "--spectrum", "discrete", "--nu", "1",
                       "--r", "2"], "bound_opt requires 0 < r < 1"),
    "g-certify-t-max-past-depth-cap": (["g-certify", "--gamma", "0.5",
                                        "--t-max", "1e308"],
                                       "depth cap 2000000 cannot certify"),
    # the (2K + 1)-square L2 Gram, 298 GiB here, used to end in a MemoryError
    "smallball-l2-gram-past-bound": (["smallball", "--nu", "1", "--K", "100000",
                                      "--norm", "l2", "--r", "1", "--n", "200",
                                      "--grid", "16"],
                                     "200001 x 200001 Fourier basis or Gram passes"),
    # a 512 x (2K + 1) block of normals (0.3 GiB here, 30.5 GiB at K = 4e6)
    # used to be drawn on a grid too small for the basis check
    "smallball-normals-block-past-bound": (["smallball", "--nu", "1", "--K",
                                            "40000", "--norm", "sup", "--r", "1",
                                            "--n", "100", "--grid", "2"],
                                           "512 x 80001 Fourier basis or Gram passes"),
    "simulate-normals-block-past-bound": (["simulate", "--spectrum", "discrete",
                                           "--nu", "1", "--K", "40000",
                                           "--n-points", "2"],
                                          "512 x 80001 Fourier basis or Gram passes"),
    # so did a grid of 10^13 points, whose times alone take 73 TiB
    "simulate-n-points-past-bound": (["simulate", "--spectrum", "discrete", "--nu",
                                      "1", "--K", "0", "--n-points",
                                      "10000000000000"], "grid points pass 33554432"),
    "smallball-grid-past-bound": (["smallball", "--nu", "1", "--K", "0", "--norm",
                                   "sup", "--r", "1", "--n", "200", "--grid",
                                   "10000000000000"], "grid points pass 33554432"),
    # 2 l + 1 = inf used to be written as sigma2 nan
    "tsirelson-discrete-l-grid-past-float": (["tsirelson", "--spectrum", "discrete",
                                              "--nu", "1", "--r", "0.01", "--l",
                                              "1e308"], "with 2 l + 1 finite"),
    "tsirelson-continuous-l-grid-past-float": (["tsirelson", "--spectrum",
                                                "continuous", "--nu", "1", "--r",
                                                "0.01", "--l", "1e308"],
                                               "with 2 l + 1 finite"),
    # results past the float range used to be written as inf, or ended in
    # an OverflowError (scaling at c 1e-320)
    "scaling-c-1e-320": (["scaling", "--input", "phi.csv", "--c", "1e-320"],
                         "past the float range"),
    "scaling-c-1e-308": (["scaling", "--input", "phi.csv", "--c", "1e-308"],
                         "past the float range"),
    "kl-translate-lam-1e308": (["kl-translate", "--input", "phi.csv", "--lam",
                                "1e308"], "past the float range"),
    "kl-translate-lam-1e-320": (["kl-translate", "--input", "phi.csv", "--lam",
                                 "1e-320"], "past the float range"),
    "fit-beta-fixed-1e308": (["fit", "--input", "phi.csv", "--beta", "fixed:1e308"],
                             "past the float range"),
    # an infinite radius used to be written as r = inf
    "smallball-r-inf": (["smallball", "--nu", "1", "--K", "4", "--norm", "sup",
                         "--r", "inf", "--n", "200", "--grid", "16"],
                        "radii must be positive and finite"),
    "tsirelson-l-r-inf": (["tsirelson", "--spectrum", "discrete", "--nu", "1",
                           "--r", "inf", "--l", "2"], "r must be positive and finite"),
}


@pytest.mark.parametrize("argv, message", BAD_INPUT.values(),
                         ids=BAD_INPUT.keys())
def test_bad_input_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys,
                                               argv, message):
    # each of these used to exit 0 with a number or NaN, exit 1 with a
    # misleading message, end in a traceback, or (the window) run for hours
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.csv").write_text("r,phi\n1e-15,357.8\n1e-9,128.8\n1e-6,57.2\n")
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
    # no output directory either: it is made only for a run that succeeds
    assert not (tmp_path / "o").exists()


def test_env_seed_outside_64_bits_exits_1(tmp_path, monkeypatch, capsys):
    # SMALLDEV_SEED is held to the same rule as --seed, on every command
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SMALLDEV_SEED", "-1")
    assert run(["g-certify", "--gamma", "0.5", "--t-max", "20", "--out", "o"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be in [0, 2^64), got -1"]
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setenv("SMALLDEV_SEED", str(2 ** 64 - 1))
    assert run(["g-certify", "--gamma", "0.5", "--t-max", "20", "--out", "o"]) == 0


@pytest.mark.parametrize("argv", [["fit"], ["kl-translate"], ["scaling", "--c", "0.5"]])
def test_input_is_read_once(tmp_path, monkeypatch, argv):
    # each run, and each rerun, opens its --input file once: a pipe has no
    # second reading
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.csv").write_text("r,phi\n1e-15,357.8\n1e-9,128.8\n1e-6,57.2\n")
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert run(argv + ["--input", "phi.csv", "--out", "a"]) == 0
    assert opened.count("phi.csv") == 1
    opened.clear()
    assert run(["rerun", "a/manifest.json"]) == 0
    assert opened.count("phi.csv") == 1


def test_input_from_a_pipe(tmp_path):
    # the input used to be read twice, so a pipe's second read found no
    # header line and ended in a traceback
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "smalldev.cli", "kl-translate", "--input",
         "/dev/stdin", "--out", str(tmp_path / "o")],
        input="r,phi\n1e-5,3.0\n1e-9,9.0\n", capture_output=True, text=True,
        env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(read(tmp_path / "o" / "kl_translate.csv").splitlines()) == 3


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each command of the README's `sh` block of smalldev
    commands, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    block = next(b for b in blocks if b.startswith("smalldev "))
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def test_readme_examples_run(tmp_path, monkeypatch):
    # a renamed flag or a changed default breaks the documented commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.csv").write_text(
        "r,phi\n" + "".join(f"1e-{e},{0.08 * (e * math.log(10)) ** 2!r}\n"
                            for e in (3, 6, 10, 20, 40, 80)))
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"simulate", "tsirelson", "fit", "rerun"}
    for argv in commands:
        assert run(argv) == 0, argv



#: one small run of each command, and of each spectrum or norm that takes
#: another code path, whose numeric flags `test_numeric_flag_sweep` varies
SWEEP_BASE = {
    "simulate-discrete": ["simulate", "--spectrum", "discrete", "--nu", "1",
                          "--K", "4", "--n-points", "8"],
    "simulate-continuous": ["simulate", "--spectrum", "continuous", "--nu", "1",
                            "--n-points", "8"],
    "smallball-sup": ["smallball", "--nu", "1", "--K", "4", "--norm", "sup",
                      "--r", "1", "--n", "100", "--grid", "16"],
    "smallball-l2": ["smallball", "--nu", "1", "--K", "4", "--norm", "l2",
                     "--r", "1", "--n", "100", "--grid", "16"],
    "l2-exact": ["l2-exact", "--nu", "1", "--K", "4", "--r", "1"],
    "tsirelson": ["tsirelson", "--spectrum", "discrete", "--nu", "1",
                  "--r", "0.01"],
    "tsirelson-l": ["tsirelson", "--spectrum", "continuous", "--nu", "1",
                    "--r", "0.01", "--l", "2", "--variant", "rigorous-grid-count"],
    "entropy": ["entropy", "--nu", "1", "--K", "4", "--eps", "0.5"],
    "kl-translate": ["kl-translate", "--input", "phi.csv"],
    "g-certify": ["g-certify", "--gamma", "0.5", "--t-max", "100"],
    "scaling": ["scaling", "--input", "phi.csv", "--c", "0.5"],
    "fit": ["fit", "--input", "phi.csv"],
    "problem5": ["problem5", "--alpha", "2", "--r", "0.01"],
}

SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-320"]

#: result columns that may hold inf: phi is inf where no path hits
NONFINITE_COLUMNS = {("smallball.csv", "phi_hat"), ("smallball.csv", "phi_hi")}


def numeric_flags(command: str) -> list[str]:
    """The flags of `command` whose values are numbers."""
    ap = cli._build_parser()
    sub = next(a for a in ap._actions if a.choices and command in a.choices)
    types = (int, float, cli.float_list, cli.positive_int)
    return [a.option_strings[0] for a in sub.choices[command]._actions
            if a.type in types]


def nonfinite_outputs(out: pathlib.Path) -> list[str]:
    """Each nan or inf that a run wrote, as file: column."""
    found = []
    for path in out.iterdir():
        if path.suffix == ".json":  # NaN and Infinity are no JSON
            json.loads(path.read_text(),
                       parse_constant=lambda c: found.append(f"{path.name}: {c}"))
            continue
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        found += [f"{path.name}: {name}" for row in rows
                  for name, cell in zip(header, row)
                  if cell in ("nan", "inf", "-inf")
                  and (path.name, name) not in NONFINITE_COLUMNS]
    return found


@pytest.mark.parametrize("base", SWEEP_BASE.values(), ids=SWEEP_BASE.keys())
def test_numeric_flag_sweep(tmp_path, monkeypatch, base):
    # every numeric flag at each edge value exits 0, 1 or 2 and raises
    # nothing (RuntimeWarnings are errors here), and a run that exits 0
    # writes no nan or inf
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.csv").write_text("r,phi\n1e-15,357.8\n1e-9,128.8\n1e-6,57.2\n")
    runs = [base + [f"{flag}={value}"] for flag in numeric_flags(base[0])
            for value in SWEEP_VALUES]
    if base[0] == "fit":
        runs += [base + [f"--beta=fixed:{value}"] for value in SWEEP_VALUES]
    failures = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"o{i}"
        try:
            code = exit_code(argv + ["--out", str(out)])
        except Exception as exc:  # every escape is a failure
            failures.append(f"{shlex.join(argv)}: {exc!r}")
            continue
        if code not in (0, 1, 2):
            failures.append(f"{shlex.join(argv)}: exit {code}")
        elif code == 0 and nonfinite_outputs(out):
            failures.append(f"{shlex.join(argv)}: {nonfinite_outputs(out)}")
    assert failures == []


#: the sweep's base runs that `test_every_flag_changes_the_result` varies
#: flag by flag; tsirelson-l's continuous spectrum has one valid convention
FLAG_BASE = {name: argv for name, argv in SWEEP_BASE.items() if name != "tsirelson-l"}

#: a valid value of each flag other than the base run's (or its default)
OTHER_VALUE = {
    "--nu": "2", "--K": "5", "--n-points": "9", "--t-max": "2", "--path-index": "1",
    "--seed": "2", "--norm": "l2", "--r": "0.02", "--n": "101", "--grid": "17",
    "--threads": "2", "--l": "3", "--convention": "period-1",
    "--variant": "rigorous-grid-count", "--eps": "0.4", "--input": "psi.csv",
    "--lam": "3", "--gamma": "0.6", "--c": "0.25", "--beta": "fixed:0.5",
    "--alpha": "3",
}
#: other values by base name or by command, where the one above would not do
OTHER_VALUE_FOR = {
    ("simulate-discrete", "--spectrum"): "continuous",
    ("simulate-continuous", "--spectrum"): "discrete",
    ("smallball", "--spectrum"): "discrete",  # its one value, given explicitly
    ("smallball-l2", "--norm"): "sup",
    ("tsirelson", "--spectrum"): "continuous",
    ("g-certify", "--t-max"): "200",
}

#: the flags, by base name or by command, that change no result byte: the
#: README's list of those kept for old command lines and manifests, and
#: `smallball --threads`
INERT = {("smallball", "--spectrum"), ("smallball", "--threads"),
         ("simulate-continuous", "--K")} | {
    (name, "--seed") for name in ("l2-exact", "tsirelson", "entropy", "kl-translate",
                                  "g-certify", "scaling", "fit", "problem5")}


def declared_flags(command: str) -> list[str]:
    """Every flag of `command` that sets a parameter, but --out and --config."""
    ap = cli._build_parser()
    sub = next(a for a in ap._actions if a.choices and command in a.choices)
    return [a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "out", "config")]


def result_text(out: pathlib.Path) -> str:
    (name,) = [p.name for p in out.iterdir() if p.name != "manifest.json"]
    return read(out / name)


@pytest.mark.parametrize("name", FLAG_BASE.keys())
def test_every_flag_changes_the_result(tmp_path, monkeypatch, name):
    # a flag that is parsed but changes nothing is named in INERT, and the
    # README says so; every other flag changes the result file
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SMALLDEV_SEED", raising=False)
    (tmp_path / "phi.csv").write_text("r,phi\n1e-15,357.8\n1e-9,128.8\n1e-6,57.2\n")
    (tmp_path / "psi.csv").write_text("r,phi\n1e-15,300.1\n1e-9,110.2\n1e-6,50.3\n")
    base = FLAG_BASE[name]
    assert run(base + ["--out", "base"]) == 0
    want = result_text(tmp_path / "base")
    wrong = []
    for i, flag in enumerate(declared_flags(base[0])):
        keys = [(name, flag), (base[0], flag)]
        value = next((OTHER_VALUE_FOR[k] for k in keys if k in OTHER_VALUE_FOR),
                     None) or OTHER_VALUE[flag]
        argv = base + [f"{flag}={value}", "--out", f"o{i}"]
        assert run(argv) == 0, argv
        inert = any(k in INERT for k in keys)
        if (result_text(tmp_path / f"o{i}") == want) != inert:
            wrong.append(flag)
    assert wrong == []
