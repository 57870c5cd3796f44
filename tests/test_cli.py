import json
import math
import os

import pytest

from smalldev import cli


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path) as f:
        return f.read()


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
                    "--r", "1e-10,0.01", "--l", "5", "--convention", "period-1",
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
    row = read(out / "l2_exact.csv").strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(57.72628461187268, rel=1e-12)


def test_l2_exact_deep_radius(tmp_path):
    # s0 is near 5.5e200 here, far beyond where s0 ** 2 overflows
    out = tmp_path / "l2"
    assert run(["l2-exact", "--nu", "1", "--K", "5", "--r", "1e-100",
                "--out", str(out)]) == 0
    row = read(out / "l2_exact.csv").strip().split("\n")[1].split(",")
    x = 1e-200
    lam = [math.exp(-k) for k in range(1, 6)]
    lead = (-5.5 * math.log(x / 2.0) + math.lgamma(6.5)
            + sum(math.log(v) for v in lam))
    assert float(row[2]) == pytest.approx(lead, rel=1e-12)


def test_l2_exact_near_one(tmp_path):
    # p = 1 - 1.08e-6: the vertical-line contour could not bound its tail
    # here and exited 1; phi is the 40-digit mpmath value
    out = tmp_path / "l2"
    assert run(["l2-exact", "--nu", "1", "--K", "2", "--r", "5",
                "--out", str(out)]) == 0
    row = read(out / "l2_exact.csv").strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(1.0800625733796997e-06, rel=1e-13,
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


def test_manifest_with_format_reruns_identically(tmp_path):
    # manifests written while --format existed still carry it
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["simulate", "--spectrum", "discrete", "--nu", "1", "--K", "20",
                "--n-points", "64", "--seed", "5", "--out", str(out1)]) == 0
    manifest = json.loads(read(out1 / "manifest.json"))
    assert "format" not in manifest["params"]
    manifest["params"].update(format="csv", out=str(out2))
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
])
def test_usage_errors_exit_2_without_output(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    inputs = {"empty.csv": "", "bad.csv": "r,phi\n1e-5,abc\n",
              "semi.csv": "r;phi\n1e-5;3.0\n",
              "wide.csv": "epsilon,lower,upper\n0.5,0.69,17.8\n",
              "ok.csv": "r,phi\n1e-5,3.0\n1e-10,9.0\n1e-20,25.0\n"}
    for name, body in inputs.items():
        (tmp_path / name).write_text(body)
    assert exit_code(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


COMMON = {"out": "o", "seed": 0, "threads": 1}


@pytest.mark.parametrize("manifest", [
    {"command": "bogus", "params": {"out": "o"}},
    {"command": "entropy", "params": {"nu": 1.0, "K": 1, "eps": [0.5]}},
    {"command": "entropy", "params": {"out": "o"}},
    # values that the flags of the command reject
    {"command": "fit", "params": {**COMMON, "input": "../ok.csv",
                                  "beta": "fixed"}},
    {"command": "l2-exact", "params": {**COMMON, "nu": 1.0, "K": 4,
                                       "r": "abc"}},
    {"command": "smallball", "params": {
        **COMMON, "spectrum": "continuous", "nu": 1.0, "K": 4, "norm": "sup",
        "r": [1.0], "n": 100, "grid": 16}},
    {"command": "tsirelson", "params": {
        **COMMON, "spectrum": "discrete", "nu": 1.0, "r": [1e-5], "l": None,
        "convention": "bogus", "variant": "paper-exponent"}},
    {"command": "l2-exact", "params": {**COMMON, "nu": 1.0, "K": 4.5,
                                       "r": [1.0]}},
])
def test_bad_manifest_exits_2_without_output(tmp_path, monkeypatch, manifest):
    (tmp_path / "ok.csv").write_text("r,phi\n1e-5,3.0\n1e-10,9.0\n")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    assert exit_code(["rerun", "manifest.json"]) == 2
    assert [p.name for p in run_dir.iterdir()] == ["manifest.json"]


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


def test_fit_and_problem5(tmp_path):
    pcsv = tmp_path / "phi.csv"
    rows = [f"{r},{abs(math.log(r)) ** 2}"
            for r in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4)]
    pcsv.write_text("r,phi\n" + "\n".join(rows))
    out = tmp_path / "f"
    assert run(["fit", "--input", str(pcsv), "--beta", "fixed:0",
                "--out", str(out)]) == 0
    res = json.loads(read(out / "fit.json"))
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


def test_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLDEV_SEED", "123")
    out = tmp_path / "x"
    assert run(["l2-exact", "--nu", "1", "--K", "4", "--r", "1.0",
                "--out", str(out)]) == 0
    m = json.loads(read(out / "manifest.json"))
    assert m["params"]["seed"] == 123


@pytest.mark.parametrize("t_max", ["0", "-5", "nan", "5", "inf"])
def test_g_certify_bad_t_max_exits_1(tmp_path, capsys, t_max):
    assert run(["g-certify", "--gamma", "0.5", "--t-max", t_max,
                "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: need 0 < fit_t_min < t_max < inf")


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
}


@pytest.mark.parametrize("argv, message", BAD_INPUT.values(),
                         ids=BAD_INPUT.keys())
def test_bad_input_exits_1_with_one_error_line(tmp_path, capsys, argv, message):
    # each of these used to exit 0 with a number or NaN, exit 1 with a
    # misleading message, or end in a traceback
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
