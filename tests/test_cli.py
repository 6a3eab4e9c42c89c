"""Command-line interface: records, formats, determinism, error codes."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import pytest

from supportsize import (
    EstimatorConfig,
    Fingerprint,
    SweepRow,
    SweepSpec,
    degree_params,
    make_uniform,
    probe_sample_complexity,
    run_sweep,
    write_fingerprint_file,
)
from supportsize import sweep
from supportsize.chebyshev import MAX_DEGREE, g_table, shifted_coeffs
from supportsize.cli import main
from supportsize.theory import MAX_TV_CUTOFF
from supportsize.sweep import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_csv(capsys):
    argv = ("coeffs", "--k", "1e6", "--n", "200000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7  # degree 6 table
    assert float(rows[0]["a_j"]) == -1.0
    assert float(rows[0]["g_j"]) == 0.0
    signs = [1 if float(r["g_j"]) > 0 else -1 for r in rows[1:]]
    assert signs == [1, -1, 1, -1, 1, -1]
    # --format json writes the same table as JSON lines
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [list(rec) for rec in recs] == [["j", "a_j", "g_j"]] * len(rows)
    assert recs == [{"j": int(r["j"]), "a_j": float(r["a_j"]), "g_j": float(r["g_j"])}
                    for r in rows]


def test_coeffs_takes_the_shared_estimator_constants(tmp_path, capsys):
    argv = ("coeffs", "--k", "1e6", "--n", "200000", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--c0", "0.6", "--c1", "0.7", "--degree", "5")
    assert code == 0
    L, l, r = degree_params(1e6, 200000, EstimatorConfig(c0=0.6, c1=0.7, override_L=5))
    a, g = shifted_coeffs(L, l, r), g_table(L, l, r, 200000).g
    assert [json.loads(line) for line in out.splitlines()] == [
        {"j": j, "a_j": float(a[j]), "g_j": float(g[j])} for j in range(L + 1)]
    cfg = tmp_path / "c.conf"
    cfg.write_text("c0=0.6\nc1=0.7\ndegree=5\nt=2\n")  # coeffs has no t: the key is ignored
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--t", "2"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ArgumentError"


def _scipy_loaded_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    check = code + "\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + check],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy is loaded on first use, by the functions that call it, not by an import
    assert _scipy_loaded_after("import supportsize.cli") == []
    assert _scipy_loaded_after("import supportsize") == []


def test_scipy_is_loaded_only_by_the_functions_that_use_it():
    runs = """
import contextlib, io
from importlib.resources import files
from supportsize.cli import main
table = str(files("supportsize.data").joinpath("shakespeare_et_table1.txt"))
argvs = [["estimate", "--fingerprint", table, "--k", "1e5"],
         ["probe", "--family", "uniform:k=1000", "--epsilon", "0.3", "--trials", "5"],
         ["simulate", "--family", "uniform:k=1000", "--n-grid", "100,300", "--trials", "2",
          "--estimators", "plugin,wy,gt,cl1,cl2,gtoulmin"]]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
"""
    assert _scipy_loaded_after(runs) == []
    # each function that uses scipy loads it: et, the Poisson pmf of tv and the LP
    uses = runs + """
for argv in (["estimate", "--fingerprint", table, "--k", "1e5", "--estimator", "et"],
             ["theory", "approx", "--degree", "3", "--a", "1", "--b", "30"],
             ["theory", "tv", "--order", "3", "--lam", "10", "--scale", "0.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
import supportsize
assert supportsize.primal_value(2, 1.0, 10.0, 60) > 0
"""
    loaded = _scipy_loaded_after(uses)
    assert {"scipy.special", "scipy.optimize"} <= set(loaded)


def test_estimate_from_fingerprint_file(tmp_path, capsys):
    path = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 40, 2: 11, 3: 4, 9: 2}, n=92), path)
    code, out, _ = run_cli(capsys, "estimate", "--fingerprint", str(path), "--k", "5000")
    assert code == 0
    rec = json.loads(out)
    assert rec["estimator"] == "wy"
    assert rec["n"] == 92
    assert rec["k"] == 5000
    assert rec["L"] >= 1 and rec["l"] == pytest.approx(1 / 5000)
    assert rec["rounded"] == round(rec["value"])


def test_estimate_all_estimators(tmp_path, capsys):
    path = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 30, 2: 12, 3: 5, 6: 3}, n=87), path)
    for name in ("wy", "plugin", "gt", "cl1", "cl2", "et", "gtoulmin"):
        code, out, _ = run_cli(capsys, "estimate", "--fingerprint", str(path),
                               "--k", "2000", "--estimator", name)
        assert code == 0
        rec = json.loads(out)
        assert rec["estimator"] == name
        assert rec["value"] > 0


def test_estimate_csv_format(tmp_path, capsys):
    path = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 40, 2: 11, 3: 4, 9: 2}, n=92), path)
    code, out, _ = run_cli(capsys, "estimate", "--fingerprint", str(path),
                           "--k", "5000", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["estimator"] == "wy"
    assert int(rows[0]["n"]) == 92


def test_estimate_clamp_and_round(tmp_path, capsys):
    path = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 10}, n=10), path)
    # k tiny forces the raw estimate above k, clamp pins it to k
    code, out, _ = run_cli(capsys, "estimate", "--fingerprint", str(path),
                           "--k", "12", "--clamp", "--round")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] <= 12
    assert float(rec["value"]).is_integer()


def test_estimate_from_token_file(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("The the, THE cat CAT dog\n")
    code, out, _ = run_cli(capsys, "estimate", "--input", str(doc),
                           "--k", "100", "--estimator", "plugin")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 6
    assert rec["value"] == 3.0  # {the, cat, dog}
    doc.write_bytes("The the, THE cat CAT dog\n".encode("utf-16"))
    code, out, _ = run_cli(capsys, "estimate", "--input", str(doc), "--encoding", "utf-16",
                           "--k", "100", "--estimator", "plugin")
    assert code == 0
    assert json.loads(out) == rec
    # the three tokenizer flags state their rules in the help
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for rule in ("--encoding ENCODING Python text codec",
                 "--no-case-fold keep case; by default text is lowercased with str.lower",
                 "kept exactly when str.isalnum() or str.isspace() holds"):
        assert rule in text, rule


def test_estimate_resample_deterministic(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("a b c d e f g h i j k l m n o p\n")
    args = ("estimate", "--input", str(doc), "--k", "50", "--estimator", "plugin",
            "--resample-fraction", "0.5", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["n"] == 8


def test_estimate_resample_paragraphs(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("alpha beta\ngamma\n\ndelta epsilon\n\nzeta eta theta\n")
    args = ("estimate", "--input", str(doc), "--k", "50", "--estimator", "plugin",
            "--resample-fraction", "1.0", "--resample-unit", "paragraph", "--seed", "4")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # three paragraphs drawn with replacement: token count is a sum of
    # paragraph sizes from {3, 2, 3}
    assert 6 <= json.loads(out1)["n"] <= 9


def test_simulate_csv_deterministic(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    args = ("simulate", "--family", "uniform:k=100", "--n-grid", "50,150",
            "--trials", "4", "--estimators", "wy,plugin", "--seed", "3",
            "--output", str(out_path))
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    first = out_path.read_bytes()
    run_cli(capsys, *args)
    assert out_path.read_bytes() == first
    rows = list(csv.DictReader(io.StringIO(first.decode())))
    assert {r["estimator"] for r in rows} == {"wy", "plugin"}
    assert len(rows) == 4


def test_simulate_output_files_round_trip(tmp_path, capsys):
    args = ("simulate", "--family", "uniform:k=1000", "--n-grid", "1,60", "--trials", "3",
            "--estimators", "gt,wy", "--seed", "5")
    rows = run_sweep(SweepSpec(family=make_uniform(1000), n_grid=[1, 60], trials=3,
                               estimators=("gt", "wy"), seed=5))
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "rows.jsonl"
    assert run_cli(capsys, *args, "--output", str(csv_path))[0] == 0
    assert run_cli(capsys, *args, "--format", "json", "--output", str(json_path))[0] == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    # Good-Turing is undefined on every one-sample trial: empty cells, not "None"
    assert lines[1] == "gt,1,,,,3,3"
    parsed = [
        SweepRow(rec["estimator"], int(rec["n"]),
                 *(float(rec[c]) if rec[c] else None for c in ("mean_estimate", "rmse", "std_dev")),
                 int(rec["trials"]), int(rec["undefined_count"]))
        for rec in csv.DictReader(io.StringIO(csv_path.read_text()))
    ]
    assert parsed == rows  # floats round-trip at full precision
    assert [SweepRow(**json.loads(line)) for line in json_path.read_text().splitlines()] == rows


def test_simulate_geometric_grid_stdout_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "zipf:k=50,alpha=1",
                           "--n-min", "20", "--n-max", "200", "--n-points", "3",
                           "--trials", "2", "--estimators", "plugin", "--format", "json")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in recs] == [20, 63, 200]


def test_probe_cli(capsys):
    code, out, _ = run_cli(capsys, "probe", "--family", "uniform:k=100",
                           "--estimator", "plugin", "--epsilon", "0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["n_star"] == 0


def test_probe_and_simulate_take_the_estimator_constants(capsys):
    argv = ("probe", "--family", "uniform:k=1000", "--epsilon", "0.3", "--trials", "10")
    code, out, _ = run_cli(capsys, *argv, "--c0", "0.6")
    assert code == 0
    res = probe_sample_complexity(make_uniform(1000), "wy", 0.3, trials=10,
                                  cfg=EstimatorConfig(c0=0.6))
    rec = dataclasses.asdict(res)
    rec["evaluations"] = [list(e) for e in rec["evaluations"][-12:]]
    assert json.loads(out) == rec
    assert run_cli(capsys, *argv)[1] != out  # the default c0 gives another record

    code, out, _ = run_cli(capsys, "simulate", "--family", "uniform:k=1000", "--n-grid", "200,600",
                           "--trials", "4", "--estimators", "et", "--t", "2", "--format", "json")
    assert code == 0
    rows = run_sweep(SweepSpec(family=make_uniform(1000), n_grid=[200, 600], trials=4,
                               estimators=("et",), cfg=EstimatorConfig(t=2.0)))
    assert [SweepRow(**json.loads(line)) for line in out.splitlines()] == rows


def test_theory_approx_cli(capsys):
    code, out, _ = run_cli(capsys, "theory", "approx", "--degree", "3",
                           "--a", "1", "--b", "10")
    assert code == 0
    rec = json.loads(out)
    assert rec["error"] == pytest.approx(rec["closed_form_error"], rel=1e-8)
    assert len(rec["extrema"]) == 5


def test_theory_options_go_after_the_action(tmp_path, capsys):
    out_path = tmp_path / "approx.json"
    approx = ("approx", "--degree", "2", "--a", "1", "--b", "10")
    code, out, _ = run_cli(capsys, "theory", *approx, "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["degree"] == 2
    out_path.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--output", str(out_path), *approx])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "ArgumentError"
    assert not out_path.exists()


def test_theory_priors_and_tv_cli(capsys):
    code, out, _ = run_cli(capsys, "theory", "priors", "--order", "2", "--lam", "10")
    assert code == 0
    rec = json.loads(out)
    assert rec["gap"] > 0
    code, out, _ = run_cli(capsys, "theory", "tv", "--order", "2", "--lam", "10",
                           "--scale", "0.1")
    assert code == 0
    rec = json.loads(out)
    assert rec["tv_upper"] <= rec["bound"]


def test_theory_certify_cli(capsys):
    code, out, _ = run_cli(capsys, "theory", "certify", "--k", "1e6", "--n", "3000",
                           "--epsilon", "0.15")
    assert code == 0
    rec = json.loads(out)
    assert rec["valid"] is True
    assert rec["implied_epsilon"] >= 0.15


def test_theory_maxcheb_cli(capsys):
    code, out, _ = run_cli(capsys, "theory", "maxcheb", "--beta", "3", "--degree", "6")
    assert code == 0
    rec = json.loads(out)
    assert rec["residual"] < 1e-10


def test_error_record_and_exit_code(tmp_path, capsys):
    path = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 2}, n=2), path)
    code, out, err = run_cli(capsys, "estimate", "--fingerprint", str(path), "--k", "1.5")
    assert code == 2
    rec = json.loads(err)
    assert rec["error"] == "ParameterError"
    assert "k" in rec["message"]


@pytest.mark.parametrize("argv,error", [
    (["coeffs", "--k", "1e9", "--n", "1000000000", "--degree", "40"], "ParameterError"),
    (["estimate", "--k", "1e6", "--estimator", "gtoulmin", "--t", "2"], "UndefinedEstimatorError"),
    (["estimate", "--k", "1e6", "--estimator", "et", "--t", "2", "--J", "1100"],
     "UndefinedEstimatorError"),
    (["estimate", "--k", "nan"], "ParameterError"),
    (["estimate", "--k", "inf"], "ParameterError"),
    (["estimate", "--k", "1e6", "--c0", "nan"], "ParameterError"),
    (["estimate", "--k", "1e6", "--estimator", "et", "--t", "nan"], "ParameterError"),
    (["estimate", "--k", "1e6", "--J", "nan"], "ArgumentError"),
    (["simulate", "--family", "uniform:k=nan", "--n-grid", "10"], "ParameterError"),
    (["probe", "--family", "uniform:k=inf", "--epsilon", "0.3"], "ParameterError"),
    (["simulate", "--family", "uniform:k=10", "--n-grid", "10", "--estimators", ","],
     "ParameterError"),
    (["estimate", "--k", "1e6", "--degree", "100000"], "ParameterError"),
    (["estimate", "--k", "1e6", "--c0", "1e9"], "ParameterError"),
    (["coeffs", "--k", "1e6", "--n", "1000", "--degree", str(MAX_DEGREE + 1)], "ParameterError"),
    (["probe", "--family", "uniform:k=1000000000000", "--epsilon", "0.3"], "ParameterError"),
    (["probe", "--family", "uniform:k=100", "--epsilon", "0.2", "--trials", "0"], "ParameterError"),
    (["probe", "--family", "uniform:k=100", "--epsilon", "0.2", "--trials", "-3"],
     "ParameterError"),
    (["probe", "--family", "uniform:k=100", "--epsilon", "nan"], "ParameterError"),
    (["probe", "--family", "uniform:k=100", "--epsilon", "0.2", "--delta", "nan"],
     "ParameterError"),
    (["probe", "--family", "uniform:k=100", "--epsilon", "0.2", "--delta", "1"], "ParameterError"),
    (["simulate", "--family", "uniform:k=100", "--n-grid", "abc"], "ParameterError"),
    (["simulate", "--family", "uniform:k=100", "--n-grid", "1,,2"], "ParameterError"),
    (["theory", "tv", "--order", "3", "--lam", "10", "--scale", "nan"], "ParameterError"),
    (["theory", "tv", "--order", "3", "--lam", "10", "--scale", "inf"], "ParameterError"),
    (["theory", "tv", "--order", "3", "--lam", "10", "--scale", "1e300"], "ParameterError"),
    (["theory", "approx", "--degree", "3", "--a", "1", "--b", "inf"], "ParameterError"),
    (["theory", "priors", "--order", "3", "--lam", "inf"], "ParameterError"),
    (["theory", "certify", "--k", "nan", "--n", "10", "--epsilon", "0.2"], "ParameterError"),
    (["theory", "certify", "--k", "1e6", "--n", "nan", "--epsilon", "0.2"], "ParameterError"),
    (["theory", "maxcheb", "--beta", "nan", "--degree", "3"], "ParameterError"),
    (["theory", "approx", "--degree", str(MAX_DEGREE + 1), "--a", "1", "--b", "30"],
     "ParameterError"),
    (["theory", "priors", "--order", str(MAX_DEGREE + 1), "--lam", "30"], "ParameterError"),
    (["theory", "tv", "--order", "3", "--lam", "10", "--scale", "0.1",
      "--cutoff", str(MAX_TV_CUTOFF + 1)], "ParameterError"),
    (["estimate", "--k", "0.5", "--estimator", "plugin"], "ParameterError"),
    # k is checked before the input is opened, so a missing file is not reached
    (["estimate", "--input", "/nonexistent/doc.txt", "--k", "0.5"], "ParameterError"),
    (["estimate", "--fingerprint", "/nonexistent/fp.txt", "--k", "0.5"], "ParameterError"),
    (["theory", "approx", "--degree", "3", "--a", "1", "--b", "1e17"], "ParameterError"),
    (["theory", "priors", "--order", "3", "--lam", "1e17"], "ParameterError"),
    (["theory", "priors", "--order", "3", "--nu", "1e200", "--lam", "1e201"], "SolverError"),
    (["theory", "maxcheb", "--beta", "1e-307", "--degree", "100"], "ParameterError"),
    (["theory", "maxcheb", "--beta", "5e-324", "--degree", "1"], "ParameterError"),
    (["theory", "maxcheb", "--beta", "3", "--degree", "1" + "0" * 400], "ParameterError"),
    *[(["simulate", "--family", family, "--n-grid", "50", "--trials", "3",
        "--estimators", "plugin"], "ParameterError")
      for family in ("zipf:k=100,alfa=2", "uniform:k=100,alpha=2", "uniform:k=100,k=5")],
    *[(["simulate", "--family", "uniform:k=10", "--n-grid", n, "--trials", "1",
        "--sampling", "poissonized", "--estimators", "plugin"], "ParameterError")
      for n in ("100000000000000000000", "1" + "0" * 400)],
    # capped before anything is allocated: iid draws and geometric grid points
    *[(["simulate", "--family", "uniform:k=10", "--n-grid", n, "--trials", "1",
        "--estimators", "plugin"], "ParameterError")
      for n in ("10000000000000", "100000000000000000000")],
    (["simulate", "--family", "uniform:k=10", "--n-min", "1", "--n-max", "10",
      "--n-points", "1000000000000", "--trials", "1", "--estimators", "plugin"], "ParameterError"),
    # a fingerprint cannot be resampled; refused before the file is opened
    (["estimate", "--fingerprint", "/nonexistent/fp.txt", "--k", "100",
      "--resample-fraction", "0.5"], "ParameterError"),
    # every estimator argument is checked before the input is opened
    *[(["estimate", "--input", "/nonexistent/doc.txt", *args], error) for args, error in [
        (["--k", "1.5"], "ParameterError"),
        (["--k", "5"], "DegenerateDegreeError"),
        (["--k", "60000", "--degree", "0"], "DegenerateDegreeError"),
        (["--k", "60000", "--degree", str(MAX_DEGREE + 1)], "ParameterError"),
        (["--k", "60000", "--c0", "1e9"], "ParameterError"),
        (["--k", "60000", "--estimator", "et", "--t", "nan"], "ParameterError"),
        (["--k", "60000", "--estimator", "et", "--J", "0"], "ParameterError"),
        (["--k", "60000", "--estimator", "gtoulmin", "--t", "-1"], "ParameterError"),
        # a negative seed, refused before the input is opened and read
        (["--k", "60000", "--resample-fraction", "0.01", "--seed", "-2"], "ParameterError"),
    ]],
    (["simulate", "--family", "uniform:k=40", "--n-grid", "30", "--trials", "2", "--seed", "-3"],
     "ParameterError"),
    (["probe", "--family", "uniform:k=50", "--epsilon", "0.3", "--trials", "5", "--seed", "-1"],
     "ParameterError"),
    (["theory", "certify", "--k", "1e6", "--n", "3000", "--epsilon", "0.15", "--order", "3",
      "--lam", "10"], "ParameterError"),
    # the resampled fraction is checked before the input is opened
    (["estimate", "--input", "/nonexistent/doc.txt", "--k", "60000", "--resample-fraction", "2"],
     "ParameterError"),
    (["probe", "--family", "uniform:k=100", "--epsilon", "0.2", "--ceiling", "-5"],
     "ParameterError"),
    # t and J are estimator constants, checked whichever estimator runs
    (["estimate", "--k", "1e6", "--estimator", "plugin", "--t", "nan"], "ParameterError"),
    # a repeated estimator would put two values of each trial into one cell
    (["simulate", "--family", "uniform:k=1000", "--n-grid", "500", "--trials", "5",
      "--estimators", "wy,wy"], "ParameterError"),
    (["probe", "--family", "uniform:k=1000", "--epsilon", "0.3", "--t", "nan"], "ParameterError"),
])
def test_bad_numbers_are_one_line_domain_errors(tmp_path, capsys, argv, error):
    path = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1100: 1}, n=1100), path)
    if argv[0] == "estimate" and not {"--input", "--fingerprint"} & set(argv):
        argv = argv + ["--fingerprint", str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


def test_default_format_per_command_and_its_overrides(tmp_path, capsys):
    def first_line(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return out.splitlines()[0]

    fp = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 3, 2: 1}, n=5), fp)
    commands = {
        ("estimate", "--fingerprint", str(fp), "--k", "100"): "json",
        ("probe", "--family", "uniform:k=100", "--epsilon", "0.5"): "json",
        ("theory", "maxcheb", "--beta", "3", "--degree", "6"): "json",
        ("simulate", "--family", "uniform:k=40", "--n-grid", "30", "--trials", "2",
         "--estimators", "plugin"): "csv",
        ("coeffs", "--k", "1e6", "--n", "200000"): "csv",
    }
    for argv, default in commands.items():
        assert first_line(*argv).startswith("{") == (default == "json"), argv
        assert first_line(*argv, "--format", "json").startswith("{")
        assert not first_line(*argv, "--format", "csv").startswith("{")
    # a config key sets the format like any other default; an explicit flag beats it
    cfg = tmp_path / "run.conf"
    cfg.write_text("format=json\n")
    sim = ("simulate", "--family", "uniform:k=40", "--n-grid", "30", "--trials", "2",
           "--estimators", "plugin", "--config", str(cfg))
    assert json.loads(first_line(*sim))["estimator"] == "plugin"
    assert first_line(*sim, "--format", "csv") == ",".join(CSV_COLUMNS)


def test_theory_certify_csv_writes_terms_as_a_list(capsys):
    argv = ("theory", "certify", "--k", "1e6", "--n", "3000", "--epsilon", "0.15")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    csv_rec = next(csv.DictReader(io.StringIO(out)))
    code, out, _ = run_cli(capsys, *argv)
    terms = json.loads(out)["terms"]
    assert len(terms) == 3
    assert csv_rec["terms"] == str(terms)  # "[a, b, c]", not a tuple's "(a, b, c)"


def test_estimate_on_empty_fingerprint_is_undefined(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# no samples\n")
    for name in ("wy", "gt", "cl1", "cl2", "et", "gtoulmin"):
        code, _, err = run_cli(capsys, "estimate", "--fingerprint", str(path), "--k", "100",
                               "--estimator", name)
        assert code == 2
        assert json.loads(err)["error"] == "UndefinedEstimatorError"
    code, out, _ = run_cli(capsys, "estimate", "--fingerprint", str(path), "--k", "100",
                           "--estimator", "plugin")
    assert code == 0 and json.loads(out)["value"] == 0.0


def test_estimate_degree_40_at_k_1e9(tmp_path, capsys):
    path = tmp_path / "fp.txt"
    path.write_text("1 1000000000\n")
    code, out, _ = run_cli(capsys, "estimate", "--fingerprint", str(path),
                           "--k", "1e9", "--degree", "40")
    assert code == 0
    assert json.loads(out)["L"] == 40


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "estimate", "--fingerprint", "/nonexistent/fp.txt",
                           "--k", "100")
    assert code == 3
    rec = json.loads(err)
    assert rec["path"] == "/nonexistent/fp.txt"


def test_config_file_defaults_and_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# sweep defaults\ntrials=6\nseed=11\nestimators=plugin\n")
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "simulate", "--family", "uniform:k=40",
                         "--n-grid", "30", "--config", str(cfg),
                         "--output", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert rows[0]["trials"] == "6"
    assert rows[0]["estimator"] == "plugin"
    # explicit flag beats the config value
    code, _, _ = run_cli(capsys, "simulate", "--family", "uniform:k=40",
                         "--n-grid", "30", "--config", str(cfg), "--trials", "2",
                         "--output", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert rows[0]["trials"] == "2"


def test_config_values_are_typed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    sim = ("simulate", "--family", "uniform:k=40", "--n-grid", "30", "--config", str(cfg))
    for body, lineno in [("c0=abc\n", 1), ("trials=6\ntrials=x\n", 2),
                         ("sampling=other\n", 1), ("format=xml\n", 1), ("# x\ntrials 6\n", 2)]:
        cfg.write_text(body)
        code, _, err = run_cli(capsys, *sim)
        assert code == 2
        rec = json.loads(err)
        assert rec["error"] == "ParameterError"
        assert rec["message"].startswith(f"{cfg}:{lineno}: ")
    # the wording after file:line is the command parser's own
    for body, wording in [("c0=abc\n", "invalid float value: 'abc'"),
                          ("format=xml\n", "invalid choice: 'xml' (choose from ")]:
        cfg.write_text(body)
        assert json.loads(run_cli(capsys, *sim)[2])["message"].startswith(f"{cfg}:1: {wording}")
    # a negative seed is typed like any int, then refused as a domain error
    cfg.write_text("seed=-3\n")
    for argv in (sim, ("probe", "--family", "uniform:k=50", "--epsilon", "0.3", "--trials", "5",
                       "--config", str(cfg))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ParameterError",
                                   "message": "seed must be a non-negative integer, got -3"}
    # switches take yes/no words; keys of other commands are ignored unchecked
    doc = tmp_path / "doc.txt"
    doc.write_text("a b b\n")  # Good-Turing: 2 / (1 - 1/3) = 3
    est = ("estimate", "--input", str(doc), "--k", "2.5", "--estimator", "gt", "--config", str(cfg))
    for body, value in [("clamp=yes\nround_output=off\ntrials=x\n", 2.5),
                        ("clamp=On\nround_output=TRUE\n", 2.0), ("clamp=no\n", 3.0)]:
        cfg.write_text(body)
        code, out, _ = run_cli(capsys, *est)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(value)
    # keys are long flag names (--round, dest round_output); the unrounded
    # Good-Turing value is 2.9999999999999996
    cfg.write_text("round=true\n")
    code, out, _ = run_cli(capsys, *est)
    assert code == 0 and json.loads(out)["value"] == 3.0
    # a key of a mutually exclusive group yields to any explicit flag of it
    fp = tmp_path / "fp.txt"
    write_fingerprint_file(Fingerprint(h={1: 5}, n=5), fp)
    cfg.write_text(f"fingerprint={fp}\n")
    code, out, _ = run_cli(capsys, *est)
    assert code == 0 and json.loads(out)["n"] == 3
    # long flags are spelled in full, so a prefix cannot lose to a config key
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "estimate", "--inp", str(doc), *est[3:])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ArgumentError"
    cfg.write_text("clamp=maybe\n")
    code, _, err = run_cli(capsys, *est)
    assert code == 2 and "true/false" in json.loads(err)["message"]


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--family", "uniform:k=10", "--n-grid", "1,100000000,1000000000",
      "--trials", "3", "--estimators", "plugin"], "an iid sample needs n <= 1e+08, got 1000000000"),
    # the estimators' arguments pass the same gate as in estimate, before any draw
    (["simulate", "--family", "uniform:k=1000000", "--n-grid", "100000000", "--trials", "3",
      "--estimators", "plugin,wy", "--c0", "1e9"], f"degree must be in 1..{MAX_DEGREE}, got "),
    (["probe", "--family", "uniform:k=6", "--estimator", "wy", "--epsilon", "0.3"],
     "degree rule gives L=0 for k="),
], ids=["iid-cap", "wy-degree-cap", "probe-wy-L0"])
def test_simulate_checks_its_whole_grid_before_the_first_trial(monkeypatch, capsys, argv,
                                                               message):
    calls = []
    monkeypatch.setattr(sweep, "trial_rng", lambda *path: calls.append(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and calls == []
    assert json.loads(err)["message"].startswith(message)


def test_fingerprint_format_error_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 3\n")
    code, _, err = run_cli(capsys, "estimate", "--fingerprint", str(bad), "--k", "100")
    assert code == 2
    assert json.loads(err)["error"] == "FingerprintFormatError"


def test_theory_certify_explicit_parameters_json_and_csv(capsys):
    argv = ("theory", "certify", "--k", "1e6", "--n", "3000", "--epsilon", "0.15",
            "--order", "3", "--lam", "10", "--nu", "0.5", "--alpha", "0.1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rec = json.loads(out)
    assert (rec["L"], rec["lam"], rec["nu"], rec["alpha"]) == (3, 10.0, 0.5, 0.1)
    assert rec["valid"] is False
    assert rec["gap"] == 0.11053149862320638
    assert rec["lhs"] == 2.527142462162036
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["valid"] == "False"
    assert float(row["gap"]) == rec["gap"] and float(row["lhs"]) == rec["lhs"]
    assert row["terms"] == str(rec["terms"])


@pytest.mark.parametrize("argv", [
    ["theory", "certify", "--k", "1e6", "--n", "1e300", "--epsilon", "0.15"],
    ["theory", "certify", "--k", "1e6", "--n", "3000", "--epsilon", "0.15", "--order", "3",
     "--lam", "10", "--nu", "1e-200", "--alpha", "0.1"],
    ["theory", "certify", "--k", "1e6", "--n", "3000", "--epsilon", "0.15", "--order", "3",
     "--lam", "10", "--nu", "0.5", "--alpha", "1e-200"],
    ["theory", "maxcheb", "--beta", "1e-300", "--degree", "5"],
])
def test_values_beyond_double_range_read_infinity(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert "Infinity" in out and "NaN" not in out
    rec = json.loads(out)
    if argv[1] == "certify":  # the term that left the double range fails the check
        assert math.inf in rec["terms"] and rec["valid"] is False


def test_bad_bytes_in_input_files_name_their_line(tmp_path, capsys):
    fp = tmp_path / "fp.txt"
    fp.write_bytes("1 3\n2 é\n".encode("utf-8"))
    code, _, err = run_cli(capsys, "estimate", "--fingerprint", str(fp), "--k", "1e6")
    assert code == 2
    rec = json.loads(err)
    assert rec["error"] == "FingerprintFormatError" and rec["message"].startswith(f"{fp}:2: ")
    cfg = tmp_path / "run.conf"
    cfg.write_bytes(b"trials=3\nseed=\xff\n")
    code, _, err = run_cli(capsys, "simulate", "--family", "uniform:k=40", "--n-grid", "30",
                           "--config", str(cfg))
    assert code == 2
    rec = json.loads(err)
    assert rec["error"] == "ParameterError" and rec["message"].startswith(f"{cfg}:2: ")
    cfg.write_text("# café\ntrials=2\nestimators=plugin\n", encoding="utf-8")  # valid UTF-8
    code, out, _ = run_cli(capsys, "simulate", "--family", "uniform:k=40", "--n-grid", "30",
                           "--config", str(cfg))
    assert code == 0 and next(csv.DictReader(io.StringIO(out)))["trials"] == "2"
