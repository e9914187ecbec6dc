"""Exercises the command-line surface in process: exit codes, manifest
contents, rerun determinism, JSON side files, and the plot-script layouts."""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import cot_lab
from cot_lab import __version__, block_sim, cli, infokit, numkit
from cot_lab.binary_case import CURVE_COLUMNS, d_uncoded
from cot_lab.cli import emit_plot_script, main
from cot_lab.gaussian_case import GAUSSIAN_COLUMNS
from cot_lab.numkit import MaxIterError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_marginal(path, probs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"alphabet": [str(i) for i in range(len(probs))],
                   "probs": list(probs)}, fh)


def write_cost(path, mat):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([list(map(float, row)) for row in mat], fh)


def write_bsc(path, theta):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"inputs": ["0", "1"], "outputs": ["0", "1"],
                   "matrix": [[1.0 - theta, theta], [theta, 1.0 - theta]]},
                  fh)


# ------------------------------------------------------------ exit codes

def test_unknown_subcommand_fails_with_usage(capsys, workdir):
    code, _, err = run(capsys, "no-such-thing")
    assert code == 1
    assert "usage:" in err


def test_unknown_flag_fails_with_usage(capsys, workdir):
    code, _, err = run(capsys, "binary-curves", "--rho", "0.25",
                       "--out", "x.csv", "--bogus")
    assert code == 1
    assert "usage:" in err
    assert "--bogus" in err
    assert not os.path.exists("x.csv")


def test_missing_required_flag_fails(capsys, workdir):
    code, _, err = run(capsys, "binary-curves")
    assert code == 1
    assert "--rho" in err


def test_rho_out_of_range_message(capsys, workdir):
    code, _, err = run(capsys, "binary-curves", "--rho", "0.6",
                       "--out", "x.csv")
    assert code == 1
    assert err.strip() == "rho must lie in (0, 1/2)"
    assert not os.path.exists("x.csv")


def test_points_out_of_range_rejected_before_any_grid(capsys, workdir):
    curves = {"binary-curves": ["--rho", "0.25", "--out", "c.csv"],
              "binary-thresholds": ["--rho", "0.25", "--out", "t.json"],
              "gaussian-curves": ["--lambdas", "1.5,0.5", "--out", "g.csv"]}
    for cmd, rest in curves.items():
        for points in ("0", "100000000"):
            t0 = time.perf_counter()
            code, _, err = run(capsys, cmd, "--points", points, *rest)
            assert code == 1, (cmd, points)
            assert "--points" in err
            # a 10^8-point grid alone would take seconds to build
            assert time.perf_counter() - t0 < 1.0
    assert os.listdir(".") == []


def test_samples_out_of_range_rejected_before_sampling(capsys, workdir):
    schemes = {
        "uncoded-binary": ["--rho", "0.25", "--theta", "0.1"],
        "uncoded-gaussian": ["--lambdas", "1.5,0.5", "--gamma", "2.0"],
        "genie-hybrid": ["--rho", "0.25", "--theta", "0.1", "--delta1",
                         "0.05"],
        "block-hybrid": ["--rho", "0.25", "--delta", "0.2", "--theta",
                         "0.005", "--rate", "0.6", "--n", "8",
                         "--codebooks", "1"]}
    for scheme, rest in schemes.items():
        for samples in ("0", "1000000001"):
            t0 = time.perf_counter()
            code, _, err = run(capsys, "simulate", scheme, *rest, "--seed",
                               "7", "--samples", samples, "--out", "r.json")
            assert code == 1, (scheme, samples)
            assert "--samples" in err
            assert time.perf_counter() - t0 < 1.0
    assert os.listdir(".") == []


def test_codebooks_out_of_range_rejected_before_any_draw(capsys, workdir):
    # 10^8 codebooks at n = 4 would run for about 40 h
    for codebooks in ("0", "100000000"):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "simulate", "block-hybrid", "--rho",
                           "0.25", "--delta", "0.2", "--theta", "0.005",
                           "--rate", "0.6", "--n", "4", "--codebooks",
                           codebooks, "--seed", "7", "--samples", "16",
                           "--out", "r.json")
        assert code == 1, codebooks
        assert "--codebooks" in err
        assert time.perf_counter() - t0 < 1.0
    assert os.listdir(".") == []


def test_block_samples_over_byte_budget_rejected(capsys, workdir):
    # 2^22 blocks of 8 int64 symbols are 256 MiB per sample array
    t0 = time.perf_counter()
    code, _, err = run(capsys, "simulate", "block-hybrid", "--rho", "0.25",
                       "--delta", "0.2", "--theta", "0.005", "--rate", "0.6",
                       "--n", "8", "--seed", "7", "--samples",
                       str(2 ** 22 + 1), "--out", "r.json")
    assert code == 1
    assert "MiB" in err
    assert time.perf_counter() - t0 < 1.0
    assert os.listdir(".") == []


def test_block_n_out_of_range_rejected_at_parse_time(capsys, workdir):
    # 12 symbols of the 4-letter codeword alphabet fill the 24-bit budget
    assert cli.MAX_BLOCK_N == block_sim._ENUM_BITS / math.log2(4)
    for n in ("0", "-3", "13"):
        code, _, err = run(capsys, "simulate", "block-hybrid", "--rho",
                           "0.25", "--delta", "0.2", "--theta", "0.005",
                           "--rate", "0.6", "--n", n, "--seed", "7",
                           "--samples", "16", "--out", "r.json")
        assert code == 1, n
        assert "--n" in err and "[1, 12]" in err
    assert os.listdir(".") == []


def test_block_sample_weights_over_budget_rejected(capsys, workdir,
                                                   monkeypatch):
    # 3770 messages at n = 12: a full chunk of encoder weights is 942 MiB
    def no_draws(*args):
        raise AssertionError("codebook drawn past the weights budget")

    monkeypatch.setattr(block_sim, "_cdf_draw", no_draws)
    code, _, err = run(capsys, "simulate", "block-hybrid", "--rho", "0.25",
                       "--delta", "0.2", "--theta", "0.0001", "--rate",
                       "0.99", "--n", "12", "--codebooks", "1", "--seed",
                       "7", "--samples", str(2 ** 15), "--out", "r.json")
    assert code == 1
    assert "942 MiB of encoder weights" in err
    assert os.listdir(".") == []


@pytest.mark.parametrize("argv,flag", [
    (["binary-curves", "--rho", "0.25", "--out", "c.csv"], "--theta-min"),
    (["binary-curves", "--rho", "0.25", "--out", "c.csv"], "--theta-max"),
    (["binary-thresholds", "--rho", "0.25"], "--theta-min"),
    (["binary-thresholds", "--rho", "0.25"], "--theta-max"),
    (["gaussian-curves", "--lambdas", "1.5,0.5", "--out", "g.csv"],
     "--gamma-min"),
    (["gaussian-curves", "--lambdas", "1.5,0.5", "--out", "g.csv"],
     "--gamma-max"),
    (["gaussian-curves", "--lambdas", "1.5,0.5", "--linear-grid", "--out",
      "g.csv"], "--gamma-max")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_grid_bounds_rejected_before_the_grid(
        capsys, workdir, argv, flag, value):
    # numpy would warn while building a grid from them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 1
    assert f"{flag} must be finite" in err
    assert os.listdir(".") == []


def test_log_grid_needs_positive_upper_budget(capsys, workdir):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5",
                           "--gamma-max", "0", "--out", "g.csv")
    assert code == 1
    assert "gamma-max must be positive" in err


def test_numerical_failure_maps_to_exit_2(capsys, workdir, monkeypatch):
    def explode(ch, gamma=None):
        raise MaxIterError("no convergence after 42 sweeps")

    monkeypatch.setattr(infokit, "blahut_arimoto", explode)
    write_bsc("ch.json", 0.1)
    code, _, err = run(capsys, "capacity", "--channel", "ch.json")
    assert code == 2
    assert "no convergence" in err


def test_missing_input_file_is_a_validation_error(capsys, workdir):
    code, _, err = run(capsys, "capacity", "--channel", "absent.json")
    assert code == 1
    assert "absent.json" in err


def test_non_finite_gaussian_inputs_rejected(capsys, workdir):
    sim = ["--seed", "1", "--samples", "64"]
    for argv in (["simulate", "uncoded-gaussian", "--lambdas", "inf,1",
                  "--gamma", "1"] + sim,
                 ["simulate", "uncoded-gaussian", "--lambdas", "1.5,0.5",
                  "--gamma", "inf"] + sim,
                 ["gaussian-curves", "--lambdas", "inf,1", "--out", "g.csv"],
                 ["gamma-star", "--lambdas", "inf,1"]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "must be finite" in err
    assert not os.path.exists("g.csv")


def test_oversized_gaussian_simulation_rejected(capsys, workdir):
    # the per-sample moment sums would overflow and report NaN/Infinity
    sim = ["--seed", "1", "--samples", "64", "--out", "r.json"]
    for argv, name in (
            (["--lambdas", "1e300,1", "--gamma", "1"], "eigenvalues"),
            (["--lambdas", "1.5,0.5", "--gamma", "1e308"], "gamma")):
        code, _, err = run(capsys, "simulate", "uncoded-gaussian", *argv,
                           *sim)
        assert code == 1, argv
        assert err.startswith(f"{name} must be at most")
    assert os.listdir(".") == []


def test_oversized_gaussian_curve_eigenvalue_rejected(capsys, workdir):
    # kappa * lambda would be squared past the float range in the converse
    code, _, err = run(capsys, "gaussian-curves", "--lambdas", "1e300,1",
                       "--points", "8", "--out", "g.csv")
    assert code == 1
    assert err.strip().startswith("eigenvalue 1e+300 exceeds")
    assert os.listdir(".") == []


def test_non_finite_channel_rejected_before_solving(capsys, workdir):
    # JSON NaN/Infinity parse to floats; the channel must refuse them
    # instead of running the capacity iteration to a "gap nan" failure
    for bad in ("NaN", "Infinity"):
        with open("ch.json", "w", encoding="utf-8") as fh:
            fh.write('{"inputs": ["0", "1"], "outputs": ["0", "1"], '
                     f'"matrix": [[{bad}, 0.1], [0.1, 0.9]]}}')
        code, _, err = run(capsys, "capacity", "--channel", "ch.json")
        assert code == 1, bad
        assert "channel matrix has non-finite entries" in err


# every JSON-writing command with valid arguments, and its float flags
_FLOAT_FLAGS = {
    "binary-curves": (["binary-curves", "--rho", "0.25", "--points", "8",
                       "--json", "--out", "c.csv"],
                      ["--rho", "--theta-min", "--theta-max"]),
    "binary-thresholds": (["binary-thresholds", "--rho", "0.25", "--points",
                           "256", "--out", "t.json"],
                          ["--rho", "--theta-min", "--theta-max"]),
    "gaussian-curves": (["gaussian-curves", "--lambdas", "1.5,0.5",
                         "--points", "8", "--json", "--out", "g.csv"],
                        ["--lambdas", "--gamma-min", "--gamma-max"]),
    "gamma-star": (["gamma-star", "--lambdas", "1.5,0.5", "--out", "s.json"],
                   ["--lambdas"]),
    "capacity": (["capacity", "--channel", "ch.json", "--gamma", "0.5",
                  "--out", "cap.json"], ["--gamma"]),
    "rl-ot": (["rl-ot", "--source", "p.json", "--target", "p.json", "--cost",
               "cost.json", "--rate", "0.1", "--out", "r.json"], ["--rate"]),
    "uncoded-binary": (["simulate", "uncoded-binary", "--rho", "0.25",
                        "--theta", "0.1", "--decoder", "0.03,0.1", "--seed",
                        "1", "--samples", "64", "--out", "u.json"],
                       ["--rho", "--theta", "--decoder"]),
    "uncoded-gaussian": (["simulate", "uncoded-gaussian", "--lambdas",
                          "1.5,0.5", "--gamma", "2", "--seed", "1",
                          "--samples", "64", "--out", "u.json"],
                         ["--lambdas", "--gamma"]),
    "genie-hybrid": (["simulate", "genie-hybrid", "--rho", "0.25", "--theta",
                      "0.1", "--delta1", "0.05", "--seed", "1", "--samples",
                      "64", "--out", "u.json"],
                     ["--rho", "--theta", "--delta1"]),
    "block-hybrid": (["simulate", "block-hybrid", "--rho", "0.25", "--delta",
                      "0.2", "--theta", "0.005", "--rate", "0.6", "--n", "4",
                      "--codebooks", "1", "--seed", "1", "--samples", "64",
                      "--out", "u.json"],
                     ["--rho", "--delta", "--theta", "--rate", "--typ-delta"]),
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd,flag", [(cmd, flag) for cmd, (_, flags)
                                      in _FLOAT_FLAGS.items()
                                      for flag in flags])
def test_non_finite_float_flags_fail_or_write_strict_json(capsys, workdir,
                                                          cmd, flag, value):
    write_bsc("ch.json", 0.1)
    write_marginal("p.json", [0.75, 0.25])
    write_cost("cost.json", [[0, 1], [1, 0]])
    argv, _ = _FLOAT_FLAGS[cmd]
    # lists take the value as their first entry
    text = value + ",0.5" if flag in ("--lambdas", "--decoder") else value
    # flag=value, since argparse would read a bare -inf as an option
    if flag in argv:
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2:]
    argv = argv + [f"{flag}={text}"]
    inputs = set(os.listdir("."))
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1), argv
    written = set(os.listdir(".")) - inputs
    if code == 1:
        assert written == set(), argv
    for name in sorted(written):
        if name.endswith(".json"):
            with open(name, encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)


def test_bad_lambda_list_rejected(capsys, workdir):
    code, _, err = run(capsys, "gamma-star", "--lambdas", "1.5,oops")
    assert code == 1
    assert "comma-separated" in err


# ------------------------------------------------- curves and manifests

def test_binary_curves_writes_csv_json_and_manifest(capsys, workdir):
    code, _, _ = run(capsys, "binary-curves", "--rho", "0.25",
                     "--points", "16", "--out", "fig1.csv", "--json")
    assert code == 0
    lines = open("fig1.csv", encoding="utf-8").read().split("\n")
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 18  # header + 16 rows + trailing newline

    side = json.load(open("fig1.json", encoding="utf-8"))
    assert side["columns"] == list(CURVE_COLUMNS)
    assert len(side["rows"]) == 16

    man = json.load(open("fig1.csv.manifest.json", encoding="utf-8"))
    assert man["command_line"][0] == "cot-lab"
    assert man["library_version"] == __version__
    assert man["seed"] is None
    assert sorted(man["outputs"]) == ["fig1.csv", "fig1.json"]
    assert len(man["config_hash"]) == 64
    assert man["wall_clock_s"] >= 0.0


def test_rerun_is_byte_identical(capsys, workdir):
    for name in ("a.csv", "b.csv"):
        assert run(capsys, "binary-curves", "--rho", "0.3", "--points",
                   "32", "--out", name, "--json")[0] == 0
    assert open("a.csv", "rb").read() == open("b.csv", "rb").read()
    assert open("a.json", "rb").read() == open("b.json", "rb").read()
    ma = json.load(open("a.csv.manifest.json", encoding="utf-8"))
    mb = json.load(open("b.csv.manifest.json", encoding="utf-8"))
    assert ma["config_hash"] == mb["config_hash"]


def test_config_hash_tracks_numeric_inputs(capsys, workdir):
    run(capsys, "binary-curves", "--rho", "0.25", "--points", "16",
        "--out", "a.csv")
    run(capsys, "binary-curves", "--rho", "0.26", "--points", "16",
        "--out", "b.csv")
    ma = json.load(open("a.csv.manifest.json", encoding="utf-8"))
    mb = json.load(open("b.csv.manifest.json", encoding="utf-8"))
    assert ma["config_hash"] != mb["config_hash"]


def test_csv_is_locale_independent(capsys, workdir):
    run(capsys, "binary-curves", "--rho", "0.25", "--points", "8",
        "--out", "c.csv")
    raw = open("c.csv", "rb").read()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw
    raw.decode("utf-8")


def test_gaussian_curves_log_grid(capsys, workdir):
    code, _, _ = run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5",
                     "--points", "16", "--out", "fig5.csv")
    assert code == 0
    rows = open("fig5.csv", encoding="utf-8").read().strip().split("\n")
    assert rows[0] == ",".join(GAUSSIAN_COLUMNS)
    gammas = [float(r.split(",")[0]) for r in rows[1:]]
    ratios = np.diff(np.log(gammas))
    assert np.allclose(ratios, ratios[0])


def test_gaussian_curves_linear_grid(capsys, workdir):
    code, _, _ = run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5",
                     "--gamma-min", "0.5", "--gamma-max", "2.0",
                     "--points", "4", "--linear-grid", "--out", "lin.csv")
    assert code == 0
    rows = open("lin.csv", encoding="utf-8").read().strip().split("\n")
    gammas = [float(r.split(",")[0]) for r in rows[1:]]
    assert gammas == [0.5, 1.0, 1.5, 2.0]


def test_log_grid_rejects_nonpositive_floor(capsys, workdir):
    code, _, err = run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5",
                       "--gamma-min", "0", "--out", "x.csv")
    assert code == 1
    assert "gamma-min" in err


# ------------------------------------------------------ scalar commands

def test_thresholds_human_and_json(capsys, workdir):
    code, out, _ = run(capsys, "binary-thresholds", "--rho", "0.25")
    assert code == 0
    assert "theta=0.148" in out

    code, out, _ = run(capsys, "binary-thresholds", "--rho", "0.25",
                       "--json")
    doc = json.loads(out)
    assert doc["rho"] == 0.25
    assert any(abs(t["theta"] - 0.1482) < 5e-3 for t in doc["thresholds"])


def test_gamma_star_json(capsys, workdir):
    code, out, _ = run(capsys, "gamma-star", "--lambdas", "1.5,0.5",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_star"] == pytest.approx(np.sqrt(2.5) - 0.5, abs=1e-9)


def test_gamma_star_on_subnormal_eigenvalues(capsys, workdir):
    # l1*l1 + l2*l2 underflows to 0 here; the norm must not
    code, out, err = run(capsys, "gamma-star", "--lambdas", "1e-320,1e-321",
                         "--json")
    assert code == 0, err
    assert np.isfinite(json.loads(out)["gamma_star"])
    # and the norm leaves ordinary eigenvalues bit for bit as they were
    code, out, _ = run(capsys, "gamma-star", "--lambdas", "1.5,0.5",
                       "--json")
    assert code == 0
    assert out == ('{\n  "gamma_star": 1.0811388300841898,\n'
                   '  "lambdas": [\n    1.5,\n    0.5\n  ]\n}\n')


def test_capacity_of_symmetric_channel(capsys, workdir):
    write_bsc("ch.json", 0.11)
    code, out, _ = run(capsys, "capacity", "--channel", "ch.json", "--json")
    assert code == 0
    doc = json.loads(out)
    hb = -(0.11 * np.log2(0.11) + 0.89 * np.log2(0.89))
    assert doc["capacity_bits"] == pytest.approx(1.0 - hb, abs=1e-6)
    assert doc["optimal_input"]["probs"] == pytest.approx([0.5, 0.5],
                                                          abs=1e-4)


def test_exact_transport_on_hamming_cost(capsys, workdir):
    write_marginal("s.json", [0.75, 0.25])
    write_marginal("t.json", [0.5, 0.5])
    write_cost("c.json", [[0.0, 1.0], [1.0, 0.0]])
    code, out, _ = run(capsys, "ot", "--source", "s.json", "--target",
                       "t.json", "--cost", "c.json", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_star"] == pytest.approx(0.25, abs=1e-9)
    plan = np.array(doc["plan"])
    assert plan.sum(axis=1) == pytest.approx([0.75, 0.25], abs=1e-9)
    assert plan.sum(axis=0) == pytest.approx([0.5, 0.5], abs=1e-9)


def test_rate_capped_transport_interpolates(capsys, workdir):
    write_marginal("s.json", [0.75, 0.25])
    write_marginal("t.json", [0.5, 0.5])
    write_cost("c.json", [[0.0, 1.0], [1.0, 0.0]])
    code, out, _ = run(capsys, "rl-ot", "--source", "s.json", "--target",
                       "t.json", "--cost", "c.json", "--rate", "0.05",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == pytest.approx(0.05, abs=1e-6)
    # a tight rate cap forces more transport cost than the LP optimum
    assert doc["distortion"] > 0.25
    assert doc["distortion"] < 0.5


def test_rate_capped_transport_constant_cost(capsys, workdir):
    write_marginal("s.json", [0.5, 0.5])
    write_cost("c.json", [[1.0, 1.0], [1.0, 1.0]])
    code, out, _ = run(capsys, "rl-ot", "--source", "s.json", "--target",
                       "s.json", "--cost", "c.json", "--rate", "0.3",
                       "--json")
    assert code == 0
    assert json.loads(out)["distortion"] == 1.0


# identity reconstruction over a noisy channel: it shifts the output
# marginal away from the source
IDENTITY_SPEC = {
    "p_x": {"alphabet": ["0", "1"], "probs": [0.75, 0.25]},
    "z_alphabet": ["z0"],
    "enc": [[[1.0, 0.0]], [[0.0, 1.0]]],
    "channel": {"inputs": ["0", "1"], "outputs": ["0", "1"],
                "matrix": [[0.9, 0.1], [0.1, 0.9]]},
    "dec": [[[1.0, 0.0], [0.0, 1.0]]],
    "y_alphabet": ["0", "1"],
    "dist": [[0.0, 1.0], [1.0, 0.0]],
    "gamma": 1.0,
    "target_y": None,
}


def test_hybrid_eval_reports_feasibility(capsys, workdir):
    # the shifted output marginal must fail the check
    with open("spec.json", "w", encoding="utf-8") as fh:
        json.dump(IDENTITY_SPEC, fh)
    code, out, _ = run(capsys, "hybrid-eval", "--spec", "spec.json",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["marginal_ok"] is False
    assert doc["e_dist"] == pytest.approx(0.1, abs=1e-12)


# ----------------------------------------------------------- simulators

def test_simulate_writes_report_and_manifest(capsys, workdir):
    code, _, _ = run(capsys, "simulate", "uncoded-binary", "--rho", "0.25",
                     "--theta", "0.1", "--seed", "7", "--samples", "20000",
                     "--out", "rep.json")
    assert code == 0
    doc = json.load(open("rep.json", encoding="utf-8"))
    assert doc["samples"] == 20000
    assert 0.05 < doc["mean_distortion"] < 0.15
    assert doc["empirical_marginal"]["alphabet"] == ["0", "1"]
    man = json.load(open("rep.json.manifest.json", encoding="utf-8"))
    assert man["seed"] == 7
    assert man["outputs"] == ["rep.json"]


def test_simulate_rerun_is_byte_identical(capsys, workdir):
    args = ("simulate", "genie-hybrid", "--rho", "0.25", "--theta", "0.1",
            "--delta1", "0.12", "--seed", "11", "--samples", "30000")
    run(capsys, *args, "--out", "r1.json")
    run(capsys, *args, "--out", "r2.json")
    assert open("r1.json", "rb").read() == open("r2.json", "rb").read()


def test_simulate_tuned_decoder_flag(capsys, workdir):
    _, (a, b) = d_uncoded(0.25, 0.1)
    code, out, _ = run(capsys, "simulate", "uncoded-binary", "--rho",
                       "0.25", "--theta", "0.1", "--decoder",
                       f"{a!r},{b!r}", "--seed", "3", "--samples",
                       "50000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tv_to_target"] < 0.02


def test_simulate_gaussian_reports_power(capsys, workdir):
    code, out, _ = run(capsys, "simulate", "uncoded-gaussian", "--lambdas",
                       "1.5,0.5", "--gamma", "2.0", "--seed", "5",
                       "--samples", "20000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input_power"] == pytest.approx(2.0, abs=0.2)
    assert len(doc["empirical_marginal"]) == 2


def test_simulate_block_hybrid_reports_draws(capsys, workdir):
    code, out, _ = run(capsys, "simulate", "block-hybrid", "--rho", "0.25",
                       "--delta", "0.2", "--theta", "0.005", "--rate",
                       "0.6", "--n", "4", "--typ-delta", "0.05",
                       "--codebooks", "4", "--seed", "3", "--samples",
                       "512", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["codebook_draws"]) == 4
    assert all(d["size"] == 6 for d in doc["codebook_draws"])
    assert "msg_error_rate" in doc


def test_simulate_rejects_bad_rate(capsys, workdir):
    code, _, err = run(capsys, "simulate", "block-hybrid", "--rho", "0.25",
                       "--delta", "0.2", "--theta", "0.005", "--rate",
                       "0.01", "--n", "4", "--seed", "1", "--samples",
                       "64")
    assert code == 1
    assert "must lie strictly between" in err


def test_thread_env_caps_workers(capsys, workdir, monkeypatch):
    seen = {}
    real = block_sim.sim_uncoded_binary

    def spy(rho, theta, decoder, sim):
        seen["workers"] = sim.workers
        return real(rho, theta, decoder, sim)

    monkeypatch.setattr(block_sim, "sim_uncoded_binary", spy)
    monkeypatch.setenv("COT_LAB_THREADS", "2")
    code, _, _ = run(capsys, "simulate", "uncoded-binary", "--rho", "0.25",
                     "--theta", "0.1", "--seed", "1", "--samples", "1000",
                     "--workers", "8")
    assert code == 0
    assert seen["workers"] == 2


def test_thread_env_must_be_integer(capsys, workdir, monkeypatch):
    monkeypatch.setenv("COT_LAB_THREADS", "many")
    code, _, err = run(capsys, "simulate", "uncoded-binary", "--rho",
                       "0.25", "--theta", "0.1", "--seed", "1",
                       "--samples", "1000")
    assert code == 1
    assert "COT_LAB_THREADS" in err


# ------------------------------------------------------- import footprint

# Runs CLI commands in order in one fresh interpreter and reports, after
# the bare import and after each command, its exit code and which of numpy
# and scipy are loaded by then.
_FOOTPRINT = """
import json, sys
from cot_lab import cli
def loaded():
    return [m for m in ("numpy", "scipy") if m in sys.modules]
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv)] + loaded()
print(json.dumps(seen))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    with open(tmp_path / "c.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(CURVE_COLUMNS) + "\n" + ",".join(["0.1"] * 8))
    write_bsc(tmp_path / "ch.json", 0.1)
    write_marginal(tmp_path / "p.json", [0.75, 0.25])
    write_cost(tmp_path / "cost.json", [[0, 1], [1, 0]])
    with open(tmp_path / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(IDENTITY_SPEC, fh)
    commands = [
        ("emit-plot", ["emit-plot", "--csv", "c.csv", "--figure", "fig1"]),
        ("binary-curves", ["binary-curves", "--rho", "0.25", "--points",
                           "8", "--out", "b.csv"]),
        ("binary-thresholds", ["binary-thresholds", "--rho", "0.25",
                               "--points", "256", "--out", "t.json"]),
        ("gaussian-curves", ["gaussian-curves", "--lambdas", "1.5,0.5",
                             "--points", "8", "--out", "g.csv"]),
        ("capacity", ["capacity", "--channel", "ch.json", "--out",
                      "cap.json"]),
        ("hybrid-eval", ["hybrid-eval", "--spec", "spec.json", "--out",
                         "h.json"]),
        ("uncoded-binary", ["simulate", "uncoded-binary", "--rho", "0.25",
                            "--theta", "0.1", "--seed", "1", "--samples",
                            "1000", "--out", "s.json"]),
        # the exact transport LP is the one that needs scipy
        ("ot", ["ot", "--source", "p.json", "--target", "p.json", "--cost",
                "cost.json", "--out", "ot.json"]),
    ]
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True)
    # the commands print their human-readable lines first
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    assert seen.pop("emit-plot") == [0]
    assert seen.pop("ot") == [0, "numpy", "scipy"]
    assert seen == {name: [0, "numpy"] for name, _ in commands[1:-1]}


def test_error_classes_are_shared_with_the_solvers():
    assert numkit.BracketError is cot_lab.BracketError
    assert numkit.MaxIterError is infokit.MaxIterError is cot_lab.MaxIterError
    assert infokit.SinkhornDivergence is cot_lab.SinkhornDivergence


# ---------------------------------------------------------- plot scripts

def make_curve_csv(capsys, name="fig1.csv", points=8):
    run(capsys, "binary-curves", "--rho", "0.25", "--points", str(points),
        "--out", name)


def test_emit_plot_five_series_layout(capsys, workdir):
    make_curve_csv(capsys)
    code, _, _ = run(capsys, "emit-plot", "--csv", "fig1.csv",
                     "--figure", "fig1")
    assert code == 0
    script = open("fig1.gp", encoding="utf-8").read()
    assert script.count("using 1:") == 5
    assert "'fig1.csv'" in script
    assert "set datafile separator ','" in script
    assert "set xlabel 'theta'" in script
    assert "set ylabel 'distortion'" in script
    for label in ("lower bound", "separation", "uncoded", "hybrid"):
        assert label in script


def test_emit_plot_single_series_share_curve(capsys, workdir):
    run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5", "--points",
        "8", "--out", "fig6.csv")
    code, _, _ = run(capsys, "emit-plot", "--csv", "fig6.csv",
                     "--figure", "fig6")
    assert code == 0
    script = open("fig6.gp", encoding="utf-8").read()
    assert script.count("using 1:") == 1
    assert "using 1:6" in script
    assert "set logscale x" in script
    assert "set ylabel 'alpha'" in script


def test_emit_plot_split_curves_use_last_columns(capsys, workdir):
    make_curve_csv(capsys)
    run(capsys, "emit-plot", "--csv", "fig1.csv", "--figure", "fig2",
        "--out", "fig2.gp")
    script = open("fig2.gp", encoding="utf-8").read()
    assert "using 1:7" in script and "using 1:8" in script
    assert "set ylabel 'delta1'" in script


def test_emit_plot_references_csv_relative_to_script(capsys, workdir):
    make_curve_csv(capsys)
    os.mkdir("plots")
    code, _, _ = run(capsys, "emit-plot", "--csv", "fig1.csv",
                     "--figure", "fig1", "--out", "plots/fig1.gp")
    assert code == 0
    script = open("plots/fig1.gp", encoding="utf-8").read()
    assert "'../fig1.csv'" in script


def test_emit_plot_rejects_header_only_csv(capsys, workdir):
    with open("empty.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(CURVE_COLUMNS) + "\n")
    code, _, err = run(capsys, "emit-plot", "--csv", "empty.csv",
                       "--figure", "fig1")
    assert code == 1
    assert "no data rows" in err
    assert not os.path.exists("empty.gp")


def test_emit_plot_rejects_schema_mismatch(capsys, workdir):
    run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5", "--points",
        "8", "--out", "g.csv")
    code, _, err = run(capsys, "emit-plot", "--csv", "g.csv",
                       "--figure", "fig1")
    assert code == 1
    assert "schema mismatch" in err


def test_emit_plot_rejects_unknown_figure(capsys, workdir):
    make_curve_csv(capsys)
    code, _, err = run(capsys, "emit-plot", "--csv", "fig1.csv",
                       "--figure", "fig9")
    assert code == 1
    assert "unknown figure id" in err


def test_emit_plot_function_rejects_truly_empty_file(workdir):
    with open("zero.csv", "w", encoding="utf-8"):
        pass
    with pytest.raises(ValueError, match="empty"):
        emit_plot_script("zero.csv", "fig1")
