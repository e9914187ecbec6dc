"""Exercises the command-line surface in process: exit codes, manifest
contents, rerun determinism, JSON side files, and the plot-script layouts."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_block_sampled_blocks_over_the_limit_rejected_before_any_draw(
        capsys, workdir, monkeypatch):
    # each flag is in range, but 2 x (10^9 / 2 + 1) blocks pass the 10^9
    # sampled blocks of one simulation
    def no_draws(*args):
        raise AssertionError("codebook drawn")

    monkeypatch.setattr(block_sim, "_cdf_draw", no_draws)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "simulate", "block-hybrid", "--rho", "0.25",
                       "--delta", "0.2", "--theta", "0.005", "--rate", "0.6",
                       "--n", "8", "--codebooks", "2", "--seed", "7",
                       "--samples", str(cli.MAX_SAMPLES // 2 + 1),
                       "--out", "r.json")
    assert code == 1
    assert "--samples x --codebooks must be at most 1000000000" in err
    assert time.perf_counter() - t0 < 1.0
    assert os.listdir(".") == []


def test_non_finite_typ_delta_rejected_before_any_draw(capsys, workdir):
    for value in ("inf", "nan"):
        code, _, err = run(capsys, "simulate", "block-hybrid", "--rho",
                           "0.25", "--delta", "0.2", "--theta", "0.005",
                           "--rate", "0.6", "--n", "4", "--typ-delta", value,
                           "--seed", "7", "--samples", "16", "--out", "r.json")
        assert code == 1, value
        assert "typ_delta must be positive and finite" in err
    assert os.listdir(".") == []


def test_block_n_out_of_range_rejected_at_parse_time(capsys, workdir):
    # a rate under 1 allows up to 2^n messages over 2^n blocks: the byte
    # gate admits that codebook at n = 12 (128.4 MiB) but not at n = 13
    # (512.8 MiB)
    def counted(n):
        return 8 * (2 ** n + block_sim._LAW_VECTORS) * 2 ** n

    top = cli.MAX_BLOCK_N
    assert counted(top) <= block_sim._ENUM_BYTES < counted(top + 1)
    for n in ("0", "-3", "13"):
        code, _, err = run(capsys, "simulate", "block-hybrid", "--rho",
                           "0.25", "--delta", "0.2", "--theta", "0.005",
                           "--rate", "0.6", "--n", n, "--seed", "7",
                           "--samples", "16", "--out", "r.json")
        assert code == 1, n
        assert "--n" in err and "[1, 12]" in err
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


def test_channel_costs_above_the_limit_exit_1(capsys, workdir):
    # a bounded spend is what lets the capacity solve name a failing input
    with open("ch.json", "w", encoding="utf-8") as fh:
        json.dump({"inputs": ["0", "1"], "outputs": ["0", "1"],
                   "matrix": [[0.9, 0.1], [0.1, 0.9]],
                   "cost": [0.0, 1e308]}, fh)
    code, out, err = run(capsys, "capacity", "--channel", "ch.json",
                         "--gamma", "0.5", "--out", "cap.json")
    assert code == 1
    assert out == ""
    assert err.strip() == "channel cost entries must be at most 1e+100"
    assert os.listdir(".") == ["ch.json"]


def test_capacity_at_the_channel_cost_limit_exits_0(capsys, workdir):
    with open("ch.json", "w", encoding="utf-8") as fh:
        json.dump({"inputs": ["0", "1"], "outputs": ["0", "1"],
                   "matrix": [[0.9, 0.1], [0.1, 0.9]],
                   "cost": [0.0, 1e100]}, fh)
    code, out, err = run(capsys, "capacity", "--channel", "ch.json",
                         "--gamma", "0.5", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert 1e100 * doc["optimal_input"]["probs"][1] <= 0.5


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


def test_decoder_takes_exactly_two_numbers(capsys, workdir):
    for text in ("0.03", "0.03,0.1,0.7"):
        code, _, err = run(capsys, "simulate", "uncoded-binary", "--rho",
                           "0.25", "--theta", "0.1", "--decoder", text,
                           "--seed", "1", "--samples", "64", "--out",
                           "u.json")
        assert code == 1, text
        assert "--decoder" in err and "expected 2" in err
    assert os.listdir(".") == []


def test_non_finite_result_writes_nothing(capsys, workdir, monkeypatch):
    real = infokit.blahut_arimoto

    def nan_capacity(ch, gamma=None):
        return math.nan, real(ch, gamma)[1]

    monkeypatch.setattr(infokit, "blahut_arimoto", nan_capacity)
    write_bsc("ch.json", 0.1)
    code, out, err = run(capsys, "capacity", "--channel", "ch.json",
                         "--json", "--out", "cap.json")
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert os.listdir(".") == ["ch.json"]


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


def config_hash(capsys, *argv):
    """config_hash of one run that writes r.json (or r.csv)."""
    out = "r.csv" if argv[0] == "binary-curves" else "r.json"
    assert run(capsys, *argv, "--out", out)[0] == 0
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["config_hash"]


def test_config_hash_tells_commands_apart(capsys, workdir):
    flags = ("--rho", "0.25", "--points", "256")
    assert config_hash(capsys, "binary-curves", *flags) != \
        config_hash(capsys, "binary-thresholds", *flags)


def test_config_hash_ignores_workers_and_flag_order(capsys, workdir):
    sim = ["simulate", "uncoded-binary", "--rho", "0.25", "--theta", "0.1",
           "--seed", "1", "--samples", "64"]
    one = config_hash(capsys, *sim, "--workers", "1")
    assert config_hash(capsys, *sim, "--workers", "2") == one
    assert config_hash(capsys, *sim[:2], "--samples", "64", "--seed", "1",
                       "--theta", "0.1", "--rho", "0.25") == one
    assert config_hash(capsys, *sim[:-1], "65") != one


def test_config_hash_reads_input_files_by_content(capsys, workdir):
    write_bsc("a.json", 0.1)
    write_bsc("b.json", 0.1)
    write_bsc("c.json", 0.2)
    hashes = [config_hash(capsys, "capacity", "--channel", name)
              for name in ("a.json", "b.json", "c.json")]
    assert hashes[0] == hashes[1] != hashes[2]


@pytest.mark.parametrize("change", ["rewrite", "delete"])
def test_input_file_is_read_once_at_parse_time(capsys, workdir, monkeypatch,
                                                change):
    # a file changed while the command runs reaches neither the result nor
    # the manifest: both come from the bytes read when parsing
    write_bsc("ch.json", 0.1)
    argv = ["capacity", "--channel", "ch.json", "--json"]
    code, before, _ = run(capsys, *argv, "--out", "a.json")
    assert code == 0
    real = infokit.blahut_arimoto

    def change_then_solve(ch, gamma=None):
        if change == "rewrite":
            write_bsc("ch.json", 0.4)
        else:
            os.remove("ch.json")
        return real(ch, gamma)

    monkeypatch.setattr(infokit, "blahut_arimoto", change_then_solve)
    code, after, err = run(capsys, *argv, "--out", "b.json")
    assert code == 0, err
    assert after == before
    hashes = [json.load(open(name, encoding="utf-8"))["config_hash"]
              for name in ("a.json.manifest.json", "b.json.manifest.json")]
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("argv,flag", [
    (["capacity", "--channel", "absent.json"], "--channel"),
    (["ot", "--source", "p.json", "--target", "absent.json", "--cost",
      "p.json"], "--target"),
    (["rl-ot", "--source", "p.json", "--target", "p.json", "--cost",
      "absent.json", "--rate", "0.1"], "--cost"),
    (["hybrid-eval", "--spec", "absent.json"], "--spec"),
    (["emit-plot", "--csv", "absent.json", "--figure", "fig1"], "--csv"),
])
def test_missing_input_is_refused_before_any_work(capsys, workdir,
                                                  monkeypatch, argv, flag):
    called = []
    for name in ("_cmd_capacity", "_cmd_ot", "_cmd_rl_ot",
                 "_cmd_hybrid_eval", "_cmd_emit_plot"):
        monkeypatch.setattr(cli, name, lambda *a: called.append(a) or 0)
    write_marginal("p.json", [0.5, 0.5])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"argument {flag}" in err and "'absent.json'" in err
    assert called == []


def test_config_hash_is_pinned(capsys, workdir):
    # a rerun must reproduce the hash an older manifest recorded
    assert config_hash(capsys, "binary-curves", "--rho", "0.25", "--points",
                       "512") == ("4d138b5c151828e73b5d214f65bbb631"
                                  "3454551a5130f079261c4185b6ef1e9c")


@pytest.mark.parametrize("argv", [
    ["binary-curves", "--rho", "0.25", "--points", "16384"],
    ["simulate", "uncoded-gaussian", "--lambdas", "1.5,0.5", "--gamma", "2.0",
     "--seed", "1", "--samples", "10000000", "--workers", "2"],
    ["emit-plot", "--csv", "c.csv", "--figure", "fig1"],
])
def test_out_in_a_missing_directory_is_refused_before_any_work(
        capsys, workdir, monkeypatch, argv):
    called = []
    for name in ("_cmd_binary_curves", "_cmd_simulate", "_cmd_emit_plot"):
        monkeypatch.setattr(cli, name, lambda *a: called.append(a) or 0)
    code, out, err = run(capsys, *argv, "--out", "missing/x.out")
    assert code == 1 and out == ""
    assert "argument --out" in err and "'missing'" in err
    assert called == []
    assert os.listdir(workdir) == []


SIM_ARGS = ["--seed", "1", "--samples", "64"]


@pytest.mark.parametrize("argv", [
    ["binary-curves", "--rho", "0.25", "--points", "4096"],
    ["simulate", "uncoded-gaussian", "--lambdas", "1.5,0.5", "--gamma", "2.0",
     "--seed", "1", "--samples", "10000000", "--workers", "2"],
    ["emit-plot", "--csv", "c.csv", "--figure", "fig1"],
    ["binary-thresholds", "--rho", "0.25"],
    ["gaussian-curves", "--lambdas", "1.5,0.5"],
    ["gamma-star", "--lambdas", "1.5,0.5"],
    # input files that do not exist: only the handlers would read them
    ["capacity", "--channel", "ch.json"],
    ["rl-ot", "--source", "p.json", "--target", "q.json", "--cost", "c.json",
     "--rate", "0.5"],
    ["ot", "--source", "p.json", "--target", "q.json", "--cost", "c.json"],
    ["hybrid-eval", "--spec", "spec.json"],
    ["simulate", "uncoded-binary", "--rho", "0.25", "--theta", "0.1",
     *SIM_ARGS],
    ["simulate", "genie-hybrid", "--rho", "0.25", "--theta", "0.1",
     "--delta1", "0.05", *SIM_ARGS],
    ["simulate", "block-hybrid", "--rho", "0.25", "--delta", "0.2",
     "--theta", "0.005", "--rate", "0.6", "--n", "8", *SIM_ARGS],
])
@pytest.mark.parametrize("out", ["d", "d/", "new.csv/", ".", ""])
def test_out_naming_a_directory_is_refused_before_any_work(
        capsys, workdir, monkeypatch, argv, out):
    called = []
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda *a: called.append(a) or 0)
    os.mkdir("d")
    code, out_text, err = run(capsys, *argv, "--out", out)
    assert code == 1 and out_text == ""
    assert "argument --out" in err and "names a directory" in err
    assert called == []
    assert os.listdir(workdir) == ["d"]


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


def test_rate_capped_transport_refuses_rates_below_the_floor(capsys,
                                                          workdir):
    write_marginal("s.json", [0.75, 0.25])
    write_cost("c.json", [[0.0, 1.0], [1.0, 0.0]])
    code, out, err = run(capsys, "rl-ot", "--source", "s.json", "--target",
                         "s.json", "--cost", "c.json", "--rate", "1e-13",
                         "--json")
    assert code == 1
    assert out == ""
    assert "floor" in err and "Traceback" not in err


@pytest.mark.parametrize("scale,code", [(1e-300, 0), (1e-200, 0),
                                        (1e-310, 1), (5e-324, 1)])
def test_rate_capped_transport_refuses_a_subnormal_cost_range(
        capsys, workdir, scale, code):
    write_marginal("s.json", [0.75, 0.25])
    write_cost("c.json", [[0.0, scale], [scale, 0.0]])
    got, out, err = run(capsys, "rl-ot", "--source", "s.json", "--target",
                        "s.json", "--cost", "c.json", "--rate", "0.3",
                        "--json")
    assert got == code
    if code:
        assert out == ""
        assert err.strip() == (f"cost range {scale!r} is below 1e-300; "
                               "rescale the costs")
    else:
        assert json.loads(out)["distortion"] > 0.0


@pytest.mark.parametrize("argv", [["ot"], ["rl-ot", "--rate", "0.1"],
                                  ["rl-ot", "--rate", "0"]])
def test_transport_costs_above_the_limit_exit_1(capsys, workdir, argv):
    # entries this large would overflow the potentials and the lambda range
    write_marginal("s.json", [0.75, 0.25])
    write_cost("c.json", [[0.0, 1e308], [1e308, 0.0]])
    code, out, err = run(capsys, *argv[:1], "--source", "s.json", "--target",
                         "s.json", "--cost", "c.json", *argv[1:], "--out",
                         "r.json")
    assert code == 1
    assert out == ""
    assert err.strip() == "cost matrix entries must be at most 1e+100"
    assert sorted(os.listdir(".")) == ["c.json", "s.json"]


def test_rate_capped_transport_constant_cost(capsys, workdir):
    write_marginal("s.json", [0.5, 0.5])
    write_cost("c.json", [[1.0, 1.0], [1.0, 1.0]])
    code, out, _ = run(capsys, "rl-ot", "--source", "s.json", "--target",
                       "s.json", "--cost", "c.json", "--rate", "0.3",
                       "--json")
    assert code == 0
    assert json.loads(out)["distortion"] == 1.0


def test_rate_zero_writes_a_null_multiplier(capsys, workdir):
    # rate 0 binds at an infinite multiplier
    write_marginal("s.json", [0.75, 0.25])
    write_marginal("t.json", [0.5, 0.5])
    write_cost("c.json", [[0.0, 1.0], [1.0, 0.0]])
    code, out, _ = run(capsys, "rl-ot", "--source", "s.json", "--target",
                       "t.json", "--cost", "c.json", "--rate", "0",
                       "--json", "--out", "r.json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["multiplier"] is None
    assert doc["distortion"] == pytest.approx(0.5, abs=1e-12)
    with open("r.json", encoding="utf-8") as fh:
        assert json.loads(fh.read(), parse_constant=_reject_constant) == doc


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


MARGINAL = {"alphabet": ["0", "1"], "probs": [0.5, 0.5]}
TRANSPORT = ["ot", "--source", "p.json", "--target", "q.json", "--cost",
             "c.json"]
SPEC = ["hybrid-eval", "--spec", "p.json"]
CHANNEL = ["capacity", "--channel", "p.json"]


@pytest.mark.parametrize("argv,name,doc,field", [
    (TRANSPORT, "p.json", {"alphabet": None, "probs": [0.5, 0.5]},
     "alphabet"),
    (TRANSPORT, "p.json", {"alphabet": "01", "probs": [0.5, 0.5]},
     "alphabet"),
    (TRANSPORT, "p.json", [MARGINAL], "distribution"),
    (TRANSPORT, "q.json", {"alphabet": ["0", "1"], "probs": [0.5, "0.5"]},
     "probs"),
    (TRANSPORT, "c.json", [[0.0, None], [1.0, 0.0]], "cost matrix"),
    (TRANSPORT, "c.json", [[0.0, 1.0], [1.0]], "cost matrix"),
    (SPEC, "p.json", "hello", "spec"),
    (SPEC, "p.json", dict(IDENTITY_SPEC, gamma=None), "gamma"),
    (SPEC, "p.json", dict(IDENTITY_SPEC, gamma=[1.0]), "gamma"),
    (SPEC, "p.json", dict(IDENTITY_SPEC, z_alphabet="z"), "z_alphabet"),
    (SPEC, "p.json", dict(IDENTITY_SPEC, dec=True), "dec"),
    (CHANNEL, "p.json", dict(IDENTITY_SPEC["channel"], inputs="01"),
     "inputs"),
    (CHANNEL, "p.json", dict(IDENTITY_SPEC["channel"], cost=[0, False]),
     "cost"),
    (CHANNEL, "p.json", {k: v for k, v in IDENTITY_SPEC["channel"].items()
                         if k != "matrix"}, "missing field 'matrix'\n"),
])
def test_json_inputs_of_the_wrong_structure_exit_1(capsys, workdir, argv,
                                                   name, doc, field):
    files = {"p.json": MARGINAL, "q.json": MARGINAL,
             "c.json": [[0.0, 1.0], [1.0, 0.0]], name: doc}
    for fname, content in files.items():
        with open(fname, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    code, _, err = run(capsys, *argv, "--out", "r.json")
    assert code == 1
    assert err.startswith(field) and "Traceback" not in err
    assert sorted(os.listdir(".")) == sorted(files)


def test_deeply_nested_json_exits_1(capsys, workdir):
    # past the depth that json.load can parse on the interpreter stack
    with open("p.json", "w", encoding="utf-8") as fh:
        fh.write("[" * 100000 + "]" * 100000)
    write_cost("c.json", [[0.0, 1.0], [1.0, 0.0]])
    code, _, err = run(capsys, "ot", "--source", "p.json", "--target",
                       "p.json", "--cost", "c.json")
    assert code == 1
    assert err.strip() == "p.json: JSON nested too deeply"


# valid inputs of each JSON-reading command, at most 3 x 3
_P3 = {"alphabet": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]}
_TRANSPORT_DOCS = {"p.json": _P3, "q.json": MARGINAL,
                   "c.json": [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]}
_FUZZ_CASES = {
    "capacity": (["capacity", "--channel", "ch.json", "--gamma", "0.5"],
                 {"ch.json": {"inputs": ["0", "1"],
                              "outputs": ["0", "1", "2"],
                              "matrix": [[0.8, 0.1, 0.1], [0.1, 0.2, 0.7]],
                              "cost": [0.0, 1.0]}}),
    "ot": (TRANSPORT, _TRANSPORT_DOCS),
    "rl-ot": (["rl-ot"] + TRANSPORT[1:] + ["--rate", "0.1"], _TRANSPORT_DOCS),
    "hybrid-eval": (["hybrid-eval", "--spec", "spec.json"],
                    {"spec.json": IDENTITY_SPEC}),
}
_MUTATIONS = ("drop", "null", "string", "number", "boolean", "object",
              "wrap", "append", "nan", "inf", "-inf", "huge", "-huge",
              "tiny")


def _locations(doc, path=()):
    """Every location in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _mutate(doc, path, kind):
    """A copy of doc with the value at path dropped or replaced; dropping
    the whole document leaves null."""
    box = [copy.deepcopy(doc)]
    parent = box
    path = (0,) + path
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
        return box[0] if box else None
    parent[path[-1]] = {
        "null": None, "number": 1.5, "boolean": True, "object": {},
        "wrap": [old], "append": old + [0.5] if isinstance(old, list)
        else [old, 0.5],
        # a string where a list or number stood, "01" for ["0", "1"]
        "string": "".join(map(str, old)) if isinstance(old, list)
        else str(old),
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        # finite numbers at the ends of the float range
        "huge": 1e308, "-huge": -1e308, "tiny": 5e-324}[kind]
    return box[0]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_json_inputs_exit_cleanly_with_strict_json(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_CASES)))
    argv, docs = _FUZZ_CASES[command]
    docs = dict(docs)
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(sorted(docs)))
        path = data.draw(st.sampled_from(list(_locations(docs[name]))))
        docs[name] = _mutate(docs[name], path,
                             data.draw(st.sampled_from(_MUTATIONS)))
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)  # NaN and Infinity as JS literals
        argv = [os.path.join(tmp, a) if a in docs else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--json", "--out",
                                os.path.join(tmp, "r.json")])
        assert code in (0, 1, 2)
        texts = [stdout.getvalue()] if stdout.getvalue() else []
        for name in set(os.listdir(tmp)) - set(docs):
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                texts.append(fh.read())
        if code:
            assert texts == []
        for text in texts:
            json.loads(text, parse_constant=_reject_constant)


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


def test_simulate_one_sample_reports_a_zero_std_error(capsys, workdir):
    # one sample has no spread to estimate
    code, out, _ = run(capsys, "simulate", "uncoded-binary", "--rho", "0.25",
                       "--theta", "0.1", "--seed", "7", "--samples", "1",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 1
    assert doc["std_error"] == 0.0


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
    # every law is exact; the two keys stay in the report schema
    assert all(d["exact_law"] is True and d["est_sigma"] is None
               for d in doc["codebook_draws"])
    assert "exact per-codebook law" in doc["notes"]
    assert "msg_error_rate" in doc


def test_simulate_rejects_bad_rate(capsys, workdir):
    code, _, err = run(capsys, "simulate", "block-hybrid", "--rho", "0.25",
                       "--delta", "0.2", "--theta", "0.005", "--rate",
                       "0.01", "--n", "4", "--seed", "1", "--samples",
                       "64")
    assert code == 1
    assert "must lie strictly between" in err


# ------------------------------------------------------- import footprint

# Runs CLI commands in order in one fresh interpreter and reports, after
# the bare import and after each command, its exit code and which of numpy,
# scipy and numpy.ma are loaded by then.
_FOOTPRINT = """
import json, sys
from cot_lab import cli
def loaded():
    return [m for m in ("numpy", "scipy", "numpy.ma") if m in sys.modules]
def machinery():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]
seen = {"import": loaded() + machinery()}
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv)] + loaded()
    if name == "emit-plot":
        seen[name] += machinery()
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
        ("uncoded-gaussian", ["simulate", "uncoded-gaussian", "--lambdas",
                              "1.5,0.5", "--gamma", "2.0", "--seed", "1",
                              "--samples", "1000", "--out", "s.json"]),
        ("genie-hybrid", ["simulate", "genie-hybrid", "--rho", "0.25",
                          "--theta", "0.1", "--delta1", "0.05", "--seed", "1",
                          "--samples", "1000", "--out", "s.json"]),
        ("block-hybrid", ["simulate", "block-hybrid", "--rho", "0.25",
                          "--delta", "0.2", "--theta", "0.005", "--rate",
                          "0.6", "--n", "4", "--codebooks", "3", "--seed",
                          "1", "--samples", "100", "--out", "s.json"]),
        ("ot", ["ot", "--source", "p.json", "--target", "p.json", "--cost",
                "cost.json", "--out", "ot.json"]),
        ("rl-ot", ["rl-ot", "--source", "p.json", "--target", "p.json",
                   "--cost", "cost.json", "--rate", "0.3", "--out",
                   "rl.json"]),
    ]
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True)
    # the commands print their human-readable lines first
    seen = json.loads(proc.stdout.splitlines()[-1])
    # numpy.ma adds about 15 ms and 1.2 MiB to each process that loads it
    assert not any("numpy.ma" in modules for modules in seen.values())
    # the bare import and emit-plot load neither dataclasses nor inspect
    # (about 10 ms of start-up); typing is not checked, as site hooks may
    # load it
    assert seen.pop("import") == []
    assert seen.pop("emit-plot") == [0]
    assert seen == {name: [0, "numpy"] for name, _ in commands[1:]}


def test_binary_commands_leave_the_solver_stack_unloaded(tmp_path):
    # binary_case needs numkit and tables only; the evaluator, the generic
    # solvers and the transport LP cost start-up it would not use
    script = """
import sys
from cot_lab import cli
for argv in (["binary-thresholds", "--rho", "0.35", "--points", "256",
              "--out", "t.json"],
             ["binary-curves", "--rho", "0.25", "--points", "8",
              "--out", "b.csv"]):
    assert cli.main(argv) == 0
print(sorted(m for m in sys.modules if m in ("cot_lab.infokit",
      "cot_lab.hybrid_bound", "cot_lab.transport", "cot_lab.binary_case")))
"""
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "['cot_lab.binary_case']"


def test_cli_import_leaves_openssl_unloaded(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.3 MiB resident), which
    # would stay in a command's peak RSS; manifests hash without it
    script = """
import sys
from cot_lab import cli
assert cli.main(["binary-thresholds", "--rho", "0.35", "--points", "256",
                 "--out", "t.json"]) == 0
print(sorted(m for m in ("_hashlib", "hashlib", "_blake2")
             if m in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(cot_lab.__file__))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert os.path.exists(tmp_path / "t.json.manifest.json")
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")])
def test_sha256_equals_hashlib_on_every_branch(monkeypatch, blocked):
    # a None entry in sys.modules makes that import raise ImportError, so
    # _sha256 falls through to the next module
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    for data in (b"", b"abc", bytes(range(256)) * 4096):
        assert cli._sha256(data) == hashlib.sha256(data).hexdigest()


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


def test_emit_plot_doubles_quotes_in_the_csv_path(capsys, workdir):
    # a quote inside gnuplot's single-quoted string is written twice, so
    # the string holds the whole path and not just the part before it
    run(capsys, "gaussian-curves", "--lambdas", "1.5,0.5", "--points", "4",
        "--out", "it's.csv")
    code, _, _ = run(capsys, "emit-plot", "--csv", "it's.csv",
                     "--figure", "fig5")
    assert code == 0
    script = open("it's.gp", encoding="utf-8").read()
    assert "plot 'it''s.csv' using 1:2 skip 1 with lines" in script
    assert script.count("'it''s.csv'") == script.count("using 1:")


def test_emit_plot_reads_crlf_lines_as_text_mode_does(capsys, workdir):
    make_curve_csv(capsys)
    with open("fig1.csv", "rb") as fh:
        data = fh.read()
    with open("crlf.csv", "wb") as fh:
        fh.write(data.replace(b"\n", b"\r\n"))
    for name in ("fig1", "crlf"):
        assert run(capsys, "emit-plot", "--csv", name + ".csv", "--figure",
                   "fig1", "--out", name + ".gp")[0] == 0
    script = open("crlf.gp", encoding="utf-8").read()
    assert script == open("fig1.gp", encoding="utf-8").read().replace(
        "'fig1.csv'", "'crlf.csv'")
    assert script == emit_plot_script("crlf.csv", "fig1")


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
