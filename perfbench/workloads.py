"""The four workloads: their command lists, seeded inputs and output checks.

A workload is a list of `cot-lab` invocations run one after another in one
output directory. Each command carries a check on the files it wrote and the
names of the files that must match a committed reference. Inputs are made
from the benchmark seed only; the program sees just the files and flags.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

import closed_forms as cf

DEFAULT_SEED = 1
NAMES = ("figures", "thresholds", "solvers", "simulate")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

# Sizes per mode. "full" is what the metrics are taken at; "smoke" exercises
# every command, metric and check in seconds.
SIZES = {
    "full": {"curve_points": 512, "gauss_points": 256,
             "threshold_rhos": (0.25, 0.35), "threshold_points": 256,
             "capacities": 3, "rl_fractions": (0.6, 0.98), "ot_n": 48,
             "samples": 10 ** 7, "block": ((8, 32), (12, 8)),
             "block_samples": 4096},
    "smoke": {"curve_points": 16, "gauss_points": 16,
              "threshold_rhos": (0.35,), "threshold_points": 256,
              "capacities": 1, "rl_fractions": (0.6,), "ot_n": 8,
              "samples": 10 ** 5, "block": ((8, 8), (12, 2)),
              "block_samples": 1024},
}

# Upper limits checked before any work starts, so a bad size table or seed
# cannot start a run that exceeds the time or memory of the benchmark.
LIMITS = {"curve_points": 512, "gauss_points": 512, "threshold_points": 512,
          "capacities": 8, "ot_n": 64, "samples": 10 ** 7,
          "block_samples": 4096}
BLOCK_LIMIT = (12, 32)     # largest blocklength, most codebooks
WORKERS = 2


@dataclass
class Command:
    argv: List[str]
    # check(outdir) -> list of problems; empty when the output is right
    check: Callable[[str], List[str]]
    # output files compared with the reference: (name, "bytes"|"csv"|"switch")
    refs: List[Tuple[str, str]] = field(default_factory=list)
    # data files (no manifests) that traced and untraced runs must share
    data: List[str] = field(default_factory=list)


def validate(size: dict):
    for key, limit in LIMITS.items():
        if not 1 <= size[key] <= limit:
            raise ValueError(f"size {key}={size[key]} outside [1, {limit}]")
    for n, books in size["block"]:
        if not (1 <= n <= BLOCK_LIMIT[0] and 1 <= books <= BLOCK_LIMIT[1]):
            raise ValueError(f"block size n={n}, codebooks={books} too big")


def _load(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _write(inputs, name, obj):
    with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return os.path.join("..", "inputs", name)


def _near(what, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{what}: got {got!r}, want {want!r} within {tol:g}"]
    return []


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")]
                                 for ln in lines[1:] if ln]


# ------------------------------------------------------------- figures

def _binary_curve_check(rho):
    def check(outdir):
        head, rows = _read_csv(os.path.join(outdir, f"b{rho}.csv"))
        last = dict(zip(head, rows[-1]))
        problems = _near("last theta", last["theta"], 0.5, 0.0)
        for name in ("d_sep", "d_uncoded", "d_hybrid"):
            problems += _near(f"{name} at theta=1/2", last[name],
                              2.0 * rho * (1.0 - rho), 1e-9)
        return problems
    return check


def _gaussian_curve_check(outdir):
    head, rows = _read_csv(os.path.join(outdir, "g.csv"))
    problems = []
    for row in rows:
        r = dict(zip(head, row))
        if not (r["d_lower"] <= r["d_hybrid"] + 1e-9
                and r["d_hybrid"] <= min(r["d_sep"], r["d_uncoded"]) + 1e-9):
            problems.append(f"curve order broken at gamma={r['gamma']!r}")
    return problems


def figures(size, seed, inputs):
    """The README figure script: two binary curve sweeps, the Gaussian
    sweep, and the six gnuplot scripts. The seed changes nothing here."""
    p, g = str(size["curve_points"]), str(size["gauss_points"])
    cmds = []
    for rho in (0.25, 0.35):
        out = f"b{rho}.csv"
        cmds.append(Command(
            ["binary-curves", "--rho", str(rho), "--points", p,
             "--out", out],
            _binary_curve_check(rho), [(out, "csv")], [out]))
    cmds.append(Command(
        ["gaussian-curves", "--lambdas", "1.5,0.5", "--points", g,
         "--out", "g.csv"],
        _gaussian_curve_check, [("g.csv", "csv")], ["g.csv"]))
    sources = {"fig1": "b0.25.csv", "fig2": "b0.25.csv", "fig3": "b0.35.csv",
               "fig4": "b0.35.csv", "fig5": "g.csv", "fig6": "g.csv"}
    for fig, csv in sources.items():
        out = f"{fig}.gp"
        cmds.append(Command(
            ["emit-plot", "--csv", csv, "--figure", fig, "--out", out],
            lambda outdir: [], [(out, "bytes")], [out]))
    return cmds


# ----------------------------------------------------------- thresholds

def thresholds(size, seed, inputs):
    """binary-thresholds over the fixed grids of criteria 1 and 2. The
    reference check compares switch labels exactly and abscissas to 1e-4.
    The seed changes nothing here."""
    cmds = []
    for rho in size["threshold_rhos"]:
        out = f"thr{rho}.json"
        cmds.append(Command(
            ["binary-thresholds", "--rho", str(rho), "--points",
             str(size["threshold_points"]), "--out", out],
            lambda outdir: [], [(out, "switch")], [out]))
    return cmds


# -------------------------------------------------------------- solvers

def _bern(p):
    return {"alphabet": ["0", "1"], "probs": [1.0 - p, p]}


def _capacity_check(name, cost, gamma, want):
    def check(outdir):
        res = _load(outdir, name)
        probs = res["optimal_input"]["probs"]
        problems = _near("capacity", res["capacity_bits"], want, 1e-6)
        if cost is not None:
            spent = sum(p * c for p, c in zip(probs, cost))
            if spent > gamma + 1e-8:
                problems.append(f"input cost {spent!r} over budget {gamma!r}")
        return problems
    return check


def _rl_ot_check(name, rho, rate):
    want = cf.d_hat(rho, rate)
    return lambda outdir: _near(f"rl-ot rho={rho:.4f} rate={rate:.4f}",
                                _load(outdir, name)["distortion"], want, 1e-4)


def _ot_check(name, xs, p, ys, q):
    want = cf.w1_on_line(xs, p, ys, q)

    def check(outdir):
        res = _load(outdir, name)
        plan = np.asarray(res["plan"])
        cost = np.abs(np.subtract.outer(xs, ys))
        problems = _near("ot d_star", res["d_star"], want, 1e-7)
        problems += _near("plan cost", float(np.sum(plan * cost)),
                          res["d_star"], 1e-7)
        problems += _near("plan row sums",
                          float(np.max(np.abs(plan.sum(axis=1) - p))), 0, 1e-7)
        problems += _near("plan column sums",
                          float(np.max(np.abs(plan.sum(axis=0) - q))), 0, 1e-7)
        return problems
    return check


def _hybrid_check(name, want):
    def check(outdir):
        res = _load(outdir, name)
        problems = _near(f"{name} E[d]", res["e_dist"], want, 1e-8)
        if not res["feasible"]:
            problems.append(f"{name}: spec reported infeasible")
        return problems
    return check


def _bsc_json(theta):
    return {"inputs": ["0", "1"], "outputs": ["0", "1"],
            "matrix": [[1.0 - theta, theta], [theta, 1.0 - theta]]}


def _uncoded_spec(rho, theta):
    """Criterion-8 uncoded spec: the source goes straight into the channel
    and the best passthrough decoder restores the law."""
    want, (a, b) = cf.uncoded_binary_best(rho, theta)
    spec = {"p_x": _bern(rho), "z_alphabet": ["z0"],
            "enc": [[[1.0, 0.0]], [[0.0, 1.0]]],
            "channel": _bsc_json(theta),
            "dec": [[[1.0 - a, a], [b, 1.0 - b]]],
            "y_alphabet": ["0", "1"], "dist": [[0.0, 1.0], [1.0, 0.0]],
            "gamma": 0.0}
    return spec, want


def _separation_spec(rho, theta):
    """Criterion-8 separation spec: Z = (W, S) with W the quantized source
    at capacity and S a uniform dither that rides the channel."""
    want, dq = cf.separation_binary(rho, theta)
    w0 = (rho - dq) / (1.0 - 2.0 * dq)
    p_wx = [[(1 - w0) * (1 - dq), (1 - w0) * dq], [w0 * dq, w0 * (1 - dq)]]
    col = [p_wx[0][x] + p_wx[1][x] for x in range(2)]
    enc = [[[0.0, 0.0] for _ in range(4)] for _ in range(2)]
    dec = [[[0.0, 0.0] for _ in range(2)] for _ in range(4)]
    for w in range(2):
        for s in range(2):
            for x in range(2):
                enc[x][2 * w + s][s] = 0.5 * p_wx[w][x] / col[x]
            for v in range(2):
                dec[2 * w + s][v][w] = 1.0 - dq
                dec[2 * w + s][v][1 - w] = dq
    spec = {"p_x": _bern(rho), "z_alphabet": ["00", "01", "10", "11"],
            "enc": enc, "channel": _bsc_json(theta), "dec": dec,
            "y_alphabet": ["0", "1"], "dist": [[0.0, 1.0], [1.0, 0.0]],
            "gamma": 0.0}
    return spec, want


def solvers(size, seed, inputs):
    """The generic solvers on seeded inputs: cost-constrained and plain
    capacity, rate-capped transport up to f = 0.98 of H(rho), one exact
    transport LP, and the two criterion-8 hybrid specs.

    The channel family is kept narrow (rows near (.6,.25,.15) and
    (.1,.3,.6), budget near the middle of the binding range): over wide
    random families one capacity solve takes from 0.0 s to 12 s, which
    would make the seed, not the code, set the run time."""
    rng = np.random.default_rng([seed, 3])
    cmds = []
    for k in range(size["capacities"]):
        a = np.array([0.6, 0.25, 0.15]) + rng.uniform(-0.03, 0.03, 3)
        b = np.array([0.1, 0.3, 0.6]) + rng.uniform(-0.03, 0.03, 3)
        matrix = [list(a / a.sum()), list(b / b.sum())]
        cost = list(np.array([0.1, 1.0]) + rng.uniform(-0.05, 0.05, 2))
        # budget between the cheapest cost and the cost of the unconstrained
        # optimum, so the constraint binds and the multiplier search runs
        _, p_free = cf.capacity_2xk(matrix)
        top = cost[0] + (cost[1] - cost[0]) * p_free
        gamma = float(cost[0] + rng.uniform(0.45, 0.55) * (top - cost[0]))
        ch = {"inputs": ["0", "1"], "outputs": ["a", "b", "c"],
              "matrix": matrix, "cost": cost}
        out = f"cap{k}.json"
        cmds.append(Command(
            ["capacity", "--channel", _write(inputs, f"channel{k}.json", ch),
             "--gamma", repr(gamma), "--out", out],
            _capacity_check(out, cost, gamma,
                            cf.capacity_2xk(matrix, cost, gamma)[0]),
            data=[out]))
    theta = float(rng.uniform(0.02, 0.45))
    cmds.append(Command(
        ["capacity", "--channel", _write(inputs, "bsc.json", _bsc_json(theta)),
         "--out", "cap_bsc.json"],
        _capacity_check("cap_bsc.json", None, None, 1.0 - cf.h2(theta)),
        data=["cap_bsc.json"]))

    rho = float(rng.uniform(0.22, 0.28))
    src = _write(inputs, "bern.json", _bern(rho))
    ham = _write(inputs, "hamming.json", [[0.0, 1.0], [1.0, 0.0]])
    for f in size["rl_fractions"]:
        rate = f * cf.h2(rho)
        out = f"rlot{f}.json"
        cmds.append(Command(
            ["rl-ot", "--source", src, "--target", src, "--cost", ham,
             "--rate", repr(rate), "--out", out],
            _rl_ot_check(out, rho, rate), data=[out]))

    n = size["ot_n"]
    xs, ys = np.sort(rng.uniform(0, 1, n)), np.sort(rng.uniform(0, 1, n))
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    names = [str(i) for i in range(n)]
    cmds.append(Command(
        ["ot",
         "--source", _write(inputs, "ot_p.json",
                            {"alphabet": names, "probs": list(p)}),
         "--target", _write(inputs, "ot_q.json",
                            {"alphabet": names, "probs": list(q)}),
         "--cost", _write(inputs, "ot_cost.json",
                          np.abs(np.subtract.outer(xs, ys)).tolist()),
         "--out", "ot.json"],
        _ot_check("ot.json", xs, p, ys, q), data=["ot.json"]))

    for name, (spec, want) in (("uncoded", _uncoded_spec(0.25, 0.1)),
                               ("separation", _separation_spec(0.25, 0.05))):
        out = f"hyb_{name}.json"
        cmds.append(Command(
            ["hybrid-eval", "--spec", _write(inputs, f"spec_{name}.json",
                                             spec), "--out", out],
            _hybrid_check(out, want), data=[out]))
    return cmds


# ------------------------------------------------------------- simulate

def _within_4se(name, want):
    def check(outdir):
        rep = _load(outdir, name)
        return _near(f"{name} mean", rep["mean_distortion"], want,
                     4.0 * rep["std_error"])
    return check


def _block_trend(small, large):
    def check(outdir):
        a, b = _load(outdir, small), _load(outdir, large)
        problems = []
        for key in ("msg_error_rate", "tv_to_target"):
            if not a[key] >= b[key]:
                problems.append(f"block {key}: {small} {a[key]!r} < "
                                f"{large} {b[key]!r}")
        return problems
    return check


def simulate(size, seed, inputs):
    """The four README simulate commands with --workers 2, the three
    single-letter ones at size["samples"], block-hybrid at two blocklengths.
    Only the simulator seeds come from the benchmark seed; with the default
    seed every report must match the committed reference byte for byte."""
    sim_seeds = np.random.default_rng([seed, 4]).integers(0, 2 ** 31, 5)
    ref = "bytes" if seed == DEFAULT_SEED else None

    def sim(scheme, args, out, check, k):
        argv = (["simulate", scheme] + args
                + ["--seed", str(sim_seeds[k]), "--samples",
                   str(size["samples"] if k < 3 else size["block_samples"]),
                   "--workers", str(WORKERS), "--out", out])
        return Command(argv, check, [(out, ref)] if ref else [], [out])

    cmds = [
        sim("uncoded-binary",
            ["--rho", "0.25", "--theta", "0.1", "--decoder", "0.03,0.1"],
            "sim_ub.json", _within_4se("sim_ub.json", cf.uncoded_binary(
                0.25, 0.1, 0.03, 0.1)), 0),
        sim("uncoded-gaussian", ["--lambdas", "1.5,0.5", "--gamma", "2.0"],
            "sim_ug.json", _within_4se("sim_ug.json", cf.uncoded_gaussian(
                (1.5, 0.5), 2.0)), 1),
        sim("genie-hybrid",
            ["--rho", "0.25", "--theta", "0.1", "--delta1", "0.05"],
            "sim_gh.json", _within_4se("sim_gh.json", cf.hybrid_binary(
                0.25, 0.1, 0.05)), 2),
    ]
    n_small = size["block"][0][0]
    for k, (n, books) in enumerate(size["block"]):
        out = f"sim_bh{n}.json"
        check = (_block_trend(f"sim_bh{n_small}.json", out) if k
                 else (lambda outdir: []))
        cmds.append(sim(
            "block-hybrid",
            ["--rho", "0.25", "--delta", "0.2", "--theta", "0.005",
             "--rate", "0.6", "--n", str(n), "--typ-delta", "0.05",
             "--codebooks", str(books)],
            out, check, 3 + k))
    return cmds


BUILDERS = {"figures": figures, "thresholds": thresholds,
            "solvers": solvers, "simulate": simulate}


def build(name: str, mode: str, seed: int, inputs: str) -> List[Command]:
    size = SIZES[mode]
    validate(size)
    os.makedirs(inputs, exist_ok=True)
    return BUILDERS[name](size, seed, inputs)


# ------------------------------------------------------------ references

def reference_dir(mode, name):
    return os.path.join(REFERENCE, mode, name)


def compare_reference(outdir, refdir, fname, how) -> List[str]:
    got_path, want_path = os.path.join(outdir, fname), \
        os.path.join(refdir, fname)
    if not os.path.exists(want_path):
        return [f"no committed reference for {fname}"]
    if how == "bytes":
        with open(got_path, "rb") as a, open(want_path, "rb") as b:
            return [] if a.read() == b.read() else \
                [f"{fname} differs from the reference"]
    if how == "csv":
        head, rows = _read_csv(got_path)
        ref_head, ref_rows = _read_csv(want_path)
        if head != ref_head or len(rows) != len(ref_rows):
            return [f"{fname}: header or row count differs from reference"]
        worst = max(abs(a - b) for r, s in zip(rows, ref_rows)
                    for a, b in zip(r, s))
        return _near(f"{fname} vs reference", worst, 0.0, 1e-12)
    got = _load(outdir, fname)["thresholds"]
    want = _load(refdir, fname)["thresholds"]
    if [e["switch"] for e in got] != [e["switch"] for e in want]:
        return [f"{fname}: switch labels {got} differ from {want}"]
    problems = []
    for g, w in zip(got, want):
        problems += _near(f"{fname} {g['switch']}", g["theta"],
                          w["theta"], 1e-4)
    return problems


def check_command(cmd: Command, outdir: str, refdir: str) -> List[str]:
    """Run a command's own check and its reference comparisons."""
    try:
        problems = list(cmd.check(outdir))
        for fname, how in cmd.refs:
            problems += compare_reference(outdir, refdir, fname, how)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"{cmd.argv[0]}: unreadable output ({exc})"]
    return problems
