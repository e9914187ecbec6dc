"""Command-line front end.

Every subcommand that writes a data file also writes a run manifest next to
it (<out>.manifest.json) recording the command line, a hash of the numeric
inputs, the library version, the seed if any, the list of output files, and
the wall-clock time. Data artifacts (CSV/JSON) contain no timestamps, so a
rerun with the same inputs is byte-identical; only the manifest's clock
field varies.

Exit codes: 0 on success, 1 on validation or usage errors, 2 on numerical
failures (lost brackets, iteration overflow, solver divergence).
"""

import argparse
import hashlib
import json
import os
import sys
import time

# numpy and the numerics are imported inside each handler, so a command
# loads only what it runs: emit-plot needs neither numpy nor scipy, and
# only ot and rl-ot load scipy
from . import BracketError, MaxIterError, SinkhornDivergence, __version__
from .tables import CURVE_COLUMNS, GAUSSIAN_COLUMNS

_NUMERICAL_ERRORS = (BracketError, MaxIterError, SinkhornDivergence,
                     ArithmeticError, FloatingPointError)

# most points of a curve grid: the optimizer's scan table is points x 512 x 8 B
MAX_POINTS = 2 ** 14
# most samples of one simulation: about 30,000 chunks of 2^15
MAX_SAMPLES = 10 ** 9
# most codebooks of one block-hybrid run: each is one exact-law enumeration,
# about 0.4 s at n = 12, so a run stays under about 7 min there
MAX_CODEBOOKS = 2 ** 10


class _UsageError(Exception):
    def __init__(self, usage: str, message: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exceptions so main()
    can map them to exit code 1 instead of argparse's default 2."""

    def error(self, message):
        raise _UsageError(self.format_usage(), message)


# ------------------------------------------------------------- utilities

def _int_in(lo: int, hi: int):
    """argparse type for an integer in [lo, hi]."""
    def integer(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}]")
        return n
    return integer


def _parse_floats(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise ValueError("expected at least one number")
    return values


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_manifest(anchor: str, argv, inputs: dict, seed, outputs, t0):
    manifest = {
        "command_line": ["cot-lab"] + list(argv),
        "config_hash": hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest(),
        "library_version": __version__,
        "seed": seed,
        "outputs": list(outputs),
        "wall_clock_s": round(time.time() - t0, 6),
    }
    _write_text(anchor + ".manifest.json", _dump_json(manifest))


def _emit_table(table, args, argv, inputs: dict, t0, seed=None):
    outputs = [args.out]
    _write_text(args.out, table.to_csv())
    if args.json:
        jpath = os.path.splitext(args.out)[0] + ".json"
        _write_text(jpath, _dump_json(table.to_json_obj()))
        outputs.append(jpath)
    _write_manifest(args.out, argv, inputs, seed, outputs, t0)
    return 0


def _emit_result(result: dict, args, argv, inputs: dict, t0, seed=None,
                 human=None):
    if args.out:
        _write_text(args.out, _dump_json(result))
        _write_manifest(args.out, argv, inputs, seed, [args.out], t0)
    if args.json:
        sys.stdout.write(_dump_json(result))
    elif human:
        for line in human:
            print(line)
    return 0


# ----------------------------------------------------------- subcommands

def _cmd_binary_curves(args, argv, t0):
    import numpy as np
    from .binary_case import BinaryConfig, binary_curves
    grid = np.linspace(args.theta_min, args.theta_max, args.points)
    table = binary_curves(BinaryConfig(args.rho, tuple(grid)))
    inputs = {"rho": args.rho, "theta_min": args.theta_min,
              "theta_max": args.theta_max, "points": args.points}
    return _emit_table(table, args, argv, inputs, t0)


def _cmd_binary_thresholds(args, argv, t0):
    import numpy as np
    from .binary_case import BinaryConfig, thresholds
    grid = np.linspace(args.theta_min, args.theta_max, args.points)
    events = thresholds(BinaryConfig(args.rho, tuple(grid)))
    result = {"rho": args.rho,
              "thresholds": [{"theta": t, "switch": label}
                             for t, label in events]}
    inputs = {"rho": args.rho, "theta_min": args.theta_min,
              "theta_max": args.theta_max, "points": args.points}
    human = [f"theta={t:.6f}  {label}" for t, label in events] or \
        ["no mode switches on this grid"]
    return _emit_result(result, args, argv, inputs, t0, human=human)


def _cmd_gaussian_curves(args, argv, t0):
    import numpy as np
    from .gaussian_case import GaussianConfig, gaussian_curves
    lams = _parse_floats(args.lambdas)
    if args.linear_grid:
        grid = np.linspace(args.gamma_min, args.gamma_max, args.points)
    else:
        if args.gamma_min <= 0.0:
            raise ValueError("gamma-min must be positive on a log grid")
        grid = np.logspace(np.log10(args.gamma_min),
                           np.log10(args.gamma_max), args.points)
    table = gaussian_curves(GaussianConfig(tuple(lams), tuple(grid)))
    inputs = {"lambdas": lams, "gamma_min": args.gamma_min,
              "gamma_max": args.gamma_max, "points": args.points,
              "log_grid": not args.linear_grid}
    return _emit_table(table, args, argv, inputs, t0)


def _cmd_gamma_star(args, argv, t0):
    from .gaussian_case import gamma_star
    lams = _parse_floats(args.lambdas)
    value = gamma_star(lams)
    result = {"lambdas": lams, "gamma_star": value}
    return _emit_result(result, args, argv, {"lambdas": lams}, t0,
                        human=[f"gamma_star = {value!r}"])


def _cmd_capacity(args, argv, t0):
    from .infokit import (blahut_arimoto, channel_from_json,
                          distribution_to_json)
    ch = channel_from_json(_load_json(args.channel))
    cap, opt = blahut_arimoto(ch, args.gamma)
    result = {"capacity_bits": cap, "gamma": args.gamma,
              "optimal_input": distribution_to_json(opt)}
    inputs = {"channel_sha256": _file_sha256(args.channel),
              "gamma": args.gamma}
    return _emit_result(result, args, argv, inputs, t0,
                        human=[f"capacity = {cap!r} bits"])


def _cmd_rl_ot(args, argv, t0):
    import numpy as np
    from .infokit import distribution_from_json, rate_limited_ot
    row = distribution_from_json(_load_json(args.source))
    col = distribution_from_json(_load_json(args.target))
    cost = np.asarray(_load_json(args.cost), dtype=float)
    point = rate_limited_ot(row, col, cost, args.rate)
    result = {"rate": point.rate, "distortion": point.distortion,
              "multiplier": point.multiplier}
    inputs = {"source_sha256": _file_sha256(args.source),
              "target_sha256": _file_sha256(args.target),
              "cost_sha256": _file_sha256(args.cost), "rate": args.rate}
    return _emit_result(
        result, args, argv, inputs, t0,
        human=[f"distortion = {point.distortion!r} at rate {point.rate!r}"])


def _cmd_ot(args, argv, t0):
    import numpy as np
    from .infokit import distribution_from_json, ot_min_cost
    row = distribution_from_json(_load_json(args.source))
    col = distribution_from_json(_load_json(args.target))
    cost = np.asarray(_load_json(args.cost), dtype=float)
    d_star, plan = ot_min_cost(row, col, cost)
    result = {"d_star": d_star, "plan": plan.table.tolist()}
    inputs = {"source_sha256": _file_sha256(args.source),
              "target_sha256": _file_sha256(args.target),
              "cost_sha256": _file_sha256(args.cost)}
    return _emit_result(result, args, argv, inputs, t0,
                        human=[f"d_star = {d_star!r}"])


def _cmd_hybrid_eval(args, argv, t0):
    from .hybrid_bound import evaluate, hybrid_spec_from_json, report_to_json
    spec = hybrid_spec_from_json(_load_json(args.spec))
    report = evaluate(spec)
    result = report_to_json(report)
    inputs = {"spec_sha256": _file_sha256(args.spec)}
    human = [f"feasible = {report.feasible}",
             f"E[d] = {report.e_dist!r}",
             f"E[cost] = {report.e_cost!r}",
             f"I(X;Z) = {report.i_xz!r}",
             f"I(Y;Z) = {report.i_yz!r}",
             f"I(Z;V) = {report.i_zv!r}"]
    return _emit_result(result, args, argv, inputs, t0, human=human)


def _report_to_json(rep) -> dict:
    from .infokit import DiscreteDistribution, distribution_to_json
    marginal = rep.empirical_marginal
    if isinstance(marginal, DiscreteDistribution):
        marginal = distribution_to_json(marginal)
    else:
        marginal = [[mean, var] for mean, var in marginal]
    out = {"mean_distortion": rep.mean_distortion,
           "std_error": rep.std_error,
           "empirical_marginal": marginal,
           "tv_to_target": rep.tv_to_target,
           "samples": rep.samples}
    if rep.msg_error_rate is not None:
        out["msg_error_rate"] = rep.msg_error_rate
    if rep.input_power is not None:
        out["input_power"] = rep.input_power
    if rep.codebook_draws is not None:
        out["codebook_draws"] = [
            {"size": d.size, "msg_error_rate": d.msg_error_rate,
             "tv_to_target": d.tv_to_target, "degenerate": d.degenerate,
             "exact_law": d.exact_law, "est_sigma": d.est_sigma}
            for d in rep.codebook_draws]
    if rep.notes:
        out["notes"] = list(rep.notes)
    return out


def _sim_config(args):
    from .block_sim import SimConfig
    return SimConfig(seed=args.seed, samples=args.samples,
                     workers=args.workers)


def _cmd_sim_uncoded_binary(args, argv, t0):
    from .block_sim import sim_uncoded_binary
    a, b = (_parse_floats(args.decoder) + [0.0, 0.0])[:2]
    rep = sim_uncoded_binary(args.rho, args.theta, (a, b), _sim_config(args))
    inputs = {"scheme": "uncoded-binary", "rho": args.rho,
              "theta": args.theta, "decoder": [a, b], "seed": args.seed,
              "samples": args.samples}
    return _emit_result(_report_to_json(rep), args, argv, inputs, t0,
                        seed=args.seed,
                        human=[f"distortion = {rep.mean_distortion!r} "
                               f"+/- {rep.std_error!r}"])


def _cmd_sim_uncoded_gaussian(args, argv, t0):
    from .block_sim import sim_uncoded_gaussian
    lams = _parse_floats(args.lambdas)
    rep = sim_uncoded_gaussian(lams, args.gamma, _sim_config(args))
    inputs = {"scheme": "uncoded-gaussian", "lambdas": lams,
              "gamma": args.gamma, "seed": args.seed,
              "samples": args.samples}
    return _emit_result(_report_to_json(rep), args, argv, inputs, t0,
                        seed=args.seed,
                        human=[f"distortion = {rep.mean_distortion!r} "
                               f"+/- {rep.std_error!r}"])


def _cmd_sim_genie_hybrid(args, argv, t0):
    from .block_sim import sim_genie_hybrid_binary
    rep = sim_genie_hybrid_binary(args.rho, args.theta, args.delta1,
                                  _sim_config(args))
    inputs = {"scheme": "genie-hybrid", "rho": args.rho,
              "theta": args.theta, "delta1": args.delta1,
              "seed": args.seed, "samples": args.samples}
    return _emit_result(_report_to_json(rep), args, argv, inputs, t0,
                        seed=args.seed,
                        human=[f"distortion = {rep.mean_distortion!r} "
                               f"+/- {rep.std_error!r}"])


def _cmd_sim_block_hybrid(args, argv, t0):
    from .block_sim import binary_separation_block_config, sim_block_hybrid
    cfg = binary_separation_block_config(
        args.rho, args.delta, args.theta, args.rate, args.n,
        typ_delta=args.typ_delta, codebooks=args.codebooks)
    rep = sim_block_hybrid(cfg, _sim_config(args))
    inputs = {"scheme": "block-hybrid", "rho": args.rho,
              "delta": args.delta, "theta": args.theta, "rate": args.rate,
              "n": args.n, "typ_delta": args.typ_delta,
              "codebooks": args.codebooks, "seed": args.seed,
              "samples": args.samples}
    human = [f"distortion = {rep.mean_distortion!r} +/- {rep.std_error!r}",
             f"median msg_error_rate = {rep.msg_error_rate!r}",
             f"median tv_to_target = {rep.tv_to_target!r}"]
    return _emit_result(_report_to_json(rep), args, argv, inputs, t0,
                        seed=args.seed, human=human)


# ----------------------------------------------------------- plot script

_FIGS = {
    "fig1": ("binary", "linear",
             [(2, "lower bound"), (3, "separation"), (4, "uncoded"),
              (5, "hybrid"), (6, "hybrid (simplified)")],
             "theta", "distortion"),
    "fig2": ("binary", "linear",
             [(7, "optimal split"), (8, "simplified split")],
             "theta", "delta1"),
    "fig5": ("gaussian", "log",
             [(2, "lower bound"), (3, "separation"), (4, "uncoded"),
              (5, "hybrid")],
             "Gamma", "distortion"),
    "fig6": ("gaussian", "log", [(6, "alpha")], "Gamma", "alpha"),
}
# fig3 and fig4 draw the fig1 and fig2 layouts for the second source bias
_FIGS["fig3"], _FIGS["fig4"] = _FIGS["fig1"], _FIGS["fig2"]

_SCHEMAS = {"binary": CURVE_COLUMNS, "gaussian": GAUSSIAN_COLUMNS}


def emit_plot_script(curve_csv: str, figure_id: str,
                     script_dir: str = None) -> str:
    """Gnuplot script text rendering one of the six curve-figure layouts.

    The CSV header must match the producing table's schema exactly and at
    least one data row must be present. The script references the CSV
    relative to script_dir (default: the CSV's own directory).
    """
    if figure_id not in _FIGS:
        raise ValueError(
            f"unknown figure id {figure_id!r}; expected one of "
            f"{', '.join(sorted(_FIGS))}")
    family, xscale, series, xlabel, ylabel = _FIGS[figure_id]
    with open(curve_csv, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    expected = ",".join(_SCHEMAS[family])
    if not lines:
        raise ValueError(f"curve file {curve_csv!r} is empty")
    if lines[0] != expected:
        raise ValueError(
            f"column schema mismatch for {figure_id}: expected header "
            f"{expected!r}")
    if len(lines) < 2:
        raise ValueError(f"curve file {curve_csv!r} has no data rows")

    base = script_dir if script_dir else (os.path.dirname(curve_csv) or ".")
    rel = os.path.relpath(curve_csv, base)
    plot_parts = [
        f"'{rel}' using 1:{col} skip 1 with lines title '{label}'"
        for col, label in series]
    body = [
        f"# curve layout: {figure_id}",
        "set datafile separator ','",
        "set terminal svg size 760,520",
        f"set output '{figure_id}.svg'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key left top",
    ]
    if xscale == "log":
        body.append("set logscale x")
    body.append("plot " + ", \\\n     ".join(plot_parts))
    return "\n".join(body) + "\n"


def _cmd_emit_plot(args, argv, t0):
    out = args.out or (os.path.splitext(args.csv)[0] + ".gp")
    text = emit_plot_script(args.csv, args.figure,
                            script_dir=os.path.dirname(out) or ".")
    _write_text(out, text)
    inputs = {"csv_sha256": _file_sha256(args.csv), "figure": args.figure}
    _write_manifest(out, argv, inputs, None, [out], t0)
    return 0


# --------------------------------------------------------------- parser

def _add_out_json(p, out_required=False):
    p.add_argument("--out", required=out_required, default=None,
                   help="output file path")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cot-lab",
                     description="Distortion curves, thresholds, and "
                                 "simulators for channel-aware transport.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                required=True)

    p = sub.add_parser("binary-curves", help="distortion curves for the "
                       "biased-bit source over a symmetric channel")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=0.5)
    p.add_argument("--points", type=_int_in(2, MAX_POINTS), default=512)
    _add_out_json(p, out_required=True)
    p.set_defaults(handler=_cmd_binary_curves)

    p = sub.add_parser("binary-thresholds",
                       help="mode-switch noise levels of the hybrid scheme")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=0.5)
    p.add_argument("--points", type=_int_in(2, MAX_POINTS), default=512)
    _add_out_json(p)
    p.set_defaults(handler=_cmd_binary_thresholds)

    p = sub.add_parser("gaussian-curves", help="distortion curves for the "
                       "diagonal Gaussian source over a unit-noise channel")
    p.add_argument("--lambdas", required=True,
                   help="comma-separated eigenvalues, descending")
    p.add_argument("--gamma-min", type=float, default=0.01)
    p.add_argument("--gamma-max", type=float, default=100.0)
    p.add_argument("--points", type=_int_in(2, MAX_POINTS), default=256)
    p.add_argument("--linear-grid", action="store_true",
                   help="use a linear budget grid instead of log spacing")
    _add_out_json(p, out_required=True)
    p.set_defaults(handler=_cmd_gaussian_curves)

    p = sub.add_parser("gamma-star",
                       help="budget where the optimal analog share leaves 0")
    p.add_argument("--lambdas", required=True)
    _add_out_json(p)
    p.set_defaults(handler=_cmd_gamma_star)

    p = sub.add_parser("capacity", help="constrained capacity of a JSON "
                       "channel by alternating maximization")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--gamma", type=float, default=None,
                   help="input cost budget (omit for unconstrained)")
    _add_out_json(p)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("rl-ot", help="minimum transport cost under a "
                       "mutual-information rate cap")
    p.add_argument("--source", required=True, help="marginal JSON file")
    p.add_argument("--target", required=True, help="marginal JSON file")
    p.add_argument("--cost", required=True, help="cost matrix JSON file")
    p.add_argument("--rate", type=float, required=True)
    _add_out_json(p)
    p.set_defaults(handler=_cmd_rl_ot)

    p = sub.add_parser("ot", help="exact unconstrained transport LP")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--cost", required=True)
    _add_out_json(p)
    p.set_defaults(handler=_cmd_ot)

    p = sub.add_parser("hybrid-eval",
                       help="feasibility report for a candidate spec")
    p.add_argument("--spec", required=True, help="spec JSON file")
    _add_out_json(p)
    p.set_defaults(handler=_cmd_hybrid_eval)

    sim = sub.add_parser("simulate", help="Monte Carlo schemes")
    simsub = sim.add_subparsers(dest="scheme", parser_class=_Parser,
                                required=True)

    def sim_flags(q):
        q.add_argument("--seed", type=int, required=True)
        q.add_argument("--samples", type=_int_in(1, MAX_SAMPLES),
                       required=True)
        q.add_argument("--workers", type=int, default=1)
        _add_out_json(q)

    q = simsub.add_parser("uncoded-binary")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--decoder", default="0,0",
                   help="flip probabilities 'a,b' of the output map")
    sim_flags(q)
    q.set_defaults(handler=_cmd_sim_uncoded_binary)

    q = simsub.add_parser("uncoded-gaussian")
    q.add_argument("--lambdas", required=True)
    q.add_argument("--gamma", type=float, required=True)
    sim_flags(q)
    q.set_defaults(handler=_cmd_sim_uncoded_gaussian)

    q = simsub.add_parser("genie-hybrid")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--delta1", type=float, required=True)
    sim_flags(q)
    q.set_defaults(handler=_cmd_sim_genie_hybrid)

    q = simsub.add_parser("block-hybrid")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--rate", type=float, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--typ-delta", type=float, default=0.1)
    q.add_argument("--codebooks", type=_int_in(1, MAX_CODEBOOKS),
                   default=32)
    sim_flags(q)
    q.set_defaults(handler=_cmd_sim_block_hybrid)

    p = sub.add_parser("emit-plot",
                       help="gnuplot script for a curve CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--figure", required=True,
                   help="layout id, fig1 through fig6")
    p.add_argument("--out", default=None,
                   help="script path (default: CSV stem + .gp)")
    p.set_defaults(handler=_cmd_emit_plot)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    t0 = time.time()
    try:
        if getattr(args, "workers", None) is not None:
            cap = os.environ.get("COT_LAB_THREADS")
            if cap is not None:
                try:
                    cap = int(cap)
                except ValueError:
                    raise ValueError("COT_LAB_THREADS must be an integer")
                args.workers = max(1, min(args.workers, cap))
        return args.handler(args, argv, t0)
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
