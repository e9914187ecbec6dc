"""Command-line front end.

Every subcommand that writes a data file also writes a run manifest next to
it (<out>.manifest.json) recording the command line, a hash of the parsed
inputs (_config_hash), the library version, the seed if any, the list of
output files, and the wall-clock time. Data artifacts (CSV/JSON) are strict
JSON and contain no timestamps, so a rerun with the same inputs is
byte-identical; only the manifest's clock field varies.

Exit codes: 0 on success, 1 on validation or usage errors, 2 on numerical
failures (lost brackets, iteration overflow, solver divergence).
"""

import argparse
import json
import math
import os
import sys
import time

# numpy and the numerics are imported inside each handler, so a command
# loads only what it runs: emit-plot needs no numpy. Manifests are hashed
# without hashlib (see _sha256)
from . import (CURVE_COLUMNS, GAUSSIAN_COLUMNS, BracketError, MaxIterError,
               SinkhornDivergence, __version__)

_NUMERICAL_ERRORS = (BracketError, MaxIterError, SinkhornDivergence,
                     ArithmeticError)

# most points of a curve grid: the optimizer holds about 45 floats per point
# (5.6 MiB traced at 2^14), and binary-curves there peaks at 46 MiB RSS
MAX_POINTS = 2 ** 14
# most sampled blocks of one simulation, over all its codebooks: about
# 30,000 chunks of 2^15
MAX_SAMPLES = 10 ** 9
# most codebooks of one block-hybrid run: each is one exact-law enumeration,
# about 0.08 s at n = 12, so a run's laws take under about 1.5 min there
MAX_CODEBOOKS = 2 ** 10
# longest block-hybrid blocklength: the binary candidate's rate under 1
# allows up to 2^n messages over 2^n blocks, and block_sim's byte gate
# admits that codebook at n = 12 (128 MiB) but not at n = 13 (513 MiB)
MAX_BLOCK_N = 12


class _UsageError(Exception):
    """A refused command line; its text is the error, after the usage
    when argparse refused it."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exceptions so main()
    can map them to exit code 1 instead of argparse's default 2."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}\n")


# ------------------------------------------------------------- utilities

def _int_in(lo: int, hi: int):
    """argparse type for an integer in [lo, hi]."""
    def integer(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}]")
        return n
    return integer


def _floats(count: int = None):
    """argparse type for comma-separated numbers: exactly `count` of them,
    or one or more when count is None."""
    def floats(text: str) -> list:
        try:
            values = [float(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            values = []
        if not values or count not in (None, len(values)):
            raise argparse.ArgumentTypeError(
                f"expected {count or 'one or more'} comma-separated numbers, "
                f"got {text!r}")
        return values
    return floats


def _out_path(text: str) -> str:
    """argparse type for an output path: a file in an existing directory,
    so a command cannot do all its work and then fail to write. The empty
    path names the working directory, as pathlib reads it."""
    if os.path.isdir(text or ".") or text.endswith(("/", os.sep)):
        raise argparse.ArgumentTypeError(f"{text!r} names a directory, "
                                         "not a file")
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no directory {folder!r} to write "
                                         f"{os.path.basename(text)!r} in")
    return text


class _InputFile(str):
    """argparse type of a flag that names an input file. _read_inputs reads
    the file once, right after parsing: handlers parse its `data`, and
    config_hash covers their SHA-256, not the path."""


def _read_inputs(args):
    """Read every input file of a parsed command line, so a missing one is
    refused before any work and a file changed later cannot reach the
    results or the manifest."""
    for name, value in vars(args).items():
        if isinstance(value, _InputFile):
            try:
                with open(value, "rb") as fh:
                    value.data = fh.read()
            except OSError as exc:
                raise _UsageError(f"error: argument --{name}: cannot read "
                                  f"{value!r}: {exc.strerror}\n") from None


# flags that say where and how results go, not what is computed
_UNHASHED = ("out", "json", "workers", "handler")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    # strict JSON: a NaN or infinity raises ValueError before any write
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sha256(data: bytes) -> str:
    # CPython's own SHA-256, taken as random.py takes its sha512: hashlib
    # maps OpenSSL's libcrypto, about 3.3 MiB resident, and process RSS
    # keeps it on top of a command's peak even after the numerics are done
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _load_json(source: _InputFile):
    try:
        return json.loads(source.data.decode("utf-8"))
    except RecursionError:  # nested past the parser's stack
        raise ValueError(f"{source}: JSON nested too deeply") from None


def _config_hash(args) -> str:
    """SHA-256 over every parsed input (command and scheme names included),
    input files by content; order-free, and blind to _UNHASHED."""
    inputs = {name: _sha256(value.data) if isinstance(value, _InputFile)
              else value
              for name, value in vars(args).items() if name not in _UNHASHED}
    return _sha256(json.dumps(inputs, sort_keys=True).encode("utf-8"))


def _write_manifest(anchor: str, argv, args, outputs, t0):
    manifest = {
        "command_line": ["cot-lab"] + list(argv),
        "config_hash": _config_hash(args),
        "library_version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "wall_clock_s": round(time.time() - t0, 6),
    }
    _write_text(anchor + ".manifest.json", _dump_json(manifest))


def _emit_table(table, args, argv, t0):
    files = [(args.out, table.to_csv())]
    if args.json:
        files.append((os.path.splitext(args.out)[0] + ".json",
                      _dump_json(table.to_json_obj())))
    for path, text in files:
        _write_text(path, text)
    _write_manifest(args.out, argv, args, [path for path, _ in files], t0)
    return 0


def _emit_result(result: dict, args, argv, t0, human):
    text = _dump_json(result)
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, argv, args, [args.out], t0)
    sys.stdout.write(text if args.json else "\n".join(human) + "\n")
    return 0


# ----------------------------------------------------------- subcommands

def _check_finite(args, *names):
    """Refuse non-finite grid bounds before numpy builds a grid from them."""
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be finite, got {value!r}")


def _binary_config(args):
    import numpy as np
    from .binary_case import BinaryConfig
    _check_finite(args, "theta_min", "theta_max")
    grid = np.linspace(args.theta_min, args.theta_max, args.points)
    return BinaryConfig(args.rho, tuple(grid))


def _cmd_binary_curves(args, argv, t0):
    from .binary_case import binary_curves
    return _emit_table(binary_curves(_binary_config(args)), args, argv, t0)


def _cmd_binary_thresholds(args, argv, t0):
    from .binary_case import thresholds
    events = thresholds(_binary_config(args))
    result = {"rho": args.rho,
              "thresholds": [{"theta": t, "switch": label}
                             for t, label in events]}
    human = [f"theta={t:.6f}  {label}" for t, label in events] or \
        ["no mode switches on this grid"]
    return _emit_result(result, args, argv, t0, human)


def _cmd_gaussian_curves(args, argv, t0):
    import numpy as np
    from .gaussian_case import GaussianConfig, gaussian_curves
    _check_finite(args, "gamma_min", "gamma_max")
    if args.linear_grid:
        grid = np.linspace(args.gamma_min, args.gamma_max, args.points)
    else:
        for flag in ("gamma_min", "gamma_max"):
            if getattr(args, flag) <= 0.0:
                raise ValueError(f"{flag.replace('_', '-')} must be positive "
                                 "on a log grid")
        grid = np.logspace(np.log10(args.gamma_min),
                           np.log10(args.gamma_max), args.points)
    table = gaussian_curves(GaussianConfig(tuple(args.lambdas), tuple(grid)))
    return _emit_table(table, args, argv, t0)


def _cmd_gamma_star(args, argv, t0):
    from .gaussian_case import gamma_star
    value = gamma_star(args.lambdas)
    return _emit_result({"lambdas": args.lambdas, "gamma_star": value},
                        args, argv, t0, [f"gamma_star = {value!r}"])


def _cmd_capacity(args, argv, t0):
    from .infokit import (blahut_arimoto, channel_from_json,
                          distribution_to_json)
    ch = channel_from_json(_load_json(args.channel))
    cap, opt = blahut_arimoto(ch, args.gamma)
    result = {"capacity_bits": cap, "gamma": args.gamma,
              "optimal_input": distribution_to_json(opt)}
    return _emit_result(result, args, argv, t0, [f"capacity = {cap!r} bits"])


def _transport_inputs(args):
    """Source and target marginals and the cost matrix of ot and rl-ot."""
    from .infokit import distribution_from_json, json_numbers
    return (distribution_from_json(_load_json(args.source)),
            distribution_from_json(_load_json(args.target)),
            json_numbers(_load_json(args.cost), "cost matrix"))


def _cmd_rl_ot(args, argv, t0):
    from .infokit import rate_limited_ot
    point = rate_limited_ot(*_transport_inputs(args), args.rate)
    # rate 0 binds at an infinite multiplier, which strict JSON writes null
    result = {"rate": point.rate, "distortion": point.distortion,
              "multiplier": point.multiplier
              if math.isfinite(point.multiplier) else None}
    human = [f"distortion = {point.distortion!r} at rate {point.rate!r}"]
    return _emit_result(result, args, argv, t0, human)


def _cmd_ot(args, argv, t0):
    from .infokit import ot_min_cost
    d_star, plan = ot_min_cost(*_transport_inputs(args))
    result = {"d_star": d_star, "plan": plan.table.tolist()}
    return _emit_result(result, args, argv, t0, [f"d_star = {d_star!r}"])


def _cmd_hybrid_eval(args, argv, t0):
    from .hybrid_bound import evaluate, hybrid_spec_from_json, report_to_json
    report = evaluate(hybrid_spec_from_json(_load_json(args.spec)))
    human = [f"feasible = {report.feasible}",
             f"E[d] = {report.e_dist!r}",
             f"E[cost] = {report.e_cost!r}",
             f"I(X;Z) = {report.i_xz!r}",
             f"I(Y;Z) = {report.i_yz!r}",
             f"I(Z;V) = {report.i_zv!r}"]
    return _emit_result(report_to_json(report), args, argv, t0, human)


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
             # every law is enumerated; the keys keep the report schema
             "exact_law": True, "est_sigma": None}
            for d in rep.codebook_draws]
    if rep.notes:
        out["notes"] = list(rep.notes)
    return out


def _cmd_simulate(args, argv, t0):
    from . import block_sim
    sim = block_sim.SimConfig(args.seed, args.samples, args.workers)
    if args.scheme == "uncoded-binary":
        rep = block_sim.sim_uncoded_binary(args.rho, args.theta, args.decoder,
                                           sim)
    elif args.scheme == "uncoded-gaussian":
        rep = block_sim.sim_uncoded_gaussian(args.lambdas, args.gamma, sim)
    elif args.scheme == "genie-hybrid":
        rep = block_sim.sim_genie_hybrid_binary(args.rho, args.theta,
                                                args.delta1, sim)
    else:
        if args.samples * args.codebooks > MAX_SAMPLES:
            raise ValueError(
                f"--samples x --codebooks must be at most {MAX_SAMPLES}")
        cfg = block_sim.binary_separation_block_config(
            args.rho, args.delta, args.theta, args.rate, args.n,
            typ_delta=args.typ_delta, codebooks=args.codebooks)
        rep = block_sim.sim_block_hybrid(cfg, sim)
    human = [f"distortion = {rep.mean_distortion!r} +/- {rep.std_error!r}"]
    if args.scheme == "block-hybrid":
        human += [f"median msg_error_rate = {rep.msg_error_rate!r}",
                  f"median tv_to_target = {rep.tv_to_target!r}"]
    return _emit_result(_report_to_json(rep), args, argv, t0, human)


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
    with open(curve_csv, "rb") as fh:
        return _plot_script(fh.read(), curve_csv, figure_id, script_dir)


def _plot_script(data: bytes, curve_csv: str, figure_id: str,
                 script_dir: str) -> str:
    """emit_plot_script on the bytes of curve_csv."""
    if figure_id not in _FIGS:
        raise ValueError(
            f"unknown figure id {figure_id!r}; expected one of "
            f"{', '.join(sorted(_FIGS))}")
    family, xscale, series, xlabel, ylabel = _FIGS[figure_id]
    # universal newlines, as a file opened in text mode reads them
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln for ln in text.split("\n") if ln.strip()]
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
    # gnuplot's single-quoted strings escape a quote by doubling it
    rel = os.path.relpath(curve_csv, base).replace("'", "''")
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
    text = _plot_script(args.csv.data, args.csv, args.figure,
                        script_dir=os.path.dirname(out) or ".")
    _write_text(out, text)
    _write_manifest(out, argv, args, [out], t0)
    return 0


# --------------------------------------------------------------- parser

def _add_out_json(p, out_required=False):
    p.add_argument("--out", type=_out_path, required=out_required,
                   help="output file path")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cot-lab",
                     description="Distortion curves, thresholds, and "
                                 "simulators for channel-aware transport.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                required=True)

    grid = _Parser(add_help=False)
    grid.add_argument("--rho", type=float, required=True)
    grid.add_argument("--theta-min", type=float, default=0.0)
    grid.add_argument("--theta-max", type=float, default=0.5)
    grid.add_argument("--points", type=_int_in(2, MAX_POINTS), default=512)

    p = sub.add_parser("binary-curves", parents=[grid], help="distortion "
                       "curves for the biased-bit source over a symmetric "
                       "channel")
    _add_out_json(p, out_required=True)
    p.set_defaults(handler=_cmd_binary_curves)

    p = sub.add_parser("binary-thresholds", parents=[grid],
                       help="mode-switch noise levels of the hybrid scheme")
    _add_out_json(p)
    p.set_defaults(handler=_cmd_binary_thresholds)

    p = sub.add_parser("gaussian-curves", help="distortion curves for the "
                       "diagonal Gaussian source over a unit-noise channel")
    p.add_argument("--lambdas", type=_floats(), required=True,
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
    p.add_argument("--lambdas", type=_floats(), required=True)
    _add_out_json(p)
    p.set_defaults(handler=_cmd_gamma_star)

    p = sub.add_parser("capacity", help="constrained capacity of a JSON "
                       "channel by alternating maximization")
    p.add_argument("--channel", type=_InputFile, required=True,
                   help="channel JSON file")
    p.add_argument("--gamma", type=float, default=None,
                   help="input cost budget (omit for unconstrained)")
    _add_out_json(p)
    p.set_defaults(handler=_cmd_capacity)

    transport = _Parser(add_help=False)
    transport.add_argument("--source", type=_InputFile, required=True,
                           help="marginal JSON file")
    transport.add_argument("--target", type=_InputFile, required=True,
                           help="marginal JSON file")
    transport.add_argument("--cost", type=_InputFile, required=True,
                           help="cost matrix JSON file")

    p = sub.add_parser("rl-ot", parents=[transport], help="minimum transport "
                       "cost under a mutual-information rate cap")
    p.add_argument("--rate", type=float, required=True)
    _add_out_json(p)
    p.set_defaults(handler=_cmd_rl_ot)

    p = sub.add_parser("ot", parents=[transport],
                       help="exact unconstrained transport LP")
    _add_out_json(p)
    p.set_defaults(handler=_cmd_ot)

    p = sub.add_parser("hybrid-eval",
                       help="feasibility report for a candidate spec")
    p.add_argument("--spec", type=_InputFile, required=True,
                   help="spec JSON file")
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
        q.set_defaults(handler=_cmd_simulate)

    q = simsub.add_parser("uncoded-binary")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--decoder", type=_floats(2), default="0,0",
                   help="flip probabilities 'a,b' of the output map")
    sim_flags(q)

    q = simsub.add_parser("uncoded-gaussian")
    q.add_argument("--lambdas", type=_floats(), required=True)
    q.add_argument("--gamma", type=float, required=True)
    sim_flags(q)

    q = simsub.add_parser("genie-hybrid")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--delta1", type=float, required=True)
    sim_flags(q)

    q = simsub.add_parser("block-hybrid")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--rate", type=float, required=True)
    q.add_argument("--n", type=_int_in(1, MAX_BLOCK_N), required=True)
    q.add_argument("--typ-delta", type=float, default=0.1)
    q.add_argument("--codebooks", type=_int_in(1, MAX_CODEBOOKS),
                   default=32)
    sim_flags(q)

    p = sub.add_parser("emit-plot",
                       help="gnuplot script for a curve CSV")
    p.add_argument("--csv", type=_InputFile, required=True)
    p.add_argument("--figure", required=True,
                   help="layout id, fig1 through fig6")
    p.add_argument("--out", type=_out_path,
                   help="script path (default: CSV stem + .gp)")
    p.set_defaults(handler=_cmd_emit_plot)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _read_inputs(args)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    t0 = time.time()
    try:
        return args.handler(args, argv, t0)
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except KeyError as exc:  # a JSON input without a required field
        sys.stderr.write(f"missing field {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
