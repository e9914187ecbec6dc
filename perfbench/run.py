"""cot-lab benchmark: runs the real CLI commands of one workload and prints
the end-to-end metrics (or, with --trace 1, the per-layer metrics).

    python3 perfbench/run.py --workload figures --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the program under test is imported
from ./src. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PER_PASS = 3

E2E_UNITS = {"wall_s": "s", "slowest_cmd_s": "s", "setup_s": "s",
             "peak_rss_mib": "MiB"}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _timed_child(argv, cwd, err_path):
    """Run one child to completion: (seconds, exit code, peak RSS in MiB)."""
    with open(err_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def time_imports(work, count):
    """Seconds taken by each of `count` fresh interpreters importing the
    CLI module."""
    argv = [sys.executable, "-c", "import cot_lab.cli"]
    err = os.path.join(work, "setup.err")
    times = []
    for _ in range(count):
        elapsed, code, _ = _timed_child(argv, work, err)
        if code != 0:
            raise RuntimeError(f"import cot_lab.cli failed; see {err}")
        times.append(elapsed)
    return times


def run_pass(cmds, outdir, refdir, log):
    """One pass of the command list as fresh CLI processes, one after
    another. Returns the pass record and the number of failed commands."""
    _fresh_dir(outdir)
    err = os.path.join(outdir, "stderr.txt")
    rows, failed = [], 0
    for cmd in cmds:
        argv = [sys.executable, "-m", "cot_lab.cli"] + cmd.argv
        elapsed, code, rss = _timed_child(argv, outdir, err)
        rows.append((elapsed, rss))
        problems = [f"exit code {code}"] if code else \
            workloads.check_command(cmd, outdir, refdir)
        if problems:
            failed += 1
            log(f"FAIL {' '.join(cmd.argv[:3])}: {'; '.join(problems)}")
    return {"wall_s": sum(r[0] for r in rows),
            "slowest_cmd_s": max(r[0] for r in rows),
            "peak_rss_mib": max(r[1] for r in rows),
            "cmd_s": [r[0] for r in rows]}, failed


def end_to_end(args, cmds, work, refdir, log):
    """Passes until args.seconds have gone by, with set-up timed before each
    pass, so that its samples spread over the run like the passes do."""
    time_imports(work, 1)  # warm-up; also fills the bytecode cache
    setup, passes, attempted, failed = [], [], 0, 0
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        setup += time_imports(work, 1 if args.smoke else SETUP_PER_PASS)
        rec, bad = run_pass(cmds, os.path.join(work, "pass"), refdir, log)
        passes.append(rec)
        attempted += len(cmds)
        failed += bad
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "slowest_cmd_s", "peak_rss_mib")}
    metrics["setup_s"] = statistics.median(setup)
    detail = {"passes": passes, "setup_s": setup}
    return {k: (metrics[k], unit) for k, unit in E2E_UNITS.items()}, \
        attempted, failed, detail


def in_process(cli, cmds, outdir, refdir, log):
    """Run a command list through cli.main(argv) in this process.
    Returns per-command seconds and the number of failed commands."""
    _fresh_dir(outdir)
    times, failed = [], 0
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for cmd in cmds:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(list(cmd.argv))
            times.append(time.perf_counter() - t0)
            problems = [f"exit code {code}: {sink.getvalue()[-300:]}"] \
                if code else workloads.check_command(cmd, outdir, refdir)
            if problems:
                failed += 1
                log(f"FAIL {' '.join(cmd.argv[:3])}: {'; '.join(problems)}")
    finally:
        os.chdir(here)
    return times, failed


def _same_bytes(cmds, dir_a, dir_b):
    """Data files of dir_a and dir_b that differ."""
    bad = []
    for cmd in cmds:
        for name in cmd.data:
            with open(os.path.join(dir_a, name), "rb") as a, \
                    open(os.path.join(dir_b, name), "rb") as b:
                if a.read() != b.read():
                    bad.append(name)
    return bad


def traced(args, lists, work, log):
    """The traced pass: every workload's command list run in-process under
    the span recorder, plus this workload's list run untraced in-process
    for the overhead and the byte-identity check."""
    import layers
    import trace
    import cot_lab.cli as cli

    rec = trace.Recorder()
    traced_cli = rec.install()
    attempted, failed, cmd_s = 0, 0, {}
    try:
        for name, cmds in lists.items():
            cmd_s[name], bad = in_process(
                traced_cli, cmds, os.path.join(work, f"traced-{name}"),
                workloads.reference_dir(args.mode, name), log)
            attempted += len(cmds)
            failed += bad
    finally:
        rec.uninstall()

    # untraced after traced, so that both find lazy imports and caches warm
    own = lists[args.workload]
    plain_dir = os.path.join(work, "untraced")
    plain_s, bad = in_process(
        cli, own, plain_dir,
        workloads.reference_dir(args.mode, args.workload), log)
    attempted += len(own)
    failed += bad
    mismatch = _same_bytes(own, plain_dir,
                           os.path.join(work, f"traced-{args.workload}"))
    if mismatch:
        failed += len(mismatch)
        log(f"FAIL traced outputs differ from untraced: {mismatch}")
    rec.save(os.path.join(work, "spans.npz"))
    out_dirs = [os.path.join(work, f"traced-{name}") for name in lists]
    metrics = layers.metrics(rec, out_dirs, {
        "trace.overhead_s": sum(cmd_s[args.workload]) - sum(plain_s),
        "block_sim.sim_block_hybrid.peak_alloc_mib":
            alloc_probe(cli, lists["simulate"], work)})
    detail = {"functions": rec.table(), "cmd_s": cmd_s,
              "untraced_cmd_s": plain_s}
    return metrics, attempted, failed, detail


def alloc_probe(cli, cmds, work):
    """Peak traced allocation in MiB, numpy buffers included, of the
    largest block-hybrid command cut to two codebooks. Run apart from the
    spans because tracemalloc slows this command about fourfold; the peak
    is reached within the first two codebooks."""
    def n_of(cmd):
        return int(cmd.argv[cmd.argv.index("--n") + 1])

    big = max((c for c in cmds if "block-hybrid" in c.argv), key=n_of)
    argv = list(big.argv)
    argv[argv.index("--codebooks") + 1] = "2"
    outdir = _fresh_dir(os.path.join(work, "alloc-probe"))
    here = os.getcwd()
    os.chdir(outdir)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.chdir(here)
    if code:
        raise RuntimeError(f"allocation probe exited with {code}")
    return peak / 2 ** 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=16,
                   help="measure passes until this many seconds have gone")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: every workload once, untraced and "
                        "traced, to exercise metric names and checks")
    args = p.parse_args(argv)
    args.mode = "smoke" if args.smoke else "full"
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must lie in [1, 60]")
    if not 0 <= args.seed < 2 ** 32:
        p.error("--seed must lie in [0, 2^32)")
    return args


def checked_out_commit():
    """The commit checked out at ROOT, read from .git without running git;
    None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _print_metrics(workload, metrics, log):
    for name, (value, unit) in metrics.items():
        log(f"{workload:10s} {name:48s} {value:14.6g} {unit}")


def run_one(args, log):
    """One benchmark run; returns the result object."""
    work = _fresh_dir(os.path.join(WORK, f"{args.workload}-trace{args.trace}"))
    lists = {}
    for name in (workloads.NAMES if args.trace else (args.workload,)):
        lists[name] = workloads.build(name, args.mode, args.seed,
                                      os.path.join(work, "inputs"))
    if args.trace:
        metrics, attempted, failed, detail = traced(args, lists, work, log)
    else:
        metrics, attempted, failed, detail = end_to_end(
            args, lists[args.workload], work,
            workloads.reference_dir(args.mode, args.workload), log)
    _print_metrics(args.workload, metrics, log)
    log(f"{args.workload:10s} {'fail_ratio':48s} "
        f"{failed / attempted:14.6g} fraction ({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"commit": checked_out_commit(),
              "workload": args.workload, "seed": args.seed,
              "mode": args.mode, "trace": args.trace,
              "seconds": args.seconds, "result": result, "detail": detail}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    # every run, for perfbench/record.py to summarize
    with open(os.path.join(WORK, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)

    def log(line):
        print(line, flush=True)

    if not os.path.isfile(os.path.join(SRC, "cot_lab", "cli.py")):
        sys.stderr.write("perfbench: no src/cot_lab/cli.py here; run from "
                         "the root of a cot-lab source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if not args.smoke:
        log(f"workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}")
        result = run_one(args, log)
    else:
        # every workload once untraced, then one traced run, which covers
        # every workload's command list
        ok, attempted, failed = True, 0, 0
        runs = [(name, 0) for name in workloads.NAMES] + [(args.workload
                                                          or "figures", 1)]
        for args.workload, args.trace in runs:
            args.seconds = 1
            res = run_one(args, log)
            ok &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
        result = {"correct": ok, "attempted": attempted, "failed": failed,
                  "metrics": {}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
