"""Summarize benchmark runs into one record of the performance trajectory.

    python3 perfbench/record.py [HISTORY] > perfbench/baseline.json

Reads the runs that perfbench/run.py appended to .perfbench/history.jsonl
(or HISTORY) and prints machine facts, each workload's end-to-end metrics
as median and quartiles over its runs, the per-layer table of the traced
runs, and the map of which layer metric should move which end-to-end metric
on which workload.
"""

import json
import os
import platform
import statistics
import sys

import layers


def machine():
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def summarize(runs):
    e2e, traced = {}, {}
    for run in runs:
        if run["mode"] != "full":
            continue
        if run["trace"]:
            # every traced run covers all command lists; keep the latest
            # per-function table once and each workload's metrics
            traced.setdefault("metrics", {})[run["workload"]] = {
                "seed": run["seed"],
                **{k: v["value"] for k, v in run["result"]["metrics"].items()}}
            traced["functions"] = run["detail"]["functions"]
            continue
        slot = e2e.setdefault(run["workload"], {"seeds": [], "failed": 0,
                                                "attempted": 0, "values": {}})
        slot["seeds"].append(run["seed"])
        slot["failed"] += run["result"]["failed"]
        slot["attempted"] += run["result"]["attempted"]
        for name, m in run["result"]["metrics"].items():
            slot["values"].setdefault(name, []).append(m["value"])
    for slot in e2e.values():
        slot["runs"] = len(slot["seeds"])
        slot["fail_ratio"] = slot["failed"] / slot["attempted"]
        slot["metrics"] = {k: spread(v) for k, v in slot.pop("values").items()}
    commits = sorted({str(run.get("commit")) for run in runs})
    if len(commits) != 1:
        raise SystemExit(f"runs of several commits {commits}; summarize the "
                         "runs of one commit at a time")
    return {"commit": commits[0], "machine": machine(), "end_to_end": e2e,
            "traced": traced,
            "layer_map": {name: {"unit": unit, "moves": moves.split(),
                                 "on": on.split()}
                          for name, (unit, moves, on)
                          in layers.LAYER_METRICS.items()}}


def main(argv):
    path = argv[0] if argv else os.path.join(".perfbench", "history.jsonl")
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    json.dump(summarize(runs), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
