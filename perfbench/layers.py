"""Per-layer metrics of the traced pass. A layer is a `cot_lab` module.

Names are "<module>.self_s" (self time of all the module's spans),
"<module>.<function>.calls" and "<module>.<function>.s" (inclusive seconds
of the outermost calls), plus a few derived rates named in LAYER_METRICS.
"""

import os

# metric name -> (unit, the end-to-end metrics it should move, workloads)
LAYER_METRICS = {
    "numkit.self_s": ("s", "wall_s slowest_cmd_s", "figures thresholds"),
    "numkit.binary_entropy.calls":
        ("count", "wall_s slowest_cmd_s", "figures thresholds"),
    "numkit.binary_entropy_inv.calls":
        ("count", "wall_s slowest_cmd_s", "figures thresholds"),
    "numkit.minimize_1d.calls":
        ("count", "wall_s slowest_cmd_s", "figures thresholds"),
    "numkit.minimize_1d.s": ("s", "wall_s slowest_cmd_s",
                             "figures thresholds"),
    "numkit.find_root.calls":
        ("count", "wall_s slowest_cmd_s", "figures thresholds"),
    "binary_case.self_s": ("s", "wall_s", "figures thresholds"),
    "binary_case.hybrid_distortion.calls":
        ("count", "wall_s", "figures thresholds"),
    "binary_case.d_hybrid.calls": ("count", "wall_s", "figures thresholds"),
    "binary_case.delta1_prime.calls":
        ("count", "wall_s", "figures thresholds"),
    "binary_case.binary_curves.s": ("s", "slowest_cmd_s", "figures"),
    "binary_case.classify_mode.calls":
        ("count", "wall_s slowest_cmd_s", "thresholds"),
    "binary_case.thresholds.s": ("s", "wall_s slowest_cmd_s", "thresholds"),
    "gaussian_case.self_s": ("s", "wall_s", "figures"),
    "gaussian_case.gaussian_curves.s": ("s", "wall_s", "figures"),
    "gaussian_case.d_hybrid.calls": ("count", "wall_s", "figures"),
    "infokit.self_s": ("s", "wall_s slowest_cmd_s", "solvers"),
    "infokit.blahut_arimoto.calls":
        ("count", "wall_s slowest_cmd_s", "solvers"),
    "infokit.blahut_arimoto.s": ("s", "wall_s slowest_cmd_s", "solvers"),
    "infokit.rate_limited_ot.calls":
        ("count", "wall_s slowest_cmd_s", "solvers"),
    "infokit.rate_limited_ot.s": ("s", "wall_s slowest_cmd_s", "solvers"),
    "infokit.entropic_plan.calls":
        ("count", "wall_s slowest_cmd_s", "solvers"),
    "infokit.entropic_plan.s": ("s", "wall_s slowest_cmd_s", "solvers"),
    "infokit.ot_min_cost.s": ("s", "wall_s slowest_cmd_s", "solvers"),
    "infokit.sinkhorn_per_point": ("ratio", "wall_s", "solvers"),
    "hybrid_bound.evaluate.calls": ("count", "wall_s", "solvers"),
    "hybrid_bound.evaluate.s": ("s", "wall_s", "solvers"),
    "block_sim.self_s": ("s", "wall_s", "simulate"),
    "block_sim.sim_uncoded_binary.samples_per_s": ("1/s", "wall_s",
                                                   "simulate"),
    "block_sim.sim_uncoded_gaussian.samples_per_s": ("1/s", "wall_s",
                                                     "simulate"),
    "block_sim.sim_genie_hybrid_binary.samples_per_s": ("1/s", "wall_s",
                                                        "simulate"),
    "block_sim.sim_block_hybrid.n8_s":
        ("s", "slowest_cmd_s wall_s", "simulate"),
    "block_sim.sim_block_hybrid.n12_s":
        ("s", "slowest_cmd_s wall_s", "simulate"),
    "block_sim.sim_block_hybrid.codebooks_per_s":
        ("1/s", "slowest_cmd_s wall_s", "simulate"),
    "block_sim.sim_block_hybrid.peak_alloc_mib":
        ("MiB", "peak_rss_mib", "simulate"),
    "tables.to_csv.s": ("s", "wall_s", "figures"),
    "cli.self_s": ("s", "wall_s", "figures thresholds solvers simulate"),
    "cli.out_bytes": ("bytes", "wall_s",
                      "figures thresholds solvers simulate"),
    "cli.files_written": ("count", "wall_s",
                          "figures thresholds solvers simulate"),
    "trace.overhead_s": ("s", "-", "figures thresholds solvers simulate"),
}

# short metric name -> span name, where the module's own name differs
SPAN = {"tables.to_csv": "tables.CurveTable.to_csv"}


def metrics(rec, out_dirs, measured):
    """Every metric in LAYER_METRICS as {name: (value, unit)}; `measured`
    holds the ones taken outside the spans."""
    table = rec.table()

    def stat(short, field):
        return table.get(SPAN.get(short, short), {}).get(field, 0)

    def rate(name):
        spans = rec.tagged(f"block_sim.{name}")
        secs = sum(d for d, _ in spans)
        return sum(i["samples"] for _, i in spans) / secs if secs else 0.0

    blocks = rec.tagged("block_sim.sim_block_hybrid")
    block_s = sum(d for d, _ in blocks)
    files = [os.path.join(d, f) for d in out_dirs for f in os.listdir(d)
             if f != "stderr.txt"]
    values = {
        "infokit.sinkhorn_per_point":
            stat("infokit.entropic_plan", "calls")
            / max(stat("infokit.rate_limited_ot", "calls"), 1),
        "block_sim.sim_block_hybrid.n8_s":
            sum(d for d, i in blocks if i["n"] == 8),
        "block_sim.sim_block_hybrid.n12_s":
            sum(d for d, i in blocks if i["n"] == 12),
        "block_sim.sim_block_hybrid.codebooks_per_s":
            sum(i["codebooks"] for _, i in blocks) / block_s
            if block_s else 0.0,
        "cli.out_bytes": sum(os.path.getsize(f) for f in files),
        "cli.files_written": len(files),
        **measured,
    }
    out = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        head, _, tail = name.rpartition(".")
        if name in values:
            value = values[name]
        elif name.endswith(".samples_per_s"):
            value = rate(head.split(".", 1)[1])
        elif tail == "self_s":
            value = rec.module_self(head)
        elif tail == "calls":
            value = stat(head, "calls")
        else:
            value = stat(head, "incl_s")
        out[name] = (value, unit)
    return out
