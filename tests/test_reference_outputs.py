"""The curve and threshold commands against the committed benchmark
references in perfbench/reference/full (read only).

The benchmark rejects a change whose outputs leave these references, so the
same contract is checked here: every CSV value within 1e-12, switch labels
equal, switch abscissas within 1e-4.
"""

import json
import os

import pytest

from cot_lab import cli

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "perfbench", "reference", "full")


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")]
                                 for ln in lines[1:] if ln]


def _switches(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["thresholds"]


def test_curves_and_thresholds_match_references(tmp_path):
    figures = os.path.join(REFERENCE, "figures")
    runs = [(["binary-curves", "--rho", str(rho), "--points", "512"],
             f"b{rho}.csv", figures) for rho in (0.25, 0.35)]
    runs.append((["gaussian-curves", "--lambdas", "1.5,0.5", "--points",
                  "256"], "g.csv", figures))
    runs += [(["binary-thresholds", "--rho", str(rho), "--points", "256"],
              f"thr{rho}.json", os.path.join(REFERENCE, "thresholds"))
             for rho in (0.25, 0.35)]
    for argv, name, refdir in runs:
        out = str(tmp_path / name)
        assert cli.main(argv + ["--out", out]) == 0, argv
        want = os.path.join(refdir, name)
        if name.endswith(".csv"):
            head, rows = _read_csv(out)
            ref_head, ref_rows = _read_csv(want)
            assert head == ref_head and len(rows) == len(ref_rows), name
            worst = max(abs(a - b) for r, s in zip(rows, ref_rows)
                        for a, b in zip(r, s))
            assert worst <= 1e-12, name
        else:
            got, ref = _switches(out), _switches(want)
            assert [e["switch"] for e in got] == \
                [e["switch"] for e in ref], name
            for g, w in zip(got, ref):
                assert g["theta"] == pytest.approx(w["theta"], abs=1e-4)


@pytest.mark.parametrize("rho", [0.25, 0.35])
def test_thresholds_are_byte_identical_to_references(tmp_path, rho):
    out = tmp_path / f"thr{rho}.json"
    argv = ["binary-thresholds", "--rho", str(rho), "--points", "256",
            "--out", str(out)]
    assert cli.main(argv) == 0
    with open(os.path.join(REFERENCE, "thresholds", f"thr{rho}.json"),
              "rb") as fh:
        assert out.read_bytes() == fh.read()
