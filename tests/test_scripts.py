"""The scripts under ``scripts/`` run end to end on the committed bench checkpoint."""

import csv
import importlib.util
from pathlib import Path

from flowopt import harness

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_budgeted_comparison_on_bench_checkpoint(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    comparison = _script("run_budgeted_comparison")
    comparison.main(["--ckpt", str(ROOT / "bench" / "ckpt"), "--seeds", "2", "--out", str(out)])
    printed = capsys.readouterr().out
    for proposer in harness.PROPOSERS:
        assert f"{proposer:<16} mean=" in printed and "n=2" in printed
    assert "guided-flow vs random: bootstrap 10th pct" in printed
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["proposer"], r["seed"]) for r in rows] == [
        (p, str(s)) for p in harness.PROPOSERS for s in range(2)]
    assert all(r["calls"] == "100" for r in rows)
