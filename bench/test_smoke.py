"""Tiny-size smoke run of the benchmark.

    python3 -m pytest -q bench/test_smoke.py

Trains a tiny checkpoint, runs every workload untraced and traced on a tiny
configuration (shaped like the harness tests' ``tiny_config``), and checks
that every metric is emitted with the unit and better-direction that
``BENCHMARK.json`` gives it, and that ``BENCHMARK.json`` lists exactly the
workloads and metrics the benchmark produces.
"""

import gc
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from flowopt import autodiff, harness, toyset  # noqa: E402
from flowopt.config import (BudgetConfig, DataConfig, EvalConfig, RunConfig,  # noqa: E402
                            SweepConfig)
from flowopt.flowmatch import FlowConfig  # noqa: E402
from flowopt.guidance import GuidanceConfig, ObjectiveSpec  # noqa: E402
from flowopt.seqvae import VaeConfig  # noqa: E402
from flowopt.surrogate import SurrogateConfig  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny_config(seed=0) -> RunConfig:
    return RunConfig(
        seed=seed,
        data=DataConfig(seed=5, count=120, min_len=3, max_len=8),
        vae=VaeConfig(K=2, d=8, embed_dim=8, enc_hidden=16, dec_hidden=16,
                      pretrain_epochs=1, finetune_epochs=1, batch_size=32),
        surrogate=SurrogateConfig(latent_dim=8, hidden=16, layers=2, epochs=2),
        flow=FlowConfig(K=2, d=8, hidden=16, layers=2, time_embed_dim=8,
                        steps=30, batch_size=32, sample_steps=6),
        guidance=GuidanceConfig(gamma=5.0, sigma=0.3, steps=4, t_start=0.5,
                                normalize_gradient=False),
        objective=ObjectiveSpec(mode="target", weights=(1.0, 0.5), targets=(0.8, 2.5)),
        budget=BudgetConfig(budget=20, init_size=5),
        evaluation=EvalConfig(bootstrap_resamples=50),
        sweep=SweepConfig(grid=(0.0, 5.0), seeds=(0,), candidates=6),
    )


@pytest.fixture(scope="module")
def tiny_settings(tmp_path_factory):
    cfg = tiny_config()
    ckpt = tmp_path_factory.mktemp("ckpt")
    ds = toyset.generate_dataset(cfg.data.seed, cfg.data.count, cfg.data.min_len,
                                 cfg.data.max_len)
    harness.pipeline_train(cfg, ds, ckpt)
    return workloads.Settings(cfg=cfg, ckpt_dir=str(ckpt),
                              ckpt_manifest=workloads.checkpoint_manifest(ckpt))


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_emitted_metrics(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracer.layer_metric_specs()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_committed_checkpoint_matches_its_manifest():
    settings = workloads.default_settings(BENCH)
    assert workloads.checkpoint_manifest(settings.ckpt_dir) == {
        "files": settings.ckpt_manifest["files"],
        "vocab_hash": settings.ckpt_manifest["vocab_hash"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(tiny_settings, tmp_path, workload, trace):
    result, details = workloads.run(tiny_settings, workload, seed=1, seconds=0.1, trace=trace,
                                    out_dir=str(tmp_path / "out"), import_s=0.1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.E2E if trace == 0 else tracer.layer_metric_specs()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: unit for k, (unit, _) in expected.items()}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if trace == 0:
        assert all(v > 0 for v in values)
    else:
        assert details["outputs_identical"]
        assert (tmp_path / "out" / "spans.jsonl.gz").exists()


def test_tracer_restores_every_patched_name(tiny_settings, tmp_path):
    def snapshot():
        names = {(id(owner), t.attr): vars(owner).get(t.attr)
                 for t in tracer.TARGETS for owner in t.owners}
        names["Tensor.__init__"] = vars(autodiff.Tensor)["__init__"]
        return names

    before = snapshot()
    workloads.run(tiny_settings, "budgeted", seed=2, seconds=0.1, trace=1,
                  out_dir=str(tmp_path / "out"), import_s=0.1)
    assert snapshot() == before


def test_clock_restores_the_alarm_handler_and_collection():
    handler = signal.getsignal(signal.SIGALRM)
    metrics = {}
    clock = workloads.Clock()
    with clock.measure("x", metrics):
        sum(i * i for i in range(200_000))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()
    assert 0 < clock.unscaled["x"] and 0 < metrics["x"]


def test_probe_runs_the_kernel_with_collection_off(monkeypatch):
    states = []
    monkeypatch.setattr(workloads, "calibrate", lambda: states.append(gc.isenabled()) or 0.001)
    assert workloads.probe() == 0.001
    assert states == [False, False] and gc.isenabled()


def test_committed_guards_cover_every_guard():
    settings = workloads.default_settings(BENCH)
    assert set(settings.guards["values"]) == set(workloads.GUARDS)
    assert all(workloads.E2E[name][0] != "s" for name in workloads.GUARDS)


def test_a_guard_off_its_recorded_value_fails_either_way():
    expected = {"rtol": 0.02, "values": {"hvi_mean": 0.2}}
    feeds = {"hvi_mean", "sweep_s"}
    assert workloads.guard_failures(expected, {"hvi_mean": 0.201, "sweep_s": 9.0}, feeds) == []
    assert workloads.guard_failures(expected, {"hvi_mean": 0.21}, feeds) == ["hvi_mean"]
    assert workloads.guard_failures(expected, {"hvi_mean": 0.19}, feeds) == ["hvi_mean"]
    assert workloads.guard_failures(expected, {}, feeds) == ["hvi_mean"]
    assert workloads.guard_failures(expected, {"hvi_mean": 0.3}, {"sweep_s"}) == []
    assert workloads.guard_failures(None, {"hvi_mean": 0.3}, feeds) == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
