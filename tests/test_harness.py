import json
import os
import shutil

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats as sps

from flowopt import cli, harness, moeval, toyset
from flowopt.config import RunConfig, DataConfig, BudgetConfig, EvalConfig, SweepConfig
from flowopt.errors import ConfigError, ContractViolation
from flowopt.flowmatch import FlowConfig
from flowopt.guidance import GuidanceConfig, ObjectiveSpec
from flowopt.nn import load_checkpoint
from flowopt.rng import Rng
from flowopt.seqvae import VaeConfig
from flowopt.surrogate import SurrogateConfig


def tiny_config(seed=0) -> RunConfig:
    return RunConfig(
        seed=seed,
        data=DataConfig(seed=5, count=120, min_len=3, max_len=8),
        vae=VaeConfig(K=2, d=8, embed_dim=8, enc_hidden=16, dec_hidden=16,
                      pretrain_epochs=2, finetune_epochs=1, batch_size=32),
        surrogate=SurrogateConfig(latent_dim=8, hidden=16, layers=2, epochs=2),
        flow=FlowConfig(K=2, d=8, hidden=16, layers=2, time_embed_dim=8,
                        steps=40, batch_size=32, sample_steps=6),
        guidance=GuidanceConfig(gamma=5.0, sigma=0.3, steps=4, t_start=0.5,
                                normalize_gradient=False),
        objective=ObjectiveSpec(mode="target", weights=(1.0, 0.5), targets=(0.8, 2.5)),
        budget=BudgetConfig(budget=20, init_size=5),
        evaluation=EvalConfig(bootstrap_resamples=50),
        sweep=SweepConfig(grid=(0.0, 5.0), seeds=(0,), candidates=6),
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    cfg = tiny_config()
    ds = toyset.generate_dataset(cfg.data.seed, cfg.data.count,
                                 cfg.data.min_len, cfg.data.max_len)
    data_dir = base / "data"
    toyset.write_dataset(ds, data_dir)
    ckpt_dir = base / "ckpt"
    harness.pipeline_train(cfg, ds, ckpt_dir, ("vae", "finetune", "flow"))
    models = harness.Pipeline.load(ckpt_dir)
    cfg_path = base / "config.json"
    cfg_path.write_text(cfg.to_json())
    return dict(cfg=cfg, ds=ds, models=models, data_dir=str(data_dir),
                ckpt_dir=str(ckpt_dir), cfg_path=str(cfg_path), base=base)


# -- oracle budget --------------------------------------------------------

def test_counting_oracle_enforces_budget():
    oracle = harness.CountingOracle(3)
    s = toyset.decode(("A", "B"))
    for _ in range(3):
        oracle(s)
    with pytest.raises(harness.BudgetExhausted):
        oracle(s)
    assert oracle.calls == 3
    with pytest.raises(ContractViolation):
        harness.CountingOracle(0)


# -- selection law --------------------------------------------------------

def _pool_state(rng, n, with_history=False):
    state = harness.BudgetState(budget=100)
    for i in range(n):
        r = rng.split(i)
        tokens = tuple(toyset.BACKBONE[int(r.integers(0, 8))]
                       for _ in range(int(r.integers(1, 6))))
        s = toyset.decode(tokens)
        state.pool.append(harness.PoolEntry(
            structure=s, props=toyset.oracle_properties(s).as_array()))
    if with_history:
        state.history = [state.pool[0].structure.features,
                         state.pool[-1].structure.features]
    return state


def test_selection_probabilities_normalized_and_weighted(rng):
    state = _pool_state(rng.split("a"), 12, with_history=True)
    p = harness.selection_probabilities(state, 2.0, 2.0)
    assert p.shape == (12,)
    assert p.sum() == pytest.approx(1.0)
    assert (p > 0).all()
    # the closed form is reproduced exactly
    flags = state.pareto_flags()
    w = np.where(flags, 2.0, 1.0)
    sims = np.array([max(toyset.tanimoto(e.structure.features, h)
                         for h in state.history) for e in state.pool])
    expected = w * np.exp(-2.0 * sims)
    assert np.allclose(p, expected / expected.sum())


def test_select_seed_matches_law_chi_square(rng):
    for case in range(5):
        state = _pool_state(rng.split(("cfg", case)), 8, with_history=(case % 2 == 0))
        p = harness.selection_probabilities(state, 2.0, 2.0)
        draws = 20_000
        r = rng.split(("draws", case))
        counts = np.zeros(len(p))
        for i in range(draws):
            counts[harness.select_seed(state, 2.0, 2.0, r.split(i))] += 1
        _, pval = sps.chisquare(counts, p * draws)
        assert pval > 0.001


def test_select_seed_empty_pool():
    with pytest.raises(ContractViolation):
        harness.select_seed(harness.BudgetState(budget=5), 2.0, 2.0, Rng(0))


def test_pareto_flags_hand_case():
    state = harness.BudgetState(budget=10)
    for p1, p2 in [(0.9, 2.0), (0.5, 5.0), (0.9, 2.0), (0.2, 1.0)]:
        s = toyset.decode(("A",))
        state.pool.append(harness.PoolEntry(structure=s, props=np.array([p1, p2])))
    flags = state.pareto_flags()
    # (0.5, 5.0) is dominated; the duplicate front point is flagged twice
    assert list(flags) == [True, False, True, True]


# -- budgeted runs --------------------------------------------------------

def test_budgeted_run_budget_exact(tiny_run):
    for proposer in harness.PROPOSERS:
        result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                                      tiny_run["cfg"], proposer, seed=1)
        assert result.calls == tiny_run["cfg"].budget.budget
        assert result.complete
        assert result.hvi_trace[-1][0] == tiny_run["cfg"].budget.budget


def test_budgeted_run_trace_monotone(tiny_run):
    result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                                  tiny_run["cfg"], "guided-flow", seed=2)
    values = [v for _, v in result.hvi_trace]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert result.final_hvi == values[-1]


def test_budgeted_run_free_init_extends_proposals(tiny_run):
    import dataclasses
    cfg = tiny_config()
    cfg.budget = dataclasses.replace(cfg.budget, free_init=True)
    free = harness.budgeted_run(tiny_run["models"], tiny_run["ds"], cfg,
                                "random", seed=3)
    paid = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                                tiny_run["cfg"], "random", seed=3)
    init = tiny_run["cfg"].budget.init_size
    budget = tiny_run["cfg"].budget.budget
    assert len(paid.pool_keys) == budget               # init counts against budget
    assert len(free.pool_keys) == budget + init        # init is free
    assert free.calls == paid.calls == budget


def test_budgeted_run_deterministic(tiny_run):
    a = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                             tiny_run["cfg"], "guided-flow", seed=4)
    b = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                             tiny_run["cfg"], "guided-flow", seed=4)
    assert a.report.to_json() == b.report.to_json()
    assert a.pool_keys == b.pool_keys
    assert a.hvi_trace == b.hvi_trace


def test_budgeted_run_unknown_proposer(tiny_run):
    with pytest.raises(ConfigError):
        harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                             tiny_run["cfg"], "annealing", seed=0)


# -- sweep ----------------------------------------------------------------

def test_gamma_sweep_rows_and_summary(tiny_run):
    rows = harness.gamma_sweep(tiny_run["models"], tiny_run["ds"], tiny_run["cfg"])
    grid = tiny_run["cfg"].sweep.grid
    seeds = tiny_run["cfg"].sweep.seeds
    assert len(rows) == len(grid) * len(seeds)
    summary = harness.sweep_summary(rows)
    assert [s["gamma"] for s in summary] == sorted(grid)
    for s in summary:
        assert set(s["descriptor_kl"]) == set(moeval.DESCRIPTOR_NAMES)
        assert s["validity"] == 1.0
    with pytest.raises(ConfigError):
        harness.gamma_sweep(tiny_run["models"], tiny_run["ds"], tiny_run["cfg"],
                            grid=[])


# -- stage ordering -------------------------------------------------------

def test_pipeline_stage_order_enforced(tiny_run, tmp_path):
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        harness.pipeline_train(cfg, tiny_run["ds"], tmp_path / "x", ("finetune",))
    with pytest.raises(ConfigError):
        harness.pipeline_train(cfg, tiny_run["ds"], tmp_path / "y", ("flow",))


# -- reference point ------------------------------------------------------

def test_reference_point_falls_back_on_zero_range():
    cfg = tiny_config()
    spread = np.array([[0.2, 3.0], [0.6, 5.0]])
    assert np.array_equal(harness.reference_point(spread, cfg),
                          moeval.auto_reference(spread, margin=cfg.evaluation.ref_margin))
    flat = np.array([[0.2, 3.0], [0.6, 3.0]])
    ref = harness.reference_point(flat, cfg)
    assert ref.dtype == np.float64
    assert tuple(ref) == cfg.evaluation.fallback_reference


# -- report bundles -------------------------------------------------------

def test_run_report_manifest_round_trip(tmp_path):
    files = {"report.json": "{\"a\": 1}\n", "trace.csv": "calls,hvi\n1,0.0\n"}
    manifest_path = harness.run_report(tmp_path / "run", files)
    assert os.path.exists(manifest_path)
    assert harness.verify_manifest(tmp_path / "run")
    with open(tmp_path / "run" / "trace.csv", "a") as fh:
        fh.write("tampered\n")
    assert not harness.verify_manifest(tmp_path / "run")


def test_hvi_trace_csv_format(tiny_run):
    result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                                  tiny_run["cfg"], "random", seed=5)
    text = harness.hvi_trace_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "calls,hvi"
    assert len(lines) == len(result.hvi_trace) + 1
    calls = [int(l.split(",")[0]) for l in lines[1:]]
    assert calls == sorted(calls)


# -- config round trips ---------------------------------------------------

def test_run_config_json_round_trip():
    cfg = tiny_config(seed=9)
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.to_json() == cfg.to_json()
    # an older config.json that still carries since-removed fields loads the same
    old = cfg.to_dict()
    old["budget"]["batch_size"] = 1
    old["evaluation"]["curve_ci_level"] = 0.9
    old["vae"].update(pooling="attention", seed=0)
    old["flow"]["ot_coupling"] = False
    assert RunConfig.from_json(json.dumps(old)) == cfg


def test_run_config_shape_mismatch_rejected():
    with pytest.raises(ConfigError):
        RunConfig(vae=VaeConfig(K=2, d=8),
                  flow=FlowConfig(K=4, d=16),
                  surrogate=SurrogateConfig(latent_dim=8))
    with pytest.raises(ConfigError):
        RunConfig.from_json("not json")
    for bad in ('{"vae": {"K": "two"}}', '{"flow": [1, 2]}', '[1, 2]'):
        with pytest.raises(ConfigError):
            RunConfig.from_json(bad)


def test_profiles_constructible():
    from flowopt.config import PROFILES
    for name, fn in PROFILES.items():
        cfg = fn(seed=3)
        assert cfg.seed == 3
        assert RunConfig.from_json(cfg.to_json()) == cfg


# -- CLI ------------------------------------------------------------------

@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def test_cli_gen_data(runner, tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    res = runner.invoke(cli.main, ["gen-data", "--seed", "5", "--count", "50",
                                   "--out", str(out)])
    assert res.exit_code == 0, res.output
    for split in ("train", "val", "test"):
        assert (out / f"{split}.tsv").exists()


def test_cli_seed_required(runner, tiny_run):
    res = runner.invoke(cli.main, ["generate", "--ckpt", tiny_run["ckpt_dir"]])
    assert res.exit_code == 2


def test_cli_unknown_profile_exit_2(runner, tiny_run):
    res = runner.invoke(cli.main, ["generate", "--seed", "1", "--profile", "nope",
                                   "--ckpt", tiny_run["ckpt_dir"]])
    assert res.exit_code == 2


def test_cli_missing_data_exit_4(runner, tiny_run):
    res = runner.invoke(cli.main, ["train", "--seed", "1",
                                   "--config", tiny_run["cfg_path"],
                                   "--data", "/nonexistent-dir",
                                   "--out", tiny_run["ckpt_dir"] + "-x"])
    assert res.exit_code == 4


def test_cli_malformed_split_exit_4(runner, tiny_run, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(tiny_run["data_dir"], data)
    lines = (data / "train.tsv").read_text().splitlines()
    lines[2] = "A B\t0.5"
    (data / "train.tsv").write_text("\n".join(lines) + "\n")
    res = runner.invoke(cli.main, ["train", "--seed", "1", "--config", tiny_run["cfg_path"],
                                   "--data", str(data), "--out", str(tmp_path / "ckpt")])
    assert res.exit_code == 4, res.output
    assert "train.tsv:3" in res.output


def _truncate(text):
    return text[: len(text) // 2]


def _drop_array(text):
    doc = json.loads(text)
    doc["data"].pop(sorted(doc["data"])[0])
    return json.dumps(doc)


def _wrong_shape(text):
    doc = json.loads(text)
    shapes = doc["header"]["arrays"]
    name = sorted(shapes)[0]
    shapes[name] = [shapes[name][0] + 1] + shapes[name][1:]
    return json.dumps(doc)


def _header_not_a_mapping(text):
    doc = json.loads(text)
    doc["header"] = sorted(doc["header"].items())
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt", [_truncate, _drop_array, _wrong_shape, _header_not_a_mapping])
def test_cli_broken_checkpoint_exit_4(runner, tiny_run, tmp_path, corrupt):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    flow = ckpt / harness.FLOW_CKPT
    flow.write_text(corrupt(flow.read_text()))
    res = runner.invoke(cli.main, ["generate", "--seed", "2", "--config", tiny_run["cfg_path"],
                                   "--ckpt", str(ckpt), "--count", "2"])
    assert res.exit_code == 4, res.output
    assert "flow.ckpt" in res.output


def _drop_flow_w1(ckpt):
    path = ckpt / harness.FLOW_CKPT
    doc = json.loads(path.read_text())
    del doc["header"]["arrays"]["flow.w1"]
    del doc["data"]["flow.w1"]
    path.write_text(json.dumps(doc))
    return harness.FLOW_CKPT


def _pretrain_as_finetune(ckpt):
    shutil.copy(ckpt / harness.VAE_CKPT, ckpt / harness.FINETUNE_CKPT)
    return harness.FINETUNE_CKPT


def _edit(name, change):
    """A corruption applying ``change`` to the parsed document of checkpoint ``name``."""
    def corrupt(ckpt):
        path = ckpt / name
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        return name
    return corrupt


def _drop_queries(doc):
    # What a mean-pooled encoder's checkpoint lacks.
    del doc["header"]["arrays"]["vae.queries"]
    del doc["data"]["vae.queries"]


def _cli_args(command, tiny_run, ckpt):
    common = ["--config", tiny_run["cfg_path"]]
    if command == "train-finetune":
        return ["train", "--seed", "1", *common, "--data", tiny_run["data_dir"],
                "--out", str(ckpt), "--stage", "finetune"]
    if command == "optimize":
        return ["optimize", "--seed", "3", *common, "--ckpt", str(ckpt), "--tokens", "A B R i"]
    return ["generate", "--seed", "2", *common, "--ckpt", str(ckpt), "--count", "2"]


@pytest.mark.parametrize("corrupt, command", [
    pytest.param(_drop_flow_w1, "generate", id="_drop_flow_w1"),
    pytest.param(_pretrain_as_finetune, "generate", id="_pretrain_as_finetune"),
    pytest.param(_edit(harness.VAE_CKPT, _drop_queries), "train-finetune",
                 id="_pretrain_without_queries"),
    pytest.param(_edit(harness.FINETUNE_CKPT, _drop_queries), "optimize",
                 id="_finetune_without_queries"),
])
def test_cli_checkpoint_missing_entry_exit_4(runner, tiny_run, tmp_path, corrupt, command):
    """A checkpoint consistent with its own header but lacking what the model needs."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    name = corrupt(ckpt)
    res = runner.invoke(cli.main, _cli_args(command, tiny_run, ckpt))
    assert res.exit_code == 4, res.output
    assert name in res.output


def _flow_config(value):
    def change(doc):
        doc["header"]["meta"]["config"] = value(doc["header"]["meta"]["config"])
    return _edit(harness.FLOW_CKPT, change)


@pytest.mark.parametrize("corrupt", [
    pytest.param(_flow_config(lambda c: {**c, "K": "two"}), id="wrong_type"),
    pytest.param(_flow_config(lambda c: sorted(c.items())), id="not_a_mapping"),
    pytest.param(_edit(harness.FLOW_CKPT, lambda doc: doc["header"].update(meta=[])),
                 id="meta_not_a_mapping"),
])
def test_cli_checkpoint_malformed_config_exit_4(runner, tiny_run, tmp_path, corrupt):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    name = corrupt(ckpt)
    res = runner.invoke(cli.main, _cli_args("generate", tiny_run, ckpt))
    assert res.exit_code == 4, res.output
    assert name in res.output


def test_checkpoint_config_ignores_retired_keys(runner, tiny_run, tmp_path):
    """A stored config decodes like a run config: keys the dataclass lacks are ignored."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    _flow_config(lambda c: {**c, "ot_coupling": False, "retired_knob": 1})(ckpt)
    edited = runner.invoke(cli.main, _cli_args("generate", tiny_run, ckpt))
    plain = runner.invoke(cli.main, _cli_args("generate", tiny_run, tiny_run["ckpt_dir"]))
    assert edited.exit_code == 0, edited.output
    assert edited.output == plain.output


BENCH_CKPT = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "ckpt")


def test_committed_bench_checkpoint_loads():
    """The benchmark's fixed checkpoint predates the retired VAE and flow config
    keys its headers still carry; it must keep loading and running."""
    _, meta = load_checkpoint(os.path.join(BENCH_CKPT, harness.FINETUNE_CKPT))
    assert {"pooling", "seed"} <= set(meta["config"])
    models = harness.Pipeline.load(BENCH_CKPT)
    c = models.vae.config
    post = models.vae.encode_batch([("A", "B", "R", "i"), ("C",)])
    assert post.mu.shape == (2, c.K, c.d) == (2, models.flow.config.K, models.flow.config.d)
    decoded = models.vae.decode_greedy_batch(post.mu)
    assert len(decoded) == 2 and all(t in toyset.VOCAB for row in decoded for t in row)


def test_cli_generate(runner, tiny_run):
    res = runner.invoke(cli.main, ["generate", "--seed", "2",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"], "--count", "5"])
    assert res.exit_code == 0, res.output
    lines = [l for l in res.output.splitlines() if l]
    assert len(lines) == 5
    for line in lines:
        tokens, p1, p2 = line.split("\t")
        s = toyset.decode(tuple(tokens.split()))
        assert float(p1) == pytest.approx(toyset.oracle_properties(s).p1)
    res = runner.invoke(cli.main, ["generate", "--seed", "2",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"], "--count", "0"])
    assert res.exit_code == 2


def test_cli_optimize(runner, tiny_run):
    res = runner.invoke(cli.main, ["optimize", "--seed", "3",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--tokens", "A B R i"])
    assert res.exit_code == 0, res.output
    assert "start: A B R i" in res.output
    assert "final:" in res.output


def test_cli_budgeted_and_report(runner, tiny_run):
    out = str(tiny_run["base"] / "runs")
    res = runner.invoke(cli.main, ["budgeted", "--seed", "4",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"],
                                   "--proposer", "random", "--out", out])
    assert res.exit_code == 0, res.output
    assert "calls=20 complete=True" in res.output
    run_dir = res.output.strip().splitlines()[-1].split("bundle: ")[1]
    for name in ("report.json", "hvi_trace.csv", "config.json", "run.json",
                 "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    rep = runner.invoke(cli.main, ["report", "--dir", run_dir])
    assert rep.exit_code == 0, rep.output
    assert "manifest ok" in rep.output
    # tampering is detected
    with open(os.path.join(run_dir, "run.json"), "a") as fh:
        fh.write("\n")
    bad = runner.invoke(cli.main, ["report", "--dir", run_dir])
    assert bad.exit_code == 4


def test_cli_gamma_sweep(runner, tiny_run):
    out = str(tiny_run["base"] / "sweeps")
    res = runner.invoke(cli.main, ["gamma-sweep", "--seed", "0",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"],
                                   "--grid", "0.0,2.0", "--sweep-seeds", "0",
                                   "--out", out])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[0].startswith("gamma\thvi")


def test_cli_eval(runner, tiny_run):
    gen_path = str(tiny_run["base"] / "gen.tsv")
    res = runner.invoke(cli.main, ["generate", "--seed", "6",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--count", "8", "--out", gen_path])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli.main, ["eval", "--seed", "6",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"],
                                   "--generated", gen_path])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["validity"] == 1.0
    assert "hvi" in doc and "frechet" in doc


def test_cli_determinism_byte_identical_reports(runner, tiny_run):
    outs = []
    for run in range(2):
        out = str(tiny_run["base"] / f"det{run}")
        res = runner.invoke(cli.main, ["budgeted", "--seed", "7",
                                       "--config", tiny_run["cfg_path"],
                                       "--ckpt", tiny_run["ckpt_dir"],
                                       "--data", tiny_run["data_dir"],
                                       "--proposer", "guided-flow", "--out", out])
        assert res.exit_code == 0, res.output
        run_dir = res.output.strip().splitlines()[-1].split("bundle: ")[1]
        with open(os.path.join(run_dir, "report.json")) as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]
