"""Experiment command-line interface.

Exit codes: 0 success, 2 configuration/contract error, 3 numeric failure,
4 I/O error. Every experiment command requires an explicit ``--seed`` so no
run depends on hidden state; reruns with the same config and seed reproduce
byte-identical report bodies.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import click
import numpy as np

from . import config as config_mod
from . import flowmatch, guidance, harness, moeval, toyset
from .errors import (ArtifactIOError, ConfigError, ContractViolation,
                     NumericFailure)
from .rng import Rng
from .seqvae import mean_pool


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, ContractViolation) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except NumericFailure as e:
            click.echo(f"numeric failure: {e}", err=True)  # the message names the site
            sys.exit(3)
        except (ArtifactIOError, OSError) as e:
            click.echo(f"i/o error: {e}", err=True)
            sys.exit(4)
    return wrapper


def _load_config(path, profile, seed) -> config_mod.RunConfig:
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise ArtifactIOError(f"cannot read config {path}: {e}") from e
        cfg = config_mod.RunConfig.from_json(text)
    else:
        if profile not in config_mod.PROFILES:
            raise ConfigError(f"unknown profile {profile!r}; "
                              f"choose from {sorted(config_mod.PROFILES)}")
        cfg = config_mod.PROFILES[profile]()
    cfg.seed = seed
    return cfg


def _parse_list(text, convert, flag) -> list:
    """Comma-separated option values; one that ``convert`` rejects is a ConfigError."""
    values = []
    for item in text.split(","):
        try:
            values.append(convert(item))
        except ValueError:
            raise ConfigError(f"{flag}: cannot parse {item!r} in {text!r}") from None
    return values


def _run_dir(base, name) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(base, f"{stamp}-{name}")
    suffix = 0
    while os.path.exists(path):
        suffix += 1
        path = os.path.join(base, f"{stamp}-{name}-{suffix}")
    return path


_config_opts = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON run config; overrides --profile."),
    click.option("--profile", default="toy-default",
                 help="Named config profile (toy-default, paper-tuned)."),
    click.option("--seed", type=int, required=True, help="Run seed (mandatory)."),
]


def _with_config(fn):
    for opt in reversed(_config_opts):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Latent flow-matching optimization experiments on the toy domain."""


@main.command("gen-data")
@click.option("--seed", type=int, required=True)
@click.option("--count", type=int, default=config_mod.DataConfig.count, show_default=True)
@click.option("--min-len", type=int, default=config_mod.DataConfig.min_len, show_default=True)
@click.option("--max-len", type=int, default=config_mod.DataConfig.max_len, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_exit_codes
def gen_data(seed, count, min_len, max_len, out_dir):
    """Generate the toy dataset and write train/val/test TSV splits."""
    ds = toyset.generate_dataset(seed, count, min_len=min_len, max_len=max_len)
    toyset.write_dataset(ds, out_dir)
    click.echo(f"wrote {len(ds.train_idx)}/{len(ds.val_idx)}/{len(ds.test_idx)} "
               f"train/val/test entries to {out_dir}")


@main.command("train")
@_with_config
@click.option("--data", "data_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--stage", "stages", multiple=True,
              type=click.Choice(["vae", "finetune", "flow"]),
              help="Stages to run; default all three in order.")
@_exit_codes
def train(config_path, profile, seed, data_dir, out_dir, stages):
    """Run the staged training pipeline, writing one checkpoint per stage."""
    cfg = _load_config(config_path, profile, seed)
    ds = toyset.read_dataset(data_dir)
    stages = stages or ("vae", "finetune", "flow")
    paths = harness.pipeline_train(cfg, ds, out_dir, stages=stages)
    for stage, path in paths.items():
        click.echo(f"{stage}: {path}")


@main.command("generate")
@_with_config
@click.option("--ckpt", "ckpt_dir", type=click.Path(), required=True)
@click.option("--count", type=int, default=64, show_default=True)
@click.option("--steps", type=int, default=None, help="Euler steps (default from config).")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output TSV of decoded structures (default stdout).")
@_exit_codes
def generate(config_path, profile, seed, ckpt_dir, count, steps, out_path):
    """Sample the unconditional flow prior and decode the latents."""
    _load_config(config_path, profile, seed)
    if count < 1:
        raise ConfigError("--count must be >= 1")
    models = harness.Pipeline.load(ckpt_dir)
    rng = Rng(seed).split("generate")
    z = flowmatch.sample_prior(models.flow, [rng.split(i) for i in range(count)], steps=steps)
    lines = []
    for tokens in models.vae.decode_greedy_batch(z):
        s = toyset.decode(tokens)
        props = toyset.oracle_properties(s)
        lines.append(f"{' '.join(s.canonical_tokens)}\t{props.p1!r}\t{props.p2!r}")
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {count} samples to {out_path}")
    else:
        click.echo(text, nl=False)


@main.command("optimize")
@_with_config
@click.option("--ckpt", "ckpt_dir", type=click.Path(), required=True)
@click.option("--tokens", default=None,
              help="Space-joined start tokens; default draws from the test split.")
@click.option("--data", "data_dir", type=click.Path(), default=None,
              help="Dataset directory (required when --tokens is omitted).")
@_exit_codes
def optimize(config_path, profile, seed, ckpt_dir, tokens, data_dir):
    """Guided optimization of a single structure; prints the trajectory."""
    cfg = _load_config(config_path, profile, seed)
    models = harness.Pipeline.load(ckpt_dir)
    rng = Rng(seed).split("optimize")
    if tokens is not None:
        start = tuple(tokens.split())
    else:
        if data_dir is None:
            raise ConfigError("provide --tokens or --data to choose a start structure")
        test = harness.nonempty_split(toyset.read_dataset(data_dir), "test")
        start = test[int(rng.integers(0, len(test)))][0]
    z0 = guidance.prepare_optimization(models.vae.encode_batch([start]).mu,
                                       cfg.guidance.sigma, [rng.split("noise")])
    rows = ["step\tt\tJ\t|g|\t|v|"]
    for step, (t, z, v, g) in enumerate(guidance.guided_steps(
            models.flow, models.surrogate, cfg.objective, cfg.guidance, z0)):
        j = guidance.objective_value(cfg.objective, models.surrogate.predict(mean_pool(z)))
        g_norm = 0.0 if g is None else np.linalg.norm(g[0])
        rows.append(f"{step}\t{t:.6f}\t{j:.8f}\t{g_norm:.8f}\t{np.linalg.norm(v[0]):.8f}")
    (tokens,) = models.vae.decode_greedy_batch(z)
    result = toyset.decode(tokens)
    start_props = toyset.oracle_properties(toyset.decode(start))
    end_props = toyset.oracle_properties(result)
    click.echo("\n".join(rows))
    click.echo(f"start: {' '.join(start)}  p1={start_props.p1!r} p2={start_props.p2!r}")
    click.echo(f"final: {result.canonical_key}  p1={end_props.p1!r} p2={end_props.p2!r}")


@main.command("budgeted")
@_with_config
@click.option("--ckpt", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_dir", type=click.Path(), required=True)
@click.option("--proposer", type=click.Choice(harness.PROPOSERS),
              default="guided-flow", show_default=True)
@click.option("--free-init", is_flag=True,
              help="Do not count the initial pool against the oracle budget.")
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Base directory for the timestamped run bundle.")
@_exit_codes
def budgeted(config_path, profile, seed, ckpt_dir, data_dir, proposer, free_init, out_dir):
    """Budgeted sequential optimization: HVI-vs-calls trace + final report."""
    cfg = _load_config(config_path, profile, seed)
    if free_init:
        cfg.budget.free_init = True
    models = harness.Pipeline.load(ckpt_dir)
    ds = toyset.read_dataset(data_dir)
    result = harness.budgeted_run(models, ds, cfg, proposer, seed)
    run_dir = _run_dir(out_dir, f"budgeted-{proposer}-seed{seed}")
    harness.run_report(run_dir, {
        "report.json": result.report.to_json(),
        "hvi_trace.csv": harness.hvi_trace_csv(result),
        "config.json": cfg.to_json(),
        "run.json": json.dumps({
            "proposer": result.proposer, "seed": result.seed,
            "calls": result.calls, "complete": result.complete,
            "final_hvi": result.final_hvi,
            "reference": list(result.reference),
            "pool_keys": result.pool_keys}, sort_keys=True, indent=2),
    })
    click.echo(f"calls={result.calls} complete={result.complete} "
               f"final_hvi={result.final_hvi!r}")
    click.echo(f"bundle: {run_dir}")


@main.command("gamma-sweep")
@_with_config
@click.option("--ckpt", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_dir", type=click.Path(), required=True)
@click.option("--grid", default=None,
              help="Comma-separated gamma values (default from config).")
@click.option("--sweep-seeds", default=None,
              help="Comma-separated seeds per gamma (default from config).")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_exit_codes
def gamma_sweep(config_path, profile, seed, ckpt_dir, data_dir, grid, sweep_seeds, out_dir):
    """Guidance-strength sweep: per-gamma metric table over shared seeds."""
    cfg = _load_config(config_path, profile, seed)
    models = harness.Pipeline.load(ckpt_dir)
    ds = toyset.read_dataset(data_dir)
    grid_vals = _parse_list(grid, float, "--grid") if grid else None
    seed_vals = _parse_list(sweep_seeds, int, "--sweep-seeds") if sweep_seeds else None
    rows = harness.gamma_sweep(models, ds, cfg, grid=grid_vals, seeds=seed_vals)
    summary = harness.sweep_summary(rows)
    run_dir = _run_dir(out_dir, f"gamma-sweep-seed{seed}")
    harness.run_report(run_dir, {
        "summary.json": json.dumps(summary, sort_keys=True, indent=2),
        "config.json": cfg.to_json(),
        "rows.json": json.dumps(
            [{"gamma": r.gamma, "seed": r.seed,
              "report": json.loads(r.report.to_json())} for r in rows],
            sort_keys=True, indent=2),
    })
    header = ("gamma", "hvi", "hvi_pct", "skel_div", "frechet", "avg_kl", "mse", "r2")
    click.echo("\t".join(header))
    for row in summary:
        click.echo("\t".join([
            f"{row['gamma']:g}", f"{row['hvi']:.4f}", f"{row['hvi_pct']:.2f}",
            f"{row['skeleton_diversity']:.3f}", f"{row['frechet']:.4f}",
            f"{row['avg_kl']:.4f}", f"{row['mse']:.4f}", f"{row['r2']:.3f}"]))
    click.echo(f"bundle: {run_dir}")


@main.command("eval")
@_with_config
@click.option("--ckpt", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_dir", type=click.Path(), required=True)
@click.option("--generated", "gen_path", type=click.Path(), required=True,
              help="TSV of generated structures (tokens column first).")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@_exit_codes
def eval_cmd(config_path, profile, seed, ckpt_dir, data_dir, gen_path, out_dir):
    """Full metric suite for a generated set against the test baseline."""
    cfg = _load_config(config_path, profile, seed)
    models = harness.Pipeline.load(ckpt_dir)
    ds = toyset.read_dataset(data_dir)
    try:
        with open(gen_path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ArtifactIOError(f"cannot read {gen_path}: {e}") from e
    structures = []
    for lineno, line in enumerate(lines, 1):
        if line:
            try:
                structures.append(toyset.decode(tuple(line.split("\t")[0].split())))
            except ContractViolation as e:  # an unknown token
                raise ArtifactIOError(f"{gen_path}:{lineno}: {e}") from e
    if not structures:
        raise ConfigError(f"{gen_path} contains no structures")
    baseline = np.stack([p.as_array() for _, p in harness.nonempty_split(ds, "test")])
    ref = harness.reference_point(baseline)
    report = harness._evaluate(models, cfg, structures, moeval.feature_matrix(structures),
                               baseline, ref, seed, ds)
    if out_dir:
        run_dir = _run_dir(out_dir, f"eval-seed{seed}")
        harness.run_report(run_dir, {"report.json": report.to_json(),
                                     "config.json": cfg.to_json()})
        click.echo(f"bundle: {run_dir}")
    else:
        click.echo(report.to_json())


@main.command("report")
@click.option("--dir", "run_dir", type=click.Path(), required=True)
@_exit_codes
def report(run_dir):
    """Verify a run bundle's manifest and print its summary."""
    ok = harness.verify_manifest(run_dir)
    if not ok:
        click.echo(f"manifest verification FAILED for {run_dir}", err=True)
        sys.exit(4)
    click.echo(f"manifest ok: {run_dir}")
    report_path = os.path.join(run_dir, "report.json")
    if os.path.exists(report_path):
        with open(report_path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:
                raise ArtifactIOError(f"malformed {report_path}: {e}") from e
        if not isinstance(doc, dict):
            raise ArtifactIOError(f"malformed {report_path}: not a JSON object")
        for key in ("hv", "hvi", "hvi_pct", "validity", "uniqueness", "novelty",
                    "skeleton_diversity", "frechet"):
            if key in doc:
                click.echo(f"{key}: {doc[key]}")


if __name__ == "__main__":
    main()
