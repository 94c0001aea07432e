"""Experiment orchestration: staged training, budgeted optimization with
diversity-weighted seed selection, guidance-strength sweeps, and report
emission.

Oracle accounting is exact by construction: budgeted runs evaluate ground
truth only through a counting wrapper, and the initial pool consumes budget
unless ``free_init`` is set.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import flowmatch, guidance, moeval, seqvae, surrogate as surrogate_mod, toyset
from .config import RunConfig
from .errors import ArtifactIOError, ConfigError, ContractViolation
from .nn import load_checkpoint, save_checkpoint
from .rng import Rng, normal_rows

VAE_CKPT = "vae_pretrain.ckpt"
FINETUNE_CKPT = "vae_finetune.ckpt"
FLOW_CKPT = "flow.ckpt"


# -- staged training ------------------------------------------------------

@dataclass
class Pipeline:
    """Trained models for one run; loadable from a checkpoint directory."""

    vae: seqvae.SeqVae
    surrogate: surrogate_mod.Surrogate
    flow: flowmatch.FlowField

    @classmethod
    def load(cls, ckpt_dir) -> "Pipeline":
        def finetuned(arrays, meta):
            return (seqvae.SeqVae.from_checkpoint(arrays, meta),
                    surrogate_mod.Surrogate.from_checkpoint(arrays, meta["surrogate"]))

        vae, sur = _load_model(os.path.join(ckpt_dir, FINETUNE_CKPT), finetuned)
        flow = _load_model(os.path.join(ckpt_dir, FLOW_CKPT), flowmatch.FlowField.from_checkpoint)
        return cls(vae=vae, surrogate=sur, flow=flow)


def _load_model(path, build):
    """``build(arrays, meta)`` on the checkpoint at ``path``.

    A checkpoint that lacks an array or a metadata entry the model needs, or
    whose stored config is malformed, is an I/O error naming the file, like
    one that does not parse.
    """
    arrays, meta = load_checkpoint(path)
    try:
        return build(arrays, meta)
    except KeyError as e:
        raise ArtifactIOError(f"{path} lacks {e.args[0]!r}") from e
    except TypeError as e:
        raise ArtifactIOError(f"{path} has a malformed config: {e}") from e


def pipeline_train(config: RunConfig, dataset: toyset.Dataset, out_dir,
                   stages=("vae", "finetune", "flow"),
                   allow_pretrain_latents: bool = False) -> dict:
    """Run the staged protocol; each stage writes one checkpoint.

    Stage order is enforced: fine-tuning needs the pretrained VAE and flow
    training refuses a non-fine-tuned encoder unless
    ``allow_pretrain_latents`` is set.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(config.seed)
    paths = {}

    if "vae" in stages:
        vae = seqvae.SeqVae(config.vae, rng.split("vae"))
        hist = seqvae.train_vae(vae, dataset, rng.split("vae-train"))
        meta = vae.meta("pretrain")
        meta["best_epoch"] = hist.best_epoch
        save_checkpoint(os.path.join(out_dir, VAE_CKPT), vae.arrays(), meta)
        paths["vae"] = os.path.join(out_dir, VAE_CKPT)

    if "finetune" in stages:
        src = os.path.join(out_dir, VAE_CKPT)
        if not os.path.exists(src):
            raise ConfigError("finetune stage requires the pretrained VAE checkpoint")
        vae = _load_model(src, seqvae.SeqVae.from_checkpoint)
        sur = surrogate_mod.Surrogate(config.surrogate, rng.split("surrogate"))
        seqvae.finetune(vae, sur, dataset, rng.split("finetune"))
        # Refit report: fidelity of the jointly trained surrogate on held-out
        # latents from the fine-tuned encoder.
        fid = _surrogate_fidelity(vae, sur, dataset.subset("val"))
        meta_ft = vae.meta("finetune")
        meta_ft["surrogate"] = sur.meta()
        meta_ft["fidelity"] = fid
        merged = dict(vae.arrays())
        merged.update(sur.arrays())
        save_checkpoint(os.path.join(out_dir, FINETUNE_CKPT), merged, meta_ft)
        paths["finetune"] = os.path.join(out_dir, FINETUNE_CKPT)

    if "flow" in stages:
        src = os.path.join(out_dir, FINETUNE_CKPT)
        if not os.path.exists(src):
            src = os.path.join(out_dir, VAE_CKPT)
            if not (allow_pretrain_latents and os.path.exists(src)):
                raise ConfigError(
                    "flow stage requires the fine-tuned encoder checkpoint "
                    "(pass allow_pretrain_latents to train on pretrain latents)")
        vae, latent_source = _load_model(src, lambda arrays, meta: (
            seqvae.SeqVae.from_checkpoint(arrays, meta), meta.get("stage", "unknown")))
        field_model = flowmatch.FlowField(config.flow, rng.split("flow"))
        train_entries = dataset.subset("train")

        def z1_sampler(r: Rng, n: int) -> np.ndarray:
            idx = r.split("idx").gen.integers(0, len(train_entries), n)
            post = vae.encode_batch([train_entries[i][0] for i in idx])
            return seqvae.reparameterize(post, r.split("eps")).z

        flowmatch.train_flow(field_model, z1_sampler, rng.split("flow-train"))
        meta_f = field_model.meta()
        meta_f["latent_source"] = latent_source
        save_checkpoint(os.path.join(out_dir, FLOW_CKPT), field_model.arrays(), meta_f)
        paths["flow"] = os.path.join(out_dir, FLOW_CKPT)

    return paths


def _surrogate_fidelity(vae, sur, entries) -> dict:
    pooled = _pooled_means(vae, [e[0] for e in entries])
    y = np.stack([e[1].as_array() for e in entries])
    mse, r2 = surrogate_mod.fidelity(sur.predict(pooled), y)
    return {"mse": mse, "r2": r2}


def _pooled_means(vae, sequences, batch=256) -> np.ndarray:
    out = []
    for i in range(0, len(sequences), batch):
        post = vae.encode_batch(sequences[i:i + batch])
        out.append(post.mu.mean(axis=1))
    return np.concatenate(out)


# -- budgeted optimization ------------------------------------------------

class BudgetExhausted(Exception):
    pass


class CountingOracle:
    """The only path to ground-truth properties during a budgeted run."""

    def __init__(self, budget: int):
        if budget < 1:
            raise ContractViolation("budget must be >= 1")
        self.budget = budget
        self.calls = 0

    def __call__(self, structure: toyset.Structure) -> np.ndarray:
        if self.calls >= self.budget:
            raise BudgetExhausted
        self.calls += 1
        return toyset.oracle_properties(structure).as_array()


@dataclass
class PoolEntry:
    structure: toyset.Structure
    props: np.ndarray
    from_init: bool = False
    features: np.ndarray = field(init=False)  # the structure's bitset, computed once

    def __post_init__(self):
        self.features = self.structure.features


@dataclass
class BudgetState:
    budget: int
    pool: list = field(default_factory=list)
    history: list = field(default_factory=list)  # recent-optimized feature bitsets

    def points(self) -> np.ndarray:
        return np.stack([e.props for e in self.pool])

    def pareto_flags(self) -> np.ndarray:
        front = moeval.pareto_front(self.points())
        flags = np.zeros(len(self.pool), dtype=bool)
        # Mark every pool member whose point lies on the front (duplicates too).
        front_set = {tuple(p) for p in front.points}
        for i, e in enumerate(self.pool):
            if tuple(e.props) in front_set:
                flags[i] = True
        return flags


def selection_probabilities(state: BudgetState, diversity_penalty: float,
                            pareto_weight: float) -> np.ndarray:
    """p_i proportional to pareto weight times exp(-lambda * max similarity)."""
    flags = state.pareto_flags()
    w = np.where(flags, pareto_weight, 1.0)
    if state.history:
        feats = np.stack([e.features for e in state.pool])
        hist = np.stack(state.history)
        inter = (feats[:, None, :] & hist[None, :, :]).sum(axis=-1)
        union = (feats[:, None, :] | hist[None, :, :]).sum(axis=-1)
        sims = np.where(union > 0, inter / np.maximum(union, 1), 1.0).max(axis=1)
    else:
        sims = np.zeros(len(state.pool))
    p = w * np.exp(-diversity_penalty * sims)
    return p / p.sum()


def select_seed(state: BudgetState, diversity_penalty: float, pareto_weight: float,
                rng: Rng, probs: np.ndarray = None) -> int:
    """Draw a pool index under the selection law.

    ``probs`` may carry precomputed ``selection_probabilities`` output for
    repeated draws from an unchanged state.
    """
    if not state.pool:
        raise ContractViolation("cannot select from an empty pool")
    p = (selection_probabilities(state, diversity_penalty, pareto_weight)
         if probs is None else probs)
    return rng.choice(len(p), p=p)


PROPOSERS = ("guided-flow", "gradient-ascent", "random")


def _propose(proposer: str, models: Pipeline, cfg: RunConfig,
             seed_entry: PoolEntry, rng: Rng) -> toyset.Structure:
    vae, sur, flow = models.vae, models.surrogate, models.flow
    spec = cfg.objective
    if proposer == "guided-flow":
        g = cfg.guidance
        z0 = guidance.prepare_optimization(vae, [seed_entry.structure.canonical_tokens],
                                           g.sigma, g.t_start, [rng.split("noise")])
        _, final = guidance.guided_integrate(flow, sur, spec, g, z0)
    elif proposer == "gradient-ascent":
        post = vae.encode_batch([seed_entry.structure.canonical_tokens])
        z0 = seqvae.LatentState(z=post.mu, t=1.0)
        final = guidance.gradient_ascent_baseline(
            sur, spec, z0, cfg.ga.eta, cfg.ga.steps, cfg.ga.sigma, [rng.split("noise")])
    elif proposer == "random":
        final = seqvae.LatentState(
            z=rng.split("noise").normal((1, cfg.vae.K, cfg.vae.d)), t=1.0)
    else:
        raise ConfigError(f"unknown proposer {proposer!r}")
    (tokens,) = vae.decode_greedy_batch(final.z)
    return toyset.decode(tokens)


@dataclass
class BudgetedResult:
    proposer: str
    seed: int
    calls: int
    complete: bool
    reference: tuple
    hvi_trace: list            # (oracle calls, HVI vs initial-pool baseline)
    final_hvi: float
    report: moeval.EvalReport
    pool_keys: list


def budgeted_run(models: Pipeline, dataset: toyset.Dataset, cfg: RunConfig,
                 proposer: str, seed: int, reference: ReferenceSet = None) -> BudgetedResult:
    """One sequential optimization run under an exact oracle budget.

    ``reference`` may carry ``reference_set(dataset, cfg)`` built once for
    many runs; it is built here otherwise.
    """
    if proposer not in PROPOSERS:
        raise ConfigError(f"proposer must be one of {PROPOSERS}")
    rng = Rng(seed).split(("budgeted", proposer))
    oracle = CountingOracle(cfg.budget.budget)
    state = BudgetState(budget=cfg.budget.budget)
    train = dataset.subset("train")
    complete = True

    init_rng = rng.split("init")
    init_idx = [int(init_rng.integers(0, len(train))) for _ in range(cfg.budget.init_size)]
    try:
        for i in init_idx:
            s = toyset.decode(train[i][0])
            props = (toyset.oracle_properties(s).as_array() if cfg.budget.free_init
                     else oracle(s))
            state.pool.append(PoolEntry(structure=s, props=props, from_init=True))
    except BudgetExhausted:
        complete = False

    baseline = state.points()
    ref = reference_point(baseline, cfg)

    hv_base = moeval.hypervolume_2d(baseline, ref)
    trace = []
    step = 0
    while complete and oracle.calls < cfg.budget.budget:
        srng = rng.split(("step", step))
        idx = select_seed(state, cfg.selection.diversity_penalty,
                          cfg.selection.pareto_weight, srng.split("select"))
        entry = state.pool[idx]
        proposed = _propose(proposer, models, cfg, entry, srng.split("propose"))
        try:
            props = oracle(proposed)
        except BudgetExhausted:
            complete = False
            break
        new = PoolEntry(structure=proposed, props=props)
        state.pool.append(new)
        state.history.append(new.features)
        if len(state.history) > cfg.selection.history_window:
            state.history.pop(0)
        optimized = np.stack([e.props for e in state.pool if not e.from_init])
        trace.append((oracle.calls, moeval.hvi(baseline, optimized, ref, hv_base=hv_base)))
        step += 1

    final_hvi = trace[-1][1] if trace else 0.0
    proposed_structures = [e.structure for e in state.pool if not e.from_init]
    if reference is None:
        reference = reference_set(dataset, cfg)
    report = _evaluate(models, cfg, proposed_structures, baseline, ref, seed, reference)
    return BudgetedResult(
        proposer=proposer, seed=seed, calls=oracle.calls,
        complete=complete and oracle.calls == cfg.budget.budget,
        reference=tuple(float(x) for x in ref),
        hvi_trace=trace, final_hvi=final_hvi, report=report,
        pool_keys=[e.structure.canonical_key for e in state.pool])


# -- shared evaluation ----------------------------------------------------

def reference_point(baseline, cfg: RunConfig) -> np.ndarray:
    """The hypervolume reference for a baseline point set: ``auto_reference``
    with the configured margin, or ``fallback_reference`` when an objective
    has zero range over the baseline."""
    try:
        return moeval.auto_reference(baseline, margin=cfg.evaluation.ref_margin)
    except moeval.DegenerateRangeError:
        return np.asarray(cfg.evaluation.fallback_reference, dtype=np.float64)


@dataclass
class ReferenceSet:
    """What generated sets are compared against: the train split's canonical
    keys, descriptor values and Fréchet embeddings under ``projection``."""

    keys: set
    descriptors: dict
    projection: np.ndarray
    embeddings: np.ndarray


def reference_set(dataset: toyset.Dataset, cfg: RunConfig) -> ReferenceSet:
    """Decode the train split once and derive everything ``_evaluate`` compares to."""
    structures = [toyset.decode(t) for t, _ in dataset.subset("train")]
    features = moeval.feature_matrix(structures)
    projection = moeval.embedding_projection(cfg.evaluation.projection_seed)
    return ReferenceSet(keys={s.canonical_key for s in structures},
                        descriptors=moeval.descriptor_values(structures, features),
                        projection=projection,
                        embeddings=moeval.structure_embeddings(features, projection))


def _evaluate(models: Pipeline, cfg: RunConfig, structures, baseline_points,
              ref, seed, reference: ReferenceSet) -> moeval.EvalReport:
    ev = cfg.evaluation
    report = moeval.EvalReport(seed=seed, projection_seed=ev.projection_seed,
                               reference_point=tuple(float(x) for x in ref),
                               config_echo={"guidance": asdict(cfg.guidance),
                                            "objective": asdict(cfg.objective)})
    if not structures:
        return report
    points = np.stack([toyset.oracle_properties(s).as_array() for s in structures])
    all_points = np.vstack([baseline_points, points])
    hv_base, _ = moeval.hypervolume_2d_with_warnings(baseline_points, ref)
    hv_all, excluded = moeval.hypervolume_2d_with_warnings(all_points, ref)
    report.hv = hv_all
    report.hvi = max(0.0, hv_all - hv_base)
    report.hvi_pct = 100.0 * report.hvi / hv_base if hv_base > 0 else 0.0
    report.excluded_points = excluded

    def hv_metric(idx):
        # Hypervolume depends only on the set of points, so a resample is
        # the baseline plus a presence mask of the generated points it drew.
        present = np.zeros((len(idx), len(all_points)), dtype=bool)
        present[:, :len(baseline_points)] = True
        present[np.arange(len(idx))[:, None], len(baseline_points) + idx] = True
        return moeval.hypervolume_2d_rows(all_points, present, ref)

    report.hv_ci = moeval.bootstrap_ci(hv_metric, len(points), ev.bootstrap_resamples,
                                       ev.ci_level, Rng(seed).split("hv-ci"))
    sm = moeval.set_metrics(structures, reference.keys)
    report.validity = sm["validity"]
    report.uniqueness = sm["uniqueness"]
    report.novelty = sm["novelty"]
    report.skeleton_diversity = sm["skeleton_diversity"]

    features = moeval.feature_matrix(structures)
    if len(structures) >= 2 and len(reference.embeddings) >= 2:
        report.frechet = moeval.frechet_distance(
            moeval.structure_embeddings(features, reference.projection), reference.embeddings)
    report.descriptor_kl = moeval.descriptor_kl(
        moeval.descriptor_values(structures, features), reference.descriptors, bins=ev.bins)
    pooled = _pooled_means(models.vae, [s.canonical_tokens for s in structures])
    mse, r2 = surrogate_mod.fidelity(models.surrogate.predict(pooled), points)
    report.surrogate_mse = mse
    report.surrogate_r2 = r2
    return report


# -- gamma sweep ----------------------------------------------------------

@dataclass
class SweepRow:
    gamma: float
    seed: int
    hvi: float
    hvi_pct: float
    report: moeval.EvalReport


def _sweep_candidates(models: Pipeline, dataset: toyset.Dataset, cfg: RunConfig):
    """Seeds for the sweep: test-set structures on the surrogate-predicted front,
    padded with the best remaining predicted-objective entries."""
    test = dataset.subset("test")
    seqs = [t for t, _ in test]
    pooled = _pooled_means(models.vae, seqs)
    pred = models.surrogate.predict(pooled)
    front = moeval.pareto_front(pred)
    chosen = list(front.indices)
    j_vals = np.array([guidance.objective_value(cfg.objective, p) for p in pred])
    for i in np.argsort(j_vals):
        if len(chosen) >= cfg.sweep.candidates:
            break
        if int(i) not in chosen:
            chosen.append(int(i))
    return [seqs[i] for i in chosen[: cfg.sweep.candidates]]


def gamma_sweep(models: Pipeline, dataset: toyset.Dataset, cfg: RunConfig,
                grid=None, seeds=None) -> list:
    """Per-gamma metric table over the shipped grid and seeds."""
    grid = list(cfg.sweep.grid if grid is None else grid)
    seeds = list(cfg.sweep.seeds if seeds is None else seeds)
    if not grid:
        raise ConfigError("gamma grid must be nonempty")
    reference = reference_set(dataset, cfg)
    candidates = _sweep_candidates(models, dataset, cfg)
    # Encoded once per sweep; each cell adds the noise prepare_optimization
    # would draw, from the same per-candidate streams.
    mu = models.vae.encode_batch(candidates).mu
    # HVI measures the gain over the starting pool: the baseline front is the
    # candidates' own oracle points, not the full test split.
    baseline = np.stack([
        toyset.oracle_properties(toyset.decode(t)).as_array() for t in candidates])
    ref = reference_point(baseline, cfg)

    rows = []
    for gamma in grid:
        for seed in seeds:
            rng = Rng(seed).split(("sweep", repr(gamma)))
            gcfg = guidance.GuidanceConfig(
                gamma=gamma, sigma=cfg.guidance.sigma, steps=cfg.guidance.steps,
                t_start=cfg.guidance.t_start, clip_norm=cfg.guidance.clip_norm,
                normalize_gradient=cfg.guidance.normalize_gradient)
            noise = normal_rows([rng.split(("cand", i)) for i in range(len(candidates))],
                                mu.shape[1:])
            z0 = seqvae.LatentState(z=mu + gcfg.sigma * noise, t=gcfg.t_start)
            _, final = guidance.guided_integrate(models.flow, models.surrogate,
                                                 cfg.objective, gcfg, z0)
            structures = [toyset.decode(t) for t in models.vae.decode_greedy_batch(final.z)]
            report = _evaluate(models, cfg, structures, baseline, ref, seed, reference)
            rows.append(SweepRow(gamma=gamma, seed=seed, hvi=report.hvi,
                                 hvi_pct=report.hvi_pct, report=report))
    return rows


def sweep_summary(rows) -> list:
    """Mean metrics per gamma, shaped like the full-scale result tables."""
    out = []
    for gamma in sorted({r.gamma for r in rows}):
        grp = [r for r in rows if r.gamma == gamma]
        out.append({
            "gamma": gamma,
            "hvi": float(np.mean([r.hvi for r in grp])),
            "hvi_pct": float(np.mean([r.hvi_pct for r in grp])),
            "hvi_std": float(np.std([r.hvi for r in grp])),
            "mse": float(np.mean([np.mean(r.report.surrogate_mse) for r in grp])),
            "r2": float(np.mean([np.mean(r.report.surrogate_r2) for r in grp])),
            "validity": float(np.mean([r.report.validity for r in grp])),
            "uniqueness": float(np.mean([r.report.uniqueness for r in grp])),
            "novelty": float(np.mean([r.report.novelty for r in grp])),
            "skeleton_diversity": float(np.mean([r.report.skeleton_diversity for r in grp])),
            "frechet": float(np.mean([r.report.frechet for r in grp])),
            "avg_kl": float(np.mean([r.report.descriptor_kl["average"] for r in grp])),
            "descriptor_kl": {
                name: float(np.mean([r.report.descriptor_kl[name] for r in grp]))
                for name in moeval.DESCRIPTOR_NAMES},
        })
    return out


# -- report bundles -------------------------------------------------------

def run_report(out_dir, files: dict) -> str:
    """Persist an artifact bundle plus a manifest of content hashes.

    ``files`` maps relative names to text content. Returns the manifest path.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        manifest = {}
        for name, content in files.items():
            path = os.path.join(out_dir, name)
            os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(content)
            manifest[name] = hashlib.sha256(content.encode()).hexdigest()
        manifest_path = os.path.join(out_dir, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump({"files": manifest}, fh, sort_keys=True, indent=2)
        return manifest_path
    except OSError as e:
        raise ArtifactIOError(f"cannot write report bundle under {out_dir}: {e}") from e


def verify_manifest(out_dir) -> bool:
    """Re-hash bundle files against the manifest."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)["files"]
        for name, digest in manifest.items():
            with open(os.path.join(out_dir, name)) as fh:
                if hashlib.sha256(fh.read().encode()).hexdigest() != digest:
                    return False
        return True
    except OSError as e:
        raise ArtifactIOError(f"cannot verify manifest under {out_dir}: {e}") from e


def hvi_trace_csv(result: BudgetedResult) -> str:
    lines = ["calls,hvi"]
    for calls, value in result.hvi_trace:
        lines.append(f"{calls},{value!r}")
    return "\n".join(lines) + "\n"
