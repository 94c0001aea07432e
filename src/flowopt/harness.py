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
import weakref
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import flowmatch, guidance, moeval, seqvae, surrogate as surrogate_mod, toyset
from .config import RunConfig
from .errors import ArtifactIOError, ConfigError, ContractViolation
from .nn import load_checkpoint, save_checkpoint
from .rng import Rng

VAE_CKPT = "vae_pretrain.ckpt"
FINETUNE_CKPT = "vae_finetune.ckpt"
FLOW_CKPT = "flow.ckpt"

# Seed selection: p_i is proportional to PARETO_WEIGHT (on the front, else 1)
# times exp(-DIVERSITY_PENALTY * max similarity to the last HISTORY_WINDOW
# optimized structures).
DIVERSITY_PENALTY = 2.0
PARETO_WEIGHT = 2.0
HISTORY_WINDOW = 10
SELECT_ATOL = float(np.sqrt(np.finfo(np.float64).eps))  # Generator.choice's bound on |sum p - 1|
_SIGNS = np.asarray(toyset.PROPERTY_SIGNS, dtype=np.float64)  # maximizes both properties


# -- staged training ------------------------------------------------------

@dataclass
class Pipeline:
    """Trained models for one run; loadable from a checkpoint directory."""

    vae: seqvae.SeqVae
    surrogate: surrogate_mod.Surrogate
    flow: flowmatch.FlowField

    @classmethod
    def load(cls, ckpt_dir) -> "Pipeline":
        """The models of ``ckpt_dir`` as training wrote them. A surrogate or a
        flow over other latents than the VAE's is an I/O error naming its file."""
        def finetuned(arrays, meta):
            return (seqvae.SeqVae.from_checkpoint(arrays, meta),
                    surrogate_mod.Surrogate.from_checkpoint(arrays, meta["surrogate"]))

        ft_path, flow_path = (os.path.join(ckpt_dir, name) for name in (FINETUNE_CKPT, FLOW_CKPT))
        vae, sur = _load_model(ft_path, finetuned)
        flow = _load_model(flow_path, flowmatch.FlowField.from_checkpoint)
        c = vae.config
        _check_latents(ft_path, (sur.config.latent_dim,), (c.d,), ArtifactIOError, "its VAE")
        _check_latents(flow_path, (flow.config.K, flow.config.d), (c.K, c.d), ArtifactIOError,
                       ft_path)
        return cls(vae=vae, surrogate=sur, flow=flow)


def _load_model(path, build):
    """``build(arrays, meta)`` on the checkpoint at ``path``.

    A checkpoint that lacks an array or a metadata entry the model needs,
    whose stored config is malformed, or which holds an array of another shape
    than its stored config gives, is an I/O error naming the file, like one
    that does not parse.
    """
    arrays, meta = load_checkpoint(path)
    try:
        return build(arrays, meta)
    except KeyError as e:
        raise ArtifactIOError(f"{path} lacks {e.args[0]!r}") from e
    except TypeError as e:
        raise ArtifactIOError(f"{path} has a malformed config: {e}") from e
    except ArtifactIOError as e:
        raise ArtifactIOError(f"{path} {e}") from e


def _check_latents(path, got: tuple, want: tuple, error, source) -> None:
    """Raise ``error`` naming ``path`` if its model's latent shape is not
    ``want``, that of ``source``."""
    if got != want:
        raise error(f"{path} holds a model over latents of shape {got}, but {source} has {want}")


def pipeline_train(config: RunConfig, dataset: toyset.Dataset, out_dir,
                   stages=("vae", "finetune", "flow")) -> dict:
    """Run the staged protocol; each stage writes one checkpoint.

    Stage order is enforced: fine-tuning needs the pretrained VAE and flow
    training the fine-tuned encoder.
    """
    nonempty_split(dataset, "train")  # every stage trains on it
    if "vae" in stages or "finetune" in stages:
        nonempty_split(dataset, "val")  # both keep their best validation epoch
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(config.seed)
    latents = (config.vae.K, config.vae.d)  # of the VAE that fine-tuning and flow training load
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
        _check_latents(src, (vae.config.K, vae.config.d), latents, ConfigError, "the config")
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
            raise ConfigError("flow stage requires the fine-tuned encoder checkpoint")
        vae = _load_model(src, seqvae.SeqVae.from_checkpoint)
        _check_latents(src, (vae.config.K, vae.config.d), latents, ConfigError, "the config")
        field_model = flowmatch.FlowField(config.flow, rng.split("flow"))
        # The encoder does not train here: encode the train split once, gather per
        # step. A row's encoding does not depend on its padding or on the other
        # rows, but its last bits do depend on the batch's row count (BLAS picks
        # its kernel by the shape of the scores product), so these are the bits
        # of encode_batch's fixed chunks, not of each row encoded alone.
        post = vae.encode_batch([tokens for tokens, _ in dataset.subset("train")])

        def z1_sampler(r: Rng, n: int) -> np.ndarray:
            idx = r.split("idx").gen.integers(0, len(post.mu), n)
            rows = seqvae.PosteriorParams(mu=post.mu[idx], log_sigma=post.log_sigma[idx])
            return seqvae.reparameterize(rows, r.split("eps"))

        flowmatch.train_flow(field_model, z1_sampler, rng.split("flow-train"))
        save_checkpoint(os.path.join(out_dir, FLOW_CKPT), field_model.arrays(), field_model.meta())
        paths["flow"] = os.path.join(out_dir, FLOW_CKPT)

    return paths


def _surrogate_fidelity(vae, sur, entries) -> dict:
    pooled = seqvae.mean_pool(vae.encode_batch([e[0] for e in entries]).mu)
    y = np.stack([e[1].as_array() for e in entries])
    mse, r2 = surrogate_mod.fidelity(sur.predict(pooled), y)
    return {"mse": mse, "r2": r2}


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


def nonempty_split(dataset: toyset.Dataset, which: str) -> list:
    """The entries of split ``which``; an empty one is a config error."""
    entries = dataset.subset(which)
    if not entries:
        raise ConfigError(f"the {which} split is empty")
    return entries


class SelectionState:
    """What the selection law reads, carried over a pool that grows by one row at a time.

    ``points`` (capacity, 2) and ``bits`` (capacity, FEATURE_BITS) are the
    pool's arrays, which their owner fills in order; ``add()`` takes their
    next row in. ``remember(bitset)`` appends a 0/1 bitset to the history,
    of which the last ``window`` count. Each update is one row or one column:
    ``add`` compares the new point with the pool's for the Pareto flags and
    counts the bits the new row shares with each history bitset;
    ``remember`` counts those the new bitset shares with each pool row, one
    (n, FEATURE_BITS) product. The counts are exact integers, so the order of
    the updates leaves every value.
    """

    def __init__(self, points: np.ndarray, bits: np.ndarray, window: int):
        self.points, self.bits, self.window = points, bits, window
        self.n = self.remembered = 0
        self.on_front = np.zeros(len(points), dtype=bool)
        self.sizes = np.zeros(len(points))  # each pool row's bit count
        self.history = np.zeros((window, bits.shape[1]))  # a ring of the last bitsets
        self.history_sizes = np.zeros(window)
        self.shared = np.zeros((len(points), window))  # pool row x history slot

    def add(self) -> None:
        n = self.n
        t = self.points[:n + 1] * _SIGNS  # both properties maximized
        ge, le = (t[:n] >= t[n]).all(axis=1), (t[:n] <= t[n]).all(axis=1)
        self.on_front[n] = not (ge & ~le).any()  # no pool point dominates it
        self.on_front[:n] &= ~le | ge  # nor does it dominate a point left flagged
        self.sizes[n] = self.bits[n].sum()
        k = min(self.remembered, self.window)
        self.shared[n, :k] = self.history[:k] @ self.bits[n]
        self.n = n + 1

    def remember(self, bitset: np.ndarray) -> None:
        slot = self.remembered % self.window
        self.history[slot] = bitset
        self.history_sizes[slot] = self.history[slot].sum()
        self.shared[:self.n, slot] = self.bits[:self.n] @ self.history[slot]
        self.remembered += 1

    def probabilities(self) -> np.ndarray:
        """Each pool member's probability under the selection law stated with
        DIVERSITY_PENALTY."""
        n, k = self.n, min(self.remembered, self.window)
        w = np.where(self.on_front[:n], PARETO_WEIGHT, 1.0)
        if k:
            # Jaccard from the counts; a pair of empty bitsets has similarity 1.
            inter = self.shared[:n, :k]
            union = self.sizes[:n, None] + self.history_sizes[:k] - inter
            sims = np.where(union > 0, inter / np.maximum(union, 1), 1.0).max(axis=1)
        else:
            sims = np.zeros(n)
        p = w * np.exp(-DIVERSITY_PENALTY * sims)
        return p / p.sum()


def selection_probabilities(points: np.ndarray, bits: np.ndarray, history) -> np.ndarray:
    """Each pool member's probability under the selection law stated with DIVERSITY_PENALTY.

    ``points`` and ``bits`` are the pool's (n, 2) points and (n, FEATURE_BITS)
    0/1 float bitsets; ``history`` holds the recently optimized bitsets, one
    row each. The law is that of a ``SelectionState`` that remembered the
    history and took the pool in row by row, as a budgeted run's does.
    """
    points, bits = np.asarray(points, dtype=np.float64), np.asarray(bits, dtype=np.float64)
    history = np.asarray(history, dtype=np.float64).reshape(-1, bits.shape[1])
    state = SelectionState(points, bits, max(len(history), 1))
    for bitset in history:
        state.remember(bitset)
    for _ in points:
        state.add()
    return state.probabilities()


def select_seed(probs: np.ndarray, rng: Rng) -> int:
    """Draw a pool index with the given ``selection_probabilities``.

    The draw of ``Generator.choice(len(probs), p=probs)``, equal to it, without
    its overhead: one uniform searched in the normalized cumulative sum.
    ``probs`` must be 1-D, non-negative and sum to 1 within √eps, as ``choice``
    requires; a NaN or an infinity fails the sum or the minimum.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ContractViolation("selection probabilities must be 1-D")
    if not len(p):
        raise ContractViolation("cannot select from an empty pool")
    cdf = p.cumsum()
    if not (abs(cdf[-1] - 1.0) <= SELECT_ATOL and p.min() >= 0.0):
        raise ContractViolation("selection probabilities must be >= 0 and sum to 1")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.gen.random(), side="right"))


PROPOSERS = ("guided-flow", "gradient-ascent", "random")


def _propose(proposer: str, models: Pipeline, cfg: RunConfig,
             mu: np.ndarray, rng: Rng) -> toyset.Structure:
    """One proposal from the seed whose (1, K, d) posterior mean is ``mu``
    (unread, and may be None, for ``random``)."""
    vae, sur, flow = models.vae, models.surrogate, models.flow
    spec = cfg.objective
    if proposer == "random":
        final = rng.split("noise").normal((1, cfg.vae.K, cfg.vae.d))
    elif proposer == "guided-flow":
        z0 = guidance.prepare_optimization(mu, cfg.guidance.sigma, [rng.split("noise")])
        _, final = guidance.guided_integrate(flow, sur, spec, cfg.guidance, z0)
    elif proposer == "gradient-ascent":
        z0 = guidance.prepare_optimization(mu, guidance.GA_SIGMA, [rng.split("noise")])
        final = guidance.gradient_ascent_baseline(sur, spec, z0, guidance.GA_ETA, guidance.GA_STEPS)
    else:
        raise ConfigError(f"unknown proposer {proposer!r}")
    (tokens,) = vae.decode_greedy_batch(final)
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
                 proposer: str, seed: int) -> BudgetedResult:
    """One sequential optimization run under an exact oracle budget.

    The pool is its structures with their (n, 2) points and 0/1 float
    bitsets in arrays sized for the largest pool a run can reach; each row is
    written once, when its oracle value arrives. The first ``n_init`` rows are
    the initial pool and the rest the optimized structures, in order. A
    ``SelectionState`` over those arrays carries the selection law's flags
    and counts from one oracle call to the next. A row's posterior mean is
    encoded when it is first selected, and kept. ``random`` reads no seed,
    so it draws none and carries no selection state. The pool's hypervolume is
    carried while the front stands: a point outside the reference box or
    weakly dominated by the pool keeps its bits. Each structure is parsed
    once, by the decode that makes it; the oracle and the report read the
    stats of that parse.
    """
    if proposer not in PROPOSERS:
        raise ConfigError(f"proposer must be one of {PROPOSERS}")
    train = nonempty_split(dataset, "train")
    rng = Rng(seed).split(("budgeted", proposer))
    oracle = CountingOracle(cfg.budget.budget)
    size = cfg.budget.init_size + cfg.budget.budget
    structures = []
    points = np.empty((size, 2))
    bits = np.empty((size, toyset.FEATURE_BITS))
    # The selection law's state; random reads no seed, so it carries none.
    law = None if proposer == "random" else SelectionState(points, bits, HISTORY_WINDOW)
    means = {}  # pool row -> its (1, K, d) posterior mean

    def add(structure, props):
        points[len(structures)] = props
        bits[len(structures)] = structure.features
        structures.append(structure)
        if law is not None:
            law.add()

    complete = True
    init_rng = rng.split("init")
    init_idx = [int(init_rng.integers(0, len(train))) for _ in range(cfg.budget.init_size)]
    try:
        for i in init_idx:
            s = toyset.decode(train[i][0])
            add(s, toyset.oracle_properties(s).as_array() if cfg.budget.free_init else oracle(s))
    except BudgetExhausted:
        complete = False

    n_init = len(structures)
    baseline = points[:n_init]
    ref = reference_point(baseline)

    hv = hv_base = moeval.hypervolume_2d(baseline, ref)
    trace = []
    while complete and oracle.calls < cfg.budget.budget:
        n = len(structures)
        srng = rng.split(("step", n - n_init))
        mu = None  # random reads no seed, so it draws none
        if law is not None:
            i = select_seed(law.probabilities(), srng.split("select"))
            if i not in means:
                means[i] = models.vae.encode_batch([structures[i].canonical_tokens]).mu
            mu = means[i]
        proposed = _propose(proposer, models, cfg, mu, srng.split("propose"))
        add(proposed, oracle(proposed))
        if law is not None:  # the history is the last HISTORY_WINDOW optimized bitsets
            law.remember(bits[n])
        # The pool is the baseline followed by the optimized points.
        if moeval.adds_hypervolume(points[:n], points[n], ref):
            hv = moeval.hypervolume_2d(points[:n + 1], ref)
        trace.append((oracle.calls, max(0.0, hv - hv_base)))

    final_hvi = trace[-1][1] if trace else 0.0
    report = _evaluate(models, cfg, structures[n_init:], bits[n_init:len(structures)],
                       baseline, ref, seed, dataset)
    return BudgetedResult(
        proposer=proposer, seed=seed, calls=oracle.calls, complete=complete,
        reference=tuple(float(x) for x in ref),
        hvi_trace=trace, final_hvi=final_hvi, report=report,
        pool_keys=[s.canonical_key for s in structures])


# -- shared evaluation ----------------------------------------------------

def reference_point(baseline) -> np.ndarray:
    """The hypervolume reference for a baseline point set: ``auto_reference``,
    or the worst corner of the property ranges when a property has zero range
    over the baseline."""
    try:
        return moeval.auto_reference(baseline)
    except moeval.DegenerateRangeError:
        lo, hi = np.array([toyset.P1_BOUNDS, toyset.P2_BOUNDS]).T
        return np.where(np.asarray(toyset.PROPERTY_SIGNS) > 0, lo, hi)


@dataclass(frozen=True)
class ReferenceSet:
    """What generated sets are compared against: the train split's canonical
    keys, descriptor values, the Fréchet embedding projection and the
    Gaussian fit of the split's embeddings (None for fewer than two rows)."""

    keys: frozenset
    descriptors: dict
    projection: np.ndarray
    embedding_fit: moeval.GaussianFit | None


# Each live dataset's reference; an entry goes with its dataset.
_REFERENCES = weakref.WeakKeyDictionary()


def reference_set(dataset: toyset.Dataset) -> ReferenceSet:
    """Everything ``_evaluate`` compares to, built once per dataset."""
    reference = _REFERENCES.get(dataset)
    if reference is None:
        reference = _REFERENCES[dataset] = _build_reference(dataset)
    return reference


def _build_reference(dataset: toyset.Dataset) -> ReferenceSet:
    """Decode the train split once and derive the reference from it."""
    structures = [toyset.decode(t) for t, _ in nonempty_split(dataset, "train")]
    features = moeval.feature_matrix(structures)
    projection = moeval.embedding_projection(moeval.PROJECTION_SEED)
    embeddings = moeval.structure_embeddings(features, projection)
    return ReferenceSet(keys=frozenset(s.canonical_key for s in structures),
                        descriptors=moeval.descriptor_values(structures, features),
                        projection=projection,
                        embedding_fit=(moeval.gaussian_fit(embeddings)
                                       if len(embeddings) >= 2 else None))


def _evaluate(models: Pipeline, cfg: RunConfig, structures, features, baseline_points,
              ref, seed, dataset: toyset.Dataset) -> moeval.EvalReport:
    """The report on ``structures``, whose (n, FEATURE_BITS) bitsets are
    ``features``, against the baseline points and the dataset's reference."""
    report = moeval.EvalReport(seed=seed, projection_seed=moeval.PROJECTION_SEED,
                               reference_point=tuple(float(x) for x in ref),
                               config_echo={"guidance": asdict(cfg.guidance),
                                            "objective": asdict(cfg.objective)})
    if not structures:
        return report
    descriptors = moeval.descriptor_values(structures, features)
    points = np.stack([descriptors["p1"], descriptors["p2"]], axis=1)
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

    report.hv_ci = moeval.bootstrap_ci(hv_metric, len(points),
                                       cfg.evaluation.bootstrap_resamples, moeval.CI_LEVEL,
                                       Rng(seed).split("hv-ci"))
    reference = reference_set(dataset)
    sm = moeval.set_metrics(structures, reference.keys)
    report.validity = sm["validity"]
    report.uniqueness = sm["uniqueness"]
    report.novelty = sm["novelty"]
    report.skeleton_diversity = sm["skeleton_diversity"]

    if len(structures) >= 2 and reference.embedding_fit is not None:
        report.frechet = moeval.frechet_distance(
            moeval.structure_embeddings(features, reference.projection),
            reference.embedding_fit)
    report.descriptor_kl = moeval.descriptor_kl(descriptors, reference.descriptors)
    post = models.vae.encode_batch([s.canonical_tokens for s in structures])
    mse, r2 = surrogate_mod.fidelity(models.surrogate.predict(seqvae.mean_pool(post.mu)), points)
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
    seqs = [t for t, _ in nonempty_split(dataset, "test")]
    pred = models.surrogate.predict(seqvae.mean_pool(models.vae.encode_batch(seqs).mu))
    front = moeval.pareto_front(pred)
    chosen = list(front.indices)
    for i in np.argsort(guidance.objective_value(cfg.objective, pred)):
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
    if not seeds:
        raise ConfigError("sweep seeds must be nonempty")
    # Every gamma and seed is validated before any work.
    cells = [replace(cfg.guidance, gamma=gamma) for gamma in grid]
    streams = [(seed, Rng(seed)) for seed in seeds]
    candidates = _sweep_candidates(models, dataset, cfg)
    # Encoded once per sweep; each cell adds its start noise to the means.
    mu = models.vae.encode_batch(candidates).mu
    # HVI measures the gain over the starting pool: the baseline front is the
    # candidates' own oracle points, not the full test split.
    baseline = np.stack([
        toyset.oracle_properties(toyset.decode(t)).as_array() for t in candidates])
    ref = reference_point(baseline)

    rows = []
    for gcfg in cells:
        gamma = gcfg.gamma
        for seed, seed_rng in streams:
            rng = seed_rng.split(("sweep", repr(gamma)))
            z0 = guidance.prepare_optimization(
                mu, gcfg.sigma, [rng.split(("cand", i)) for i in range(len(candidates))])
            _, final = guidance.guided_integrate(models.flow, models.surrogate,
                                                 cfg.objective, gcfg, z0)
            structures = [toyset.decode(t) for t in models.vae.decode_greedy_batch(final)]
            report = _evaluate(models, cfg, structures, moeval.feature_matrix(structures),
                               baseline, ref, seed, dataset)
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
    """Re-hash bundle files against the manifest.

    A manifest that cannot be read, is not JSON or has no ``files`` map
    raises ArtifactIOError.
    """
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        files = manifest.get("files") if isinstance(manifest, dict) else None
        if not isinstance(files, dict):
            raise ValueError("no 'files' map")
        for name, digest in files.items():
            with open(os.path.join(out_dir, name)) as fh:
                if hashlib.sha256(fh.read().encode()).hexdigest() != digest:
                    return False
        return True
    except (OSError, ValueError) as e:
        raise ArtifactIOError(f"cannot verify manifest under {out_dir}: {e}") from e


def hvi_trace_csv(result: BudgetedResult) -> str:
    lines = ["calls,hvi"]
    for calls, value in result.hvi_trace:
        lines.append(f"{calls},{value!r}")
    return "\n".join(lines) + "\n"
