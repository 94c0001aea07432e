"""Workloads, units, output checks and measurement of the flowopt benchmark.

A *unit* is one call into ``flowopt.harness`` (the API the CLI uses) whose
outputs are written as a bundle and checked: a staged training, a gamma
sweep, or one budgeted run. A unit's key names its work exactly, so two runs
of one key must write byte-identical bundles.

Every workload reports every end-to-end metric, so each run's *plan* holds
two sets of units:

* the workload's own units, with seeds taken from ``--seed``;
* reference units with seed 0 for the metrics of the other workloads, and
  for the science guards (``val_elbo``, ``flow_loss``, ``hvi_mean``,
  ``final_hvi.guided-flow``). Across seeds ``hvi_mean`` and ``final_hvi``
  move by about 30%, more than any bound could absorb; on a fixed seed they
  are exact, so a change that alters the results shows. Each guard is also
  checked against its value recorded in ``ckpt/guards.json``, in both
  directions: a unit whose guard strays fails.

A run makes one pass over its plan, then repeats units until ``--seconds``
are spent, always one that feeds the least-measured timing. Each timing
metric is the median of its samples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from flowopt import config, flowmatch, harness, seqvae, surrogate, toyset
from flowopt.nn import load_checkpoint

from tracer import Tracer, layer_metric_specs

WORKLOADS = ("train", "sweep", "budgeted")
STAGES = ("vae", "finetune", "flow")
REFERENCE_SEED = 0
BUDGET_SEEDS = 3       # own run seeds per proposer of ``budgeted``
SETUP_REPS = 3
FLOW_LOSS_TAIL = 20    # final flow-training steps averaged into flow_loss
CKPT_FILES = (harness.FINETUNE_CKPT, harness.FLOW_CKPT)

# name -> (unit, better)
E2E = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
    "vae_s": ("s", "lower"),
    "finetune_s": ("s", "lower"),
    "flow_s": ("s", "lower"),
    "val_elbo": ("nats", "lower"),
    "flow_loss": ("loss", "lower"),
    "sweep_s": ("s", "lower"),
    "hvi_mean": ("hv", "higher"),
    "run_s.guided-flow": ("s", "lower"),
    "run_s.gradient-ascent": ("s", "lower"),
    "run_s.random": ("s", "lower"),
    "final_hvi.guided-flow": ("hv", "higher"),
}
STAGE_TIMES = tuple(f"{stage}_s" for stage in STAGES)
TIMINGS = {name for name, (unit, _) in E2E.items() if unit == "s"}
GUARDS = ("val_elbo", "flow_loss", "hvi_mean", "final_hvi.guided-flow")


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


# -- settings and set-up --------------------------------------------------

@dataclass
class Settings:
    cfg: config.RunConfig
    ckpt_dir: str
    ckpt_manifest: dict
    guards: dict = None   # {"rtol": r, "values": {guard: value}}; None checks none


def default_settings(bench_dir) -> Settings:
    """toy-default on a shortened training schedule, with the committed checkpoint."""
    cfg = config.toy_default(REFERENCE_SEED)
    cfg.vae = dataclasses.replace(cfg.vae, pretrain_epochs=1, finetune_epochs=1)
    cfg.flow = dataclasses.replace(cfg.flow, steps=50)
    ckpt_dir = os.path.join(bench_dir, "ckpt")
    with open(os.path.join(ckpt_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(ckpt_dir, "guards.json")) as fh:
        guards = json.load(fh)
    return Settings(cfg=cfg, ckpt_dir=ckpt_dir, ckpt_manifest=manifest, guards=guards)


def checkpoint_manifest(ckpt_dir) -> dict:
    """SHA-256 of each evaluation checkpoint file plus the vocabulary hash."""
    return {"files": {name: _sha256(os.path.join(ckpt_dir, name)) for name in CKPT_FILES},
            "vocab_hash": toyset.vocab_hash()}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Context:
    settings: Settings
    dataset: toyset.Dataset
    models: harness.Pipeline
    work: str


def load_dataset(data_dir) -> toyset.Dataset:
    """Read the three TSV splits back the way ``flowopt train --data`` does."""
    entries, idx = [], {}
    for which in ("train", "val", "test"):
        start = len(entries)
        entries.extend(toyset.read_split(os.path.join(data_dir, f"{which}.tsv")))
        idx[which] = list(range(start, len(entries)))
    return toyset.Dataset(entries=entries, train_idx=idx["train"],
                          val_idx=idx["val"], test_idx=idx["test"])


def setup(settings: Settings, work) -> Context:
    """Build the dataset, round-trip it through TSV, check and load the checkpoint."""
    _fresh(work)
    d = settings.cfg.data
    built = toyset.generate_dataset(d.seed, d.count, d.min_len, d.max_len)
    data_dir = os.path.join(work, "data")
    toyset.write_dataset(built, data_dir)
    dataset = load_dataset(data_dir)
    for which in ("train", "val", "test"):
        if dataset.subset(which) != built.subset(which):
            raise CheckFailed(f"{which} split changed in its TSV round trip")
    for name, digest in settings.ckpt_manifest["files"].items():
        if _sha256(os.path.join(settings.ckpt_dir, name)) != digest:
            raise CheckFailed(f"checkpoint {name} does not match its recorded SHA-256")
    _, meta = load_checkpoint(os.path.join(settings.ckpt_dir, harness.FINETUNE_CKPT))
    if not meta.get("vocab_hash") == settings.ckpt_manifest["vocab_hash"] == toyset.vocab_hash():
        raise CheckFailed("checkpoint vocabulary hash does not match this build")
    models = harness.Pipeline.load(settings.ckpt_dir)
    seqs = [tokens for tokens, _ in dataset.subset("test")[:8]]
    post = models.vae.encode_batch(seqs)
    models.vae.decode_greedy_batch(post.mu)
    models.surrogate.predict(post.mu.mean(axis=1))
    return Context(settings=settings, dataset=dataset, models=models, work=work)


def _fresh(path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# -- units ----------------------------------------------------------------

@contextlib.contextmanager
def _captured_histories():
    """Keep the loss histories that ``pipeline_train`` drops after each stage."""
    got = {}
    names = ((seqvae, "train_vae", "vae"), (seqvae, "finetune", "finetune"),
             (flowmatch, "train_flow", "flow"))
    originals = [getattr(module, attr) for module, attr, _ in names]

    def keep(stage, fn):
        def wrapper(*args, **kwargs):
            got[stage] = fn(*args, **kwargs)
            return got[stage]
        return wrapper

    for (module, attr, stage), fn in zip(names, originals):
        setattr(module, attr, keep(stage, fn))
    try:
        yield got
    finally:
        for (module, attr, _), fn in zip(names, originals):
            setattr(module, attr, fn)


def _load_back(path):
    """Rebuild the model a checkpoint holds; raises if it does not load."""
    arrays, meta = load_checkpoint(path)
    if meta.get("model_kind") == "flowfield":
        return flowmatch.FlowField.from_checkpoint(arrays, meta)
    vae = seqvae.SeqVae.from_checkpoint(arrays, meta)
    if "surrogate" in meta:
        surrogate.Surrogate.from_checkpoint(arrays, meta["surrogate"])
    return vae


def _stage_losses(stage, history) -> dict:
    if stage == "flow":
        return {"train_loss": list(history)}
    return {"train_loss": history.train_loss, "val_loss": history.val_loss,
            "best_epoch": history.best_epoch}


def train_unit(ctx: Context, clock, out, seed):
    """Staged training, one ``pipeline_train`` call per stage; a stage is a unit.

    A failing stage also fails the stages after it.
    """
    cfg = dataclasses.replace(ctx.settings.cfg, seed=seed)
    metrics, losses, failed = {}, {}, 0
    with _captured_histories() as histories:
        for i, stage in enumerate(STAGES):
            try:
                with clock.measure(f"{stage}_s", metrics):
                    paths = harness.pipeline_train(cfg, ctx.dataset, out, stages=(stage,))
                losses[stage] = _stage_losses(stage, histories[stage])
                values = losses[stage]["train_loss"] + losses[stage].get("val_loss", [])
                if not all(math.isfinite(v) for v in values):
                    raise CheckFailed(f"non-finite {stage} loss")
                _load_back(paths[stage])
            except Exception:  # boundary: record the failure and keep measuring
                _report_failure(f"train seed {seed}: stage {stage}")
                failed = len(STAGES) - i
                break
    if not failed:
        harness.Pipeline.load(out)
        metrics["val_elbo"] = min(losses["finetune"]["val_loss"])
        metrics["flow_loss"] = statistics.fmean(losses["flow"]["train_loss"][-FLOW_LOSS_TAIL:])
    checkpoints = sorted(n for n in os.listdir(out) if n.endswith(".ckpt"))
    files = {"report.json": json.dumps(
        {"seed": seed, "losses": losses,
         "checkpoints": {n: _sha256(os.path.join(out, n)) for n in checkpoints}},
        sort_keys=True, indent=2), "config.json": cfg.to_json()}
    bundle = os.path.join(out, "bundle")
    harness.run_report(bundle, files)
    if not harness.verify_manifest(bundle):
        raise CheckFailed("train bundle manifest does not verify")
    return metrics, files, failed


def sweep_unit(ctx: Context, clock, out, grid, seed):
    """``gamma_sweep`` over ``grid`` with one sweep seed; a (gamma, seed) cell is a unit."""
    cfg = ctx.settings.cfg
    metrics = {}
    with clock.measure("sweep_s", metrics):
        rows = harness.gamma_sweep(ctx.models, ctx.dataset, cfg, grid=list(grid), seeds=[seed])
        files = {
            "summary.json": json.dumps(harness.sweep_summary(rows), sort_keys=True, indent=2),
            "config.json": cfg.to_json(),
            "rows.json": json.dumps(
                [{"gamma": r.gamma, "seed": r.seed, "report": json.loads(r.report.to_json())}
                 for r in rows], sort_keys=True, indent=2),
        }
        harness.run_report(out, files)
    if len(rows) != len(grid):
        raise CheckFailed(f"sweep returned {len(rows)} rows for {len(grid)} cells")
    if not harness.verify_manifest(out):
        raise CheckFailed("sweep bundle manifest does not verify")
    failed = 0
    for r in rows:
        if r.report.validity != 1.0 or not math.isfinite(r.hvi) or r.hvi < 0:
            _report_failure(f"sweep cell gamma={r.gamma} seed={seed}: "
                            f"validity={r.report.validity} hvi={r.hvi}", with_traceback=False)
            failed += 1
    tuned = [r.hvi for r in rows if r.gamma == cfg.guidance.gamma]
    if tuned:
        metrics["hvi_mean"] = statistics.fmean(tuned)
    return metrics, files, failed


def budgeted_unit(ctx: Context, clock, out, proposer, seed):
    """One ``budgeted_run`` written as the CLI writes it; the run is the unit."""
    cfg = ctx.settings.cfg
    metrics = {}
    with clock.measure(f"run_s.{proposer}", metrics):
        result = harness.budgeted_run(ctx.models, ctx.dataset, cfg, proposer, seed)
        files = {
            "report.json": result.report.to_json(),
            "hvi_trace.csv": harness.hvi_trace_csv(result),
            "config.json": cfg.to_json(),
            "run.json": json.dumps({
                "proposer": result.proposer, "seed": result.seed,
                "calls": result.calls, "complete": result.complete,
                "final_hvi": result.final_hvi, "reference": list(result.reference),
                "pool_keys": result.pool_keys}, sort_keys=True, indent=2),
        }
        harness.run_report(out, files)
    if result.calls != cfg.budget.budget or not result.complete:
        raise CheckFailed(f"{proposer} seed {seed}: {result.calls} oracle calls of "
                          f"{cfg.budget.budget}, complete={result.complete}")
    if not harness.verify_manifest(out):
        raise CheckFailed("budgeted bundle manifest does not verify")
    if proposer == "guided-flow":
        metrics["final_hvi.guided-flow"] = result.final_hvi
    return metrics, files, 0


def guard_failures(expected, metrics, names) -> list:
    """The guards among ``names`` that stray from their ``expected`` values.

    A guard strays when it is missing from ``metrics`` or differs from its
    recorded value by more than ``expected["rtol"]`` of it, either way.
    """
    if not expected:
        return []
    rtol, values = expected["rtol"], expected["values"]
    return [name for name in sorted(set(names) & set(values))
            if not abs(metrics.get(name, math.nan) - values[name]) <= rtol * abs(values[name])]


def _report_failure(what, with_traceback=True) -> None:
    print(f"unit failed: {what}", file=sys.stderr)
    if with_traceback:
        traceback.print_exc(file=sys.stderr)


# -- plans ----------------------------------------------------------------

@dataclass
class Unit:
    """One unit call of a plan and the metrics its samples feed."""

    key: str
    kind: str           # the workload whose work this is
    n_units: int        # units counted in attempted/failed
    fn: object
    args: tuple
    feeds: set


def plan(settings: Settings, workload, seed) -> list:
    """The units of one run: the workload's own, then the reference units.

    The reference units of ``train`` and ``budgeted`` do the same work as the
    workload's own units with another seed, so on those workloads they feed
    the same timings. The own ``sweep`` covers the whole gamma grid and its
    reference only the tuned gamma, so there the reference feeds the guard
    alone.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = settings.cfg
    units = {}

    def add(key, kind, n_units, fn, args, feeds):
        if key in units:
            units[key].feeds |= feeds
        else:
            units[key] = Unit(key, kind, n_units, fn, args, feeds)

    def train(s, feeds):
        add(f"train/seed{s}", "train", len(STAGES), train_unit, (s,), feeds)

    def budgeted(p, s, feeds):
        add(f"budgeted/{p}/seed{s}", "budgeted", 1, budgeted_unit, (p, s), feeds)

    grid = tuple(cfg.sweep.grid)
    tuned = (cfg.guidance.gamma,)
    if workload == "train":
        train(seed, set(STAGE_TIMES))
    elif workload == "sweep":
        add(f"sweep/{grid}/seed{seed}", "sweep", len(grid), sweep_unit, (grid, seed),
            {"sweep_s"})
    else:
        for s in range(BUDGET_SEEDS * seed + 1, BUDGET_SEEDS * (seed + 1) + 1):
            for p in harness.PROPOSERS:
                budgeted(p, s, {f"run_s.{p}"})

    train(REFERENCE_SEED, set(STAGE_TIMES) | {"val_elbo", "flow_loss"})
    add(f"sweep/{tuned}/seed{REFERENCE_SEED}", "sweep", 1, sweep_unit, (tuned, REFERENCE_SEED),
        {"hvi_mean"} | ({"sweep_s"} if workload != "sweep" else set()))
    for p in harness.PROPOSERS:
        budgeted(p, REFERENCE_SEED,
                 {f"run_s.{p}"} | ({"final_hvi.guided-flow"} if p == "guided-flow" else set()))
    return list(units.values())


# -- measuring ------------------------------------------------------------
#
# On a shared machine the same code runs up to twice as slow while its
# neighbours are busy, and the speed changes from one second to the next.
# So a timed block is scaled by the machine's speed while it ran: every
# SAMPLE_EVERY_S an interval timer interrupts the block to run probe(), which
# times calibrate(), a fixed kernel shaped like the program's work, and the
# block's seconds, less those spent in probes, are multiplied by CAL_REF_S
# (a fixed reference time of the kernel) over the mean probe time. The kernel
# uses no flowopt code, and a probe keeps the program out of it: garbage
# collection is off while it runs, so the program's collections stay in the
# program's seconds, and an untimed first call of the kernel brings its own
# data back into the caches the program had filled, before the timed call. A
# change to the program thus moves the timings and hardly the scale.
# Unscaled seconds go to the run record.

CAL_REF_S = 0.0007
SAMPLE_EVERY_S = 0.04


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel.

    Two halves: batched products, as in training, and a chain of tiny
    products each with a backward closure, as in batch-1 guided steps. Each
    half alone follows one kind of workload better than the other.
    """
    start = perf_counter()
    x = np.full((64, 96), 0.01)
    w = np.full((96, 96), 0.01)
    recent = []
    for i in range(15):
        y = np.tanh(x @ w) * 0.5 + x
        recent.append({"sum": float(y.sum()), "step": i})
        if len(recent) > 8:
            recent.pop(0)
    x = np.full((4, 16), 0.01)
    w = np.full((16, 16), 0.01)
    tape = []
    for _ in range(40):
        y = np.tanh(x @ w) + x * 0.5
        tape.append((y, lambda g, y=y: g * (1.0 - y * y)))
        x = tape[-1][1](y)
    return perf_counter() - start


def probe() -> float:
    """Seconds of a second calibrate() call in a row, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        calibrate()
        return calibrate()
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times blocks of work, scaled by the machine's speed while they ran."""

    def __init__(self):
        self.unscaled = {}   # metric -> unscaled seconds of its last measurement

    @contextlib.contextmanager
    def measure(self, name, metrics):
        """Time the block and store its scaled seconds as ``metrics[name]``.

        The probes are those taken inside the block plus one right after it,
        so that a block shorter than SAMPLE_EVERY_S has one too.
        """
        speeds, spent = [], [0.0]

        def sample(signum, frame):
            start = perf_counter()
            speeds.append(probe())
            spent[0] += perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        busy = perf_counter() - start - spent[0]
        speeds.append(probe())
        self.unscaled[name] = busy
        metrics[name] = busy * CAL_REF_S / statistics.fmean(speeds)


class NullClock:
    """The traced run's clock: it times nothing, since spans do."""

    def __init__(self):
        self.unscaled = {}

    @contextlib.contextmanager
    def measure(self, name, metrics):
        yield


@dataclass
class Record:
    """Samples, unit counts and outputs of the units run so far."""

    clock: Clock
    tracer: Tracer = None
    samples: dict = field(default_factory=dict)   # metric -> [values]
    unscaled: dict = field(default_factory=dict)  # timing -> [unscaled seconds]
    outputs: dict = field(default_factory=dict)   # unit key -> files of its first run
    durations: dict = field(default_factory=dict)  # unit key -> [seconds]
    attempted: int = 0
    failed: int = 0

    def run(self, ctx: Context, unit: Unit) -> None:
        """Run one unit; an exception or a failed check fails all its units."""
        tag = f"{unit.key}#{len(self.durations.get(unit.key, ()))}"
        if self.tracer is not None:
            self.tracer.run_id = tag
        self.attempted += unit.n_units
        self.clock.unscaled.clear()
        out = os.path.join(ctx.work, "unit")
        _fresh(out)
        start = perf_counter()
        try:
            metrics, files, failed = unit.fn(ctx, self.clock, out, *unit.args)
        except Exception:  # boundary: record the failure and keep measuring
            _report_failure(tag)
            metrics, files, failed = {}, None, unit.n_units
        self.durations.setdefault(unit.key, []).append(perf_counter() - start)
        shutil.rmtree(out, ignore_errors=True)
        if files is not None and self.outputs.setdefault(unit.key, files) != files:
            _report_failure(f"{tag}: outputs differ from an earlier run of the same unit",
                            with_traceback=False)
            failed = unit.n_units
        strayed = guard_failures(ctx.settings.guards, metrics, unit.feeds)
        if files is not None and strayed:
            _report_failure(f"{tag}: {', '.join(strayed)} strayed from the recorded values",
                            with_traceback=False)
            failed = unit.n_units
        self.failed += failed
        for name, value in metrics.items():
            if name in unit.feeds:
                self.samples.setdefault(name, []).append(value)
        for name, value in self.clock.unscaled.items():
            if name in unit.feeds:
                self.unscaled.setdefault(name, []).append(value)

    def least_measured(self, unit: Unit) -> float:
        """Seconds measured so far of the least-measured timing that ``unit`` feeds."""
        return min(sum(self.samples.get(name, ())) for name in unit.feeds & TIMINGS)


def timed_pass(ctx: Context, units, seconds) -> Record:
    """One pass over ``units``; then, until ``seconds`` are spent, a repeat of
    the unit that feeds the least-measured timing, among those whose last run
    fits in the time left. Every timing thus gets about the same measured
    seconds: one long sweep is worth many short budgeted runs, since machine
    noise averages out over time, not over calls.

    Units that feed no timing (guards of the workload's own kind) run once.
    """
    rec = Record(clock=Clock())
    deadline = perf_counter() + seconds
    for unit in units:
        rec.run(ctx, unit)
    timed = [u for u in units if u.feeds & TIMINGS]
    while True:
        left = deadline - perf_counter()
        fits = [u for u in timed if rec.durations[u.key][-1] <= left]
        if not fits:
            return rec
        rec.run(ctx, min(fits, key=lambda u: (rec.least_measured(u), len(rec.durations[u.key]))))


# -- one benchmark run ----------------------------------------------------

def run(settings: Settings, workload, seed, seconds, trace, out_dir, import_s) -> tuple:
    """Set up and measure one workload.

    ``import_s`` is the unscaled time the process took to import the
    program; it is scaled by 20 probes taken right after. Returns the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``) and a dict
    of details for the run record. A traced run also writes its spans to
    ``out_dir``.
    """
    units = plan(settings, workload, seed)
    _fresh(out_dir)
    work = os.path.join(out_dir, "work")
    if not trace:
        clock, setups = Clock(), []
        import_scaled = import_s * CAL_REF_S / statistics.fmean(probe() for _ in range(20))
        for i in range(SETUP_REPS):
            timing = {}
            with clock.measure("setup_s", timing):
                ctx = setup(settings, os.path.join(work, f"setup{i}"))
            setups.append(timing["setup_s"])
        rec = timed_pass(ctx, units, seconds)
        values = {"setup_s": import_scaled + statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_frac": 1.0 - rec.failed / rec.attempted}
        for name in E2E:
            if name not in values:
                got = rec.samples.get(name)
                values[name] = statistics.median(got) if got else None
        details = {"import_s": import_s, "setup_runs_s": setups,
                   "samples": rec.samples, "unscaled": rec.unscaled,
                   "unit_seconds": rec.durations}
        metrics = {name: {"value": values[name], "unit": E2E[name][0]} for name in E2E}
        correct = rec.failed == 0 and all(v is not None for v in values.values())
        attempted, failed = rec.attempted, rec.failed
    else:
        # The traced run measures the workload's own units, so a layer that
        # does no work for the workload reads 0 here. Each unit runs untraced
        # and then traced, so that a slow spell of the machine falls on both.
        own = [u for u in units if u.kind == workload]
        tracer = Tracer()
        plain = Record(clock=NullClock())
        traced = Record(clock=NullClock(), tracer=tracer)
        walls = {"untraced": 0.0, "traced": 0.0}

        def timed(kind, fn):
            start = perf_counter()
            if kind == "traced":
                tracer.install()
            try:
                return fn()
            finally:
                if kind == "traced":
                    tracer.uninstall()
                walls[kind] += perf_counter() - start

        plain_ctx = timed("untraced", lambda: setup(settings, os.path.join(work, "untraced")))
        tracer.run_id = "setup"
        traced_ctx = timed("traced", lambda: setup(settings, os.path.join(work, "traced")))
        for unit in own:
            timed("untraced", lambda: plain.run(plain_ctx, unit))
            timed("traced", lambda: traced.run(traced_ctx, unit))
        identical = plain.outputs == traced.outputs
        if not identical:
            print("traced outputs differ from the untraced run", file=sys.stderr)
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = walls["traced"] - walls["untraced"]
        details = {"untraced_wall_s": walls["untraced"], "traced_wall_s": walls["traced"],
                   "outputs_identical": identical, "spans": len(tracer.spans),
                   "units": [u.key for u in own]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layer_metric_specs().items()}
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = failed == 0 and identical
        tracer.write(os.path.join(out_dir, "spans.jsonl.gz"))
    shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details
