"""Outside-in tracer for the flowopt benchmark.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
each target below with a wrapper at the name its caller resolves (a module
attribute, a class attribute or a property) and ``Tracer.uninstall`` puts
every original back. A wrapper records one span per call (name, start, end,
parent span, run id) plus the counts of that boundary. Spans stay in memory
until ``write``.

A target missing from the program (say, a single-sample twin that a later
change deletes) is skipped and its metrics read 0: no calls were made.
"""

from __future__ import annotations

import gzip
import json
import os
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

from flowopt import (autodiff, flowmatch, guidance, harness, moeval, rng, seqvae,
                     surrogate, toyset)

STAT_UNITS = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "rows": ("count", "lower"),
    "bytes": ("bytes", "lower"),
    "nodes": ("count", "lower"),
    "unique_frac": ("frac", "higher"),
    "novel_frac": ("frac", "higher"),
}


def _rows_len(args, kwargs, result):
    return len(args[1])


def _rows_shape(args, kwargs, result):
    return args[1].shape[0]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _report_bytes(args, kwargs, result):
    files = args[1] if len(args) > 1 else kwargs["files"]
    return sum(len(text.encode()) for text in files.values())


def _tape_nodes(args, kwargs, result):
    """Nodes the backward pass visits: those reachable through requires_grad parents."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


def _stage_span(args, kwargs):
    stages = kwargs.get("stages", args[3] if len(args) > 3 else ("vae", "finetune", "flow"))
    return "harness.pipeline_train." + "+".join(stages)


@dataclass(frozen=True)
class Target:
    """One patched name. ``owners`` all get the same wrapper and metric name."""

    name: str
    owners: tuple
    attr: str
    stats: tuple = ("calls", "s")
    count: object = None      # (args, kwargs, result) -> number added to ``name.<count_stat>``
    count_stat: str = "rows"
    span_name: object = None  # (args, kwargs) -> span name, when it depends on the call


TARGETS = (
    Target("autodiff.gradients", (autodiff,), "gradients", ("calls", "s", "self_s", "nodes"),
           count=_tape_nodes, count_stat="nodes"),
    Target("nn.optimizer_step", (seqvae, flowmatch, surrogate), "optimizer_step"),
    Target("nn.clip_grad_norm", (seqvae, flowmatch, surrogate), "clip_grad_norm", ("s",)),
    Target("nn.time_embed", (flowmatch,), "time_embed"),
    Target("nn.save_checkpoint", (harness,), "save_checkpoint", ("s", "bytes"),
           count=_file_bytes, count_stat="bytes"),
    Target("nn.load_checkpoint", (harness,), "load_checkpoint", ("s", "bytes"),
           count=_file_bytes, count_stat="bytes"),
    Target("rng.Rng.split", (rng.Rng,), "split"),
    Target("toyset.decode", (toyset,), "decode"),
    Target("toyset.oracle_properties", (toyset,), "oracle_properties"),
    Target("toyset.features", (toyset.Structure,), "features", ("calls", "s", "unique_frac")),
    Target("toyset.generate_dataset", (toyset,), "generate_dataset", ("s",)),
    Target("toyset.read_split", (toyset,), "read_split", ("s",)),
    Target("seqvae.train_vae", (seqvae,), "train_vae", ("s", "self_s")),
    Target("seqvae.finetune", (seqvae,), "finetune", ("s", "self_s")),
    Target("seqvae.elbo_loss", (seqvae,), "elbo_loss"),
    Target("seqvae.evaluate_elbo", (seqvae,), "evaluate_elbo", ("s",)),
    Target("seqvae.SeqVae.encode_graph", (seqvae.SeqVae,), "encode_graph",
           ("calls", "s", "rows"), count=_rows_shape),
    Target("seqvae.SeqVae.encode_batch", (seqvae.SeqVae,), "encode_batch",
           ("calls", "s", "rows"), count=_rows_len),
    Target("seqvae.SeqVae.encode", (seqvae.SeqVae,), "encode"),
    Target("seqvae.SeqVae.decode_greedy_batch", (seqvae.SeqVae,), "decode_greedy_batch",
           ("calls", "s", "rows"), count=_rows_shape),
    Target("surrogate.Surrogate.predict", (surrogate.Surrogate,), "predict"),
    Target("surrogate.Surrogate.predict_graph", (surrogate.Surrogate,), "predict_graph"),
    Target("flowmatch.train_flow", (flowmatch,), "train_flow", ("s", "self_s")),
    Target("flowmatch.fm_loss", (flowmatch,), "fm_loss"),
    Target("flowmatch.FlowField.velocity", (flowmatch.FlowField,), "velocity"),
    Target("flowmatch.FlowField.velocity_graph", (flowmatch.FlowField,), "velocity_graph",
           ("calls", "s", "rows"), count=_rows_shape),
    Target("guidance.guided_integrate", (guidance,), "guided_integrate", ("calls", "s", "self_s")),
    Target("guidance.objective_gradient", (guidance,), "objective_gradient",
           ("calls", "s", "self_s")),
    Target("guidance.prepare_optimization", (guidance,), "prepare_optimization"),
    Target("guidance.gradient_ascent_baseline", (guidance,), "gradient_ascent_baseline"),
    Target("moeval.bootstrap_ci", (moeval,), "bootstrap_ci", ("calls", "s", "self_s")),
    Target("moeval.hypervolume_2d", (moeval,), "hypervolume_2d"),
    Target("moeval.pareto_front", (moeval,), "pareto_front"),
    Target("moeval.hvi", (moeval,), "hvi"),
    Target("moeval.descriptor_kl", (moeval,), "descriptor_kl"),
    Target("moeval.frechet_distance", (moeval,), "frechet_distance", ("s",)),
    Target("moeval.structure_embeddings", (moeval,), "structure_embeddings", ("s",)),
    Target("moeval.set_metrics", (moeval,), "set_metrics", ("s",)),
    Target("harness.pipeline_train", (harness,), "pipeline_train", (), span_name=_stage_span),
    Target("harness._evaluate", (harness,), "_evaluate", ("calls", "s", "self_s")),
    Target("harness.selection_probabilities", (harness,), "selection_probabilities"),
    Target("harness._propose", (harness,), "_propose", ("calls", "s", "self_s")),
    Target("harness._sweep_candidates", (harness,), "_sweep_candidates", ("s",)),
    Target("harness.run_report", (harness,), "run_report", ("calls", "s", "bytes"),
           count=_report_bytes, count_stat="bytes"),
    Target("harness.oracle", (harness.CountingOracle,), "__call__", ("calls", "novel_frac")),
)

# Span names whose metrics are listed although no single target name carries them.
EXTRA_METRICS = (
    ("harness.pipeline_train.vae.s", "s", "lower"),
    ("harness.pipeline_train.finetune.s", "s", "lower"),
    ("harness.pipeline_train.flow.s", "s", "lower"),
    ("autodiff.tensors", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metric_specs() -> dict:
    """Every per-layer metric the traced run emits: name -> (unit, better)."""
    specs = {}
    for t in TARGETS:
        for stat in t.stats:
            specs[f"{t.name}.{stat}"] = STAT_UNITS[stat]
    for name, unit, better in EXTRA_METRICS:
        specs[name] = (unit, better)
    return specs


class Tracer:
    """Span recorder; install around a region of work, then read ``layer_metrics``."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1, run id)
        self.counts = Counter()
        self.run_id = ""
        self._stack = []
        self._saved = []       # (owner, attr, original descriptor)
        self._feature_keys = set()
        self._oracle_seen = weakref.WeakKeyDictionary()
        self.tensors = 0

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        for t in TARGETS:
            for owner in t.owners:
                original = vars(owner).get(t.attr)
                if original is None:
                    continue
                self._saved.append((owner, t.attr, original))
                setattr(owner, t.attr, self._wrap_target(t, original))
        init = vars(autodiff.Tensor)["__init__"]
        self._saved.append((autodiff.Tensor, "__init__", init))

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        autodiff.Tensor.__init__ = counting_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def _wrap_target(self, t: Target, original):
        count = {"toyset.features": self._feature_seen,
                 "harness.oracle": self._oracle_novelty}.get(t.name, t.count)
        if isinstance(original, property):
            return property(self._wrap(original.fget, t.name, count, t.count_stat))
        return self._wrap(original, t.name, count, t.count_stat, t.span_name)

    def _feature_seen(self, args, kwargs, result):
        self._feature_keys.add(args[0].canonical_tokens)
        return 0

    def _oracle_novelty(self, args, kwargs, result):
        """An oracle call is novel when its structure is new to the run's pool.

        Every pool entry passes through the run's oracle, so the pool is the
        set of keys that oracle has seen.
        """
        seen = self._oracle_seen.setdefault(args[0], set())
        key = args[1].canonical_key
        if key not in seen:
            seen.add(key)
            self.counts["harness.oracle.novel"] += 1
        return 0

    def _wrap(self, fn, name, count=None, count_stat="rows", span_name=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_key = f"{name}.{count_stat}"

        def wrapper(*args, **kwargs):
            span = span_name(args, kwargs) if span_name else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.run_id)
            if count is not None:
                counts[count_key] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer values: calls, total and self seconds, plus boundary counts."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        out = {}
        for t in TARGETS:
            for stat in t.stats:
                key = f"{t.name}.{stat}"
                if stat == "calls":
                    out[key] = calls[t.name]
                elif stat == "s":
                    out[key] = total[t.name]
                elif stat == "self_s":
                    out[key] = own[t.name]
                elif stat == "unique_frac":
                    out[key] = len(self._feature_keys) / max(calls[t.name], 1)
                elif stat == "novel_frac":
                    out[key] = self.counts["harness.oracle.novel"] / max(calls[t.name], 1)
                else:
                    out[key] = self.counts[key]
        for stage in ("vae", "finetune", "flow"):
            out[f"harness.pipeline_train.{stage}.s"] = total[f"harness.pipeline_train.{stage}"]
        out["autodiff.tensors"] = self.tensors
        return out

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line: name, start, end, parent, run."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
