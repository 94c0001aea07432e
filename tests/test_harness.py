import base64
import dataclasses
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from flowopt import cli, config, flowmatch, guidance, harness, moeval, seqvae, toyset
from flowopt import surrogate as surrogate_mod
from flowopt.config import RunConfig, DataConfig, BudgetConfig, EvalConfig, SweepConfig
from flowopt.errors import ConfigError, ContractViolation, NumericFailure
from flowopt.flowmatch import FlowConfig
from flowopt.guidance import GuidanceConfig, ObjectiveSpec
from flowopt.nn import _encode, config_from_dict, load_checkpoint
from flowopt.rng import Rng
from flowopt.seqvae import VaeConfig
from flowopt.surrogate import SurrogateConfig

from conftest import tanimoto, tape_objective_gradient


def tiny_config(seed=0) -> RunConfig:
    return RunConfig(
        seed=seed,
        data=DataConfig(seed=5, count=120, min_len=3, max_len=8),
        vae=VaeConfig(K=2, d=8, embed_dim=8, enc_hidden=16, dec_hidden=16,
                      pretrain_epochs=2, finetune_epochs=1, batch_size=32),
        surrogate=SurrogateConfig(latent_dim=8, hidden=16, layers=2),
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
    """A pool of n decoded structures: its points, 0/1 float bitsets and a
    history of the first and last member's bitsets (or an empty one)."""
    structures = []
    for i in range(n):
        r = rng.split(i)
        tokens = tuple(toyset.BACKBONE[int(r.integers(0, 8))]
                       for _ in range(int(r.integers(1, 6))))
        structures.append(toyset.decode(tokens))
    points = np.stack([toyset.oracle_properties(s).as_array() for s in structures])
    bits = moeval.feature_matrix(structures).astype(np.float64)
    return points, bits, bits[[0, -1]] if with_history else bits[:0]


def pareto_flags(points):
    """The front flags of a ``SelectionState`` that took in ``points`` one by one."""
    state = harness.SelectionState(points, np.zeros((len(points), toyset.FEATURE_BITS)), 1)
    for _ in points:
        state.add()
    return state.on_front[:len(points)]


def test_selection_probabilities_normalized_and_weighted(rng):
    points, bits, history = _pool_state(rng.split("a"), 12, with_history=True)
    p = harness.selection_probabilities(points, bits, history)
    assert p.shape == (12,)
    assert p.sum() == pytest.approx(1.0)
    assert (p > 0).all()
    # the closed form is reproduced exactly
    w = np.where(pareto_flags(points), 2.0, 1.0)
    sims = np.array([max(tanimoto(b > 0, h > 0) for h in history) for b in bits])
    expected = w * np.exp(-2.0 * sims)
    assert np.allclose(p, expected / expected.sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(1, harness.HISTORY_WINDOW), st.integers(0, 2 ** 16),
       st.sampled_from([0.0, 0.005, 0.05, 0.5]), st.booleans())
def test_selection_similarities_equal_broadcast_formula(n, h, seed, density, coarse):
    """The count product gives the pairwise boolean Jaccard bit for bit, with
    empty bitsets (a pair of them has similarity 1) and short histories. On
    points from a coarse grid (duplicates, ties) the front flags are ``==``
    to membership in the front's point set."""
    rng = Rng(seed)
    points, _, _ = _pool_state(rng.split("pool"), n)
    if coarse:
        points = rng.split("grid").gen.integers(0, 4, (n, 2)) * [0.25, 1.5] + [0.0, 1.0]

    def bitsets(r, k):
        bits = r.split("bits").uniform(0.0, 1.0, (k, toyset.FEATURE_BITS)) < density
        bits[r.split("empty").uniform(0.0, 1.0, k) < 0.3] = False
        return bits

    feats, hist = bitsets(rng.split("pool-bits"), n), bitsets(rng.split("history-bits"), h)
    inter = (feats[:, None, :] & hist[None, :, :]).sum(axis=-1)
    union = (feats[:, None, :] | hist[None, :, :]).sum(axis=-1)
    sims = np.where(union > 0, inter / np.maximum(union, 1), 1.0).max(axis=1)
    front = {tuple(p) for p in moeval.pareto_front(points).points}
    flags = np.array([tuple(p) in front for p in points])
    assert np.array_equal(pareto_flags(points), flags)
    p = np.where(flags, harness.PARETO_WEIGHT, 1.0) * np.exp(-harness.DIVERSITY_PENALTY * sims)
    assert np.array_equal(harness.selection_probabilities(points, feats.astype(np.float64), hist),
                          p / p.sum())


def test_select_seed_matches_law_chi_square(rng):
    for case in range(5):
        p = harness.selection_probabilities(
            *_pool_state(rng.split(("cfg", case)), 8, with_history=(case % 2 == 0)))
        draws = 20_000
        counts = np.zeros(len(p))
        # Draw i reads rng.split(("draws", case)).split(i), one re-stated Generator for all.
        for gen in rng.split(("draws", case)).sibling_gens(range(draws)):
            counts[harness.select_seed(p, SimpleNamespace(gen=gen))] += 1
        _, pval = sps.chisquare(counts, p * draws)
        assert pval > 0.001


def test_select_seed_empty_pool():
    with pytest.raises(ContractViolation):
        harness.select_seed(np.empty(0), Rng(0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.9), st.booleans(), st.integers(0, 2 ** 16))
def test_select_seed_equals_generator_choice(n, zero_frac, law, seed):
    """Every draw is ``==`` to ``Generator.choice(n, p=p)`` from the same
    stream, on drawn weights with zeros and on the selection law's own
    probabilities."""
    r = Rng(seed)
    if law:
        p = harness.selection_probabilities(*_pool_state(r.split("pool"), n, with_history=True))
    else:
        w = r.split("w").uniform(shape=n) * (r.split("zero").uniform(shape=n) >= zero_frac)
        w[r.split("keep").integers(0, n)] = 1.0
        p = w / w.sum()
    ours, theirs = Rng(seed).split("draw"), Rng(seed).split("draw")
    assert ([harness.select_seed(p, ours) for _ in range(50)]
            == [int(theirs.gen.choice(n, p=p)) for _ in range(50)])


def test_select_seed_never_draws_a_zero_probability_index():
    """A uniform that lands exactly on a cumulative sum picks the next index
    with mass, as ``choice`` does (``side="right"``)."""
    class FixedUniform:
        """An ``Rng`` stand-in whose every uniform is ``u``."""
        def __init__(self, u):
            self.gen, self.u = self, u

        def random(self):
            return self.u

    p = np.array([0.0, 0.5, 0.0, 0.5])
    draws = [harness.select_seed(p, FixedUniform(u)) for u in (0.0, 0.25, 0.5, 0.75)]
    assert draws == [1, 1, 3, 3]


@pytest.mark.parametrize("probs", [np.full((2, 2), 0.25), np.array([0.5, np.nan, 0.5]),
                                   np.array([np.inf, 0.5]), np.array([1.5, -0.5]),
                                   np.array([0.5, 0.4])],
                         ids=["2d", "nan", "inf", "negative", "sum"])
def test_select_seed_rejects_invalid_probabilities(probs):
    with pytest.raises(ContractViolation):
        harness.select_seed(probs, Rng(0))


def test_pareto_flags_hand_case():
    flags = pareto_flags(np.array([(0.9, 2.0), (0.5, 5.0), (0.9, 2.0), (0.2, 1.0)]))
    # (0.5, 5.0) is dominated; the duplicate front point is flagged twice
    assert list(flags) == [True, False, True, True]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 16), st.sampled_from([0.0, 0.05, 0.5]),
       st.booleans())
def test_selection_state_equals_law_from_scratch(n, seed, density, coarse):
    """A ``SelectionState`` fed a run's appends, one pool row each and, after
    the initial pool, one history bitset each, gives ``selection_probabilities``
    of the pool so far and its last HISTORY_WINDOW optimized bitsets, ``==``,
    after every append: with an empty history (the initial pool), windows past
    HISTORY_WINDOW, empty bitsets, and on a coarse grid duplicate points and
    ties in one coordinate."""
    rng = Rng(seed)
    if coarse:
        points = rng.split("grid").gen.integers(0, 3, (n, 2)) * [0.25, 1.5] + [0.0, 1.0]
    else:
        points = rng.split("points").uniform(0.0, 1.0, (n, 2))
    bits = rng.split("bits").uniform(0.0, 1.0, (n, toyset.FEATURE_BITS)) < density
    bits[rng.split("empty").uniform(0.0, 1.0, n) < 0.3] = False
    bits = bits.astype(np.float64)
    n_init = int(rng.split("init").integers(1, n + 1))
    pool_points, pool_bits = np.empty((n, 2)), np.empty((n, toyset.FEATURE_BITS))
    state = harness.SelectionState(pool_points, pool_bits, harness.HISTORY_WINDOW)
    for i in range(n):
        pool_points[i], pool_bits[i] = points[i], bits[i]
        state.add()
        if i >= n_init:
            state.remember(pool_bits[i])
        history = bits[max(n_init, i + 1 - harness.HISTORY_WINDOW):i + 1]
        assert np.array_equal(state.probabilities(),
                              harness.selection_probabilities(points[:i + 1], bits[:i + 1],
                                                              history)), i


def test_guided_proposal_makes_one_surrogate_pass_per_step(tiny_run, monkeypatch):
    """A guided proposal at gamma > 0 runs the surrogate once per Euler step;
    so does the guided integration, and an unguided one runs none."""
    cfg, models = tiny_config(), tiny_run["models"]
    sur, steps = models.surrogate, cfg.guidance.steps
    passes = []
    predict_vjp = sur.predict_vjp  # ``predict`` runs through it too
    monkeypatch.setattr(sur, "predict_vjp", lambda *a, **k: passes.append(1) or predict_vjp(*a, **k))
    mu = models.vae.encode_batch([tokens for tokens, _ in tiny_run["ds"].subset("train")[:1]]).mu
    assert cfg.guidance.gamma > 0
    harness._propose("guided-flow", models, cfg, mu, [Rng(3)])
    assert len(passes) == steps
    for gamma, want in ((cfg.guidance.gamma, steps), (0.0, 0)):
        passes.clear()
        gcfg = dataclasses.replace(cfg.guidance, gamma=gamma)
        list(guidance.guided_steps(models.flow, sur, cfg.objective, gcfg, mu))
        assert len(passes) == want


# -- budgeted runs --------------------------------------------------------

def test_history_window_slides(tiny_run, monkeypatch):
    """Each step's history is the bitsets of the last HISTORY_WINDOW
    proposals, oldest first, and never a member of the initial pool; the law
    the run draws from is ``selection_probabilities`` of its pool and that
    history."""
    cfg = tiny_config()
    cfg.budget = dataclasses.replace(cfg.budget, budget=cfg.budget.init_size
                                     + harness.HISTORY_WINDOW + 4)
    histories, pools, laws, proposals = [], [], [], []
    law, propose = harness.SelectionState.probabilities, harness._propose

    def record_law(state):
        k = min(state.remembered, state.window)  # the ring's slots, oldest first
        histories.append(state.history[(np.arange(k) + state.remembered - k) % state.window])
        pools.append((state.points[:state.n].copy(), state.bits[:state.n].copy()))
        laws.append(law(state))
        return laws[-1]

    monkeypatch.setattr(harness.SelectionState, "probabilities", record_law)
    monkeypatch.setattr(harness, "_propose",
                        lambda *args: proposals.extend(propose(*args)) or proposals[-1:])
    result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"], cfg, "gradient-ascent",
                                  seed=6)
    monkeypatch.undo()
    steps = cfg.budget.budget - cfg.budget.init_size
    assert result.complete and len(histories) == len(proposals) == steps
    for k, history in enumerate(histories):
        window = proposals[max(0, k - harness.HISTORY_WINDOW):k]
        want = np.reshape([s.features for s in window], (-1, toyset.FEATURE_BITS))
        assert np.array_equal(history, want), k
        assert np.array_equal(laws[k], harness.selection_probabilities(*pools[k], history)), k


def test_budgeted_run_budget_exact(tiny_run):
    for proposer in harness.PROPOSERS:
        result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                                      tiny_run["cfg"], proposer, seed=1)
        assert result.calls == tiny_run["cfg"].budget.budget
        assert result.complete
        assert result.hvi_trace[-1][0] == tiny_run["cfg"].budget.budget


@pytest.mark.parametrize("proposer", harness.PROPOSERS)
def test_budgeted_run_encodes_each_selected_row_once(tiny_run, monkeypatch, proposer):
    """Between two selections, and between the last one and the report, the
    run encodes the seed only when its row is selected for the first time;
    ``random`` reads no seed, so it selects none and encodes none."""
    cfg = tiny_config()
    cfg.budget = dataclasses.replace(cfg.budget, budget=cfg.budget.init_size + 30)
    vae, events = tiny_run["models"].vae, []
    select, encode = harness.select_seed, vae.encode_batch
    monkeypatch.setattr(harness, "select_seed",
                        lambda *a: events.append(("select", select(*a))) or events[-1][1])
    monkeypatch.setattr(vae, "encode_batch", lambda xs: events.append(("encode",)) or encode(xs))
    monkeypatch.setattr(harness, "_evaluate", lambda *a: events.append(("evaluate",)))
    harness.budgeted_run(tiny_run["models"], tiny_run["ds"], cfg, proposer, seed=4)
    if proposer == "random":
        assert events == [("evaluate",)]
        return
    assert events[-1] == ("evaluate",)
    picks = [k for k, e in enumerate(events) if e[0] == "select"]
    assert len(picks) == 30
    seen = set()
    for a, b in zip(picks, picks[1:] + [len(events) - 1]):
        row = events[a][1]
        assert events[a + 1:b] == ([("encode",)] if row not in seen else []), a
        seen.add(row)
    assert len(seen) < len(picks) - 1  # some row was selected again


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, 0.2, 0.5, 0.8)) | st.floats(0.0, 1.0),
                          st.sampled_from((1.0, 4.0, 7.0, 10.0)) | st.floats(1.0, 10.0)),
                min_size=20, max_size=20))
def test_budgeted_trace_equals_from_scratch_hypervolume(tiny_run, stream):
    """With the oracle replaced by a point stream (duplicates, ties in one
    coordinate, points outside the reference), the carried trace equals the
    from-scratch ``hypervolume_2d(points[:n+1], ref)`` ``==`` at every step."""
    cfg = tiny_config()
    points = iter(stream)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toyset, "oracle_properties", lambda s: toyset.Properties(*next(points)))
        mp.setattr(harness, "_evaluate", lambda *a: None)
        result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"], cfg, "random", seed=2)
    stream, n_init = np.array(stream), cfg.budget.init_size
    ref = harness.reference_point(stream[:n_init])
    assert result.reference == tuple(ref)
    hv_base = moeval.hypervolume_2d(stream[:n_init], ref)
    want = [(n + 1, max(0.0, moeval.hypervolume_2d(stream[:n + 1], ref) - hv_base))
            for n in range(n_init, cfg.budget.budget)]
    assert result.hvi_trace == want


def test_budgeted_run_trace_monotone(tiny_run):
    result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                                  tiny_run["cfg"], "guided-flow", seed=2)
    values = [v for _, v in result.hvi_trace]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert result.final_hvi == values[-1]


def test_budgeted_run_free_init_extends_proposals(tiny_run):
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


@pytest.mark.parametrize("budget, complete", [(3, False), (5, True)])
def test_budgeted_run_initial_pool_at_or_over_budget(tiny_run, budget, complete):
    """A paid initial pool of 5 that meets the budget leaves no step to take;
    one that exceeds it stops at the budget, incomplete."""
    cfg = tiny_config()
    cfg.budget = dataclasses.replace(cfg.budget, budget=budget, init_size=5)
    result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"], cfg, "random", seed=3)
    assert result.complete is complete
    assert result.calls == len(result.pool_keys) == budget
    assert result.hvi_trace == [] and result.final_hvi == 0.0


def test_budgeted_run_unknown_proposer(tiny_run):
    with pytest.raises(ConfigError):
        harness.budgeted_run(tiny_run["models"], tiny_run["ds"],
                             tiny_run["cfg"], "annealing", seed=0)


@pytest.mark.parametrize("free_init, budget, rows", [(True, 20, 20), (False, 20, 15),
                                                     (False, 5, 0), (False, 3, 0)])
def test_random_run_proposes_every_call_at_once(tiny_run, monkeypatch, free_init, budget, rows):
    """A random run makes one ``_propose`` of one row per oracle call left
    after the initial pool of 5, before it spends any, then spends the oracle
    on those proposals in order. A pool that meets the budget leaves no call
    and no proposal; one that exceeds it stops incomplete, with none."""
    cfg = tiny_config()
    cfg.budget = dataclasses.replace(cfg.budget, budget=budget, init_size=5, free_init=free_init)
    events, propose, oracle = [], harness._propose, toyset.oracle_properties
    monkeypatch.setattr(harness, "_propose",
                        lambda *a: events.append(("propose", propose(*a))) or events[-1][1])
    monkeypatch.setattr(toyset, "oracle_properties",
                        lambda s: events.append(("oracle", s)) or oracle(s))
    result = harness.budgeted_run(tiny_run["models"], tiny_run["ds"], cfg, "random", seed=3)
    monkeypatch.undo()
    n_init = min(5, budget)
    assert result.complete is (budget >= 5)
    assert result.calls == budget
    assert len(result.pool_keys) == n_init + rows
    if not rows:
        assert [kind for kind, _ in events] == ["oracle"] * n_init
        return
    assert [kind for kind, _ in events] == ["oracle"] * n_init + ["propose"] + ["oracle"] * rows
    proposed = events[n_init][1]
    assert [s for _, s in events[n_init + 1:]] == proposed
    assert result.pool_keys[n_init:] == [s.canonical_key for s in proposed]


def _random_streams(seed, steps):
    """The ``propose`` streams of a random run's steps, split as ``budgeted_run`` splits them."""
    rng = Rng(seed).split(("budgeted", "random"))
    return [rng.split(("step", k)).split("propose") for k in range(steps)]


def _decoder_logits(vae, Z, decoded):
    """The greedy decoder's (B, MAX_LEN, V) logits, teacher-forced on the
    ``decoded`` token tuples: every row at every step, fed EOS past its end."""
    c, p = vae.config, vae.p
    B, E = len(Z), c.embed_dim
    ids = np.full((B, toyset.MAX_LEN + 1), toyset.TOKEN_ID[toyset.EOS])
    ids[:, 0] = toyset.TOKEN_ID[toyset.BOS]
    for b, tokens in enumerate(decoded):
        ids[b, 1:len(tokens) + 1] = [toyset.TOKEN_ID[t] for t in tokens]
    zh = Z.reshape(B, c.K * c.d) @ p["dec_w1"][E:] + p["dec_b1"]
    return np.stack([np.tanh((p["tok_emb"][ids[:, pos]] + p["pos_emb"][pos]) @ p["dec_w1"][:E]
                             + zh) @ p["dec_w2"] + p["dec_b2"]
                     for pos in range(toyset.MAX_LEN)], axis=1)


@pytest.mark.parametrize("fixture", ["tiny", "bench"])
def test_random_proposals_in_one_batch_match_one_per_call(tiny_run, fixture):
    """Over seeds 0-19, a random run's proposals made in one batch are those
    of one batch-of-one ``_propose`` per call, with the same tokens. The batch
    computes gemm rows where a one-row decode runs gemv, so a logit may move
    in its last bits only: every step's logits stay within 1e-12."""
    if fixture == "tiny":
        models, cfg = tiny_run["models"], tiny_config()
    else:
        models, cfg = harness.Pipeline.load(BENCH_CKPT), config.toy_default(0)
    vae, steps = models.vae, cfg.budget.budget - cfg.budget.init_size
    for seed in range(20):
        batch = harness._propose("random", models, cfg, None, _random_streams(seed, steps))
        assert batch == [harness._propose("random", models, cfg, None, [r])[0]
                         for r in _random_streams(seed, steps)], seed
        z = np.stack([r.split("noise").normal((cfg.vae.K, cfg.vae.d))
                      for r in _random_streams(seed, steps)])
        tokens = vae.decode_greedy_batch(z)
        assert tokens == [vae.decode_greedy_batch(z[b:b + 1])[0] for b in range(steps)], seed
        logits = _decoder_logits(vae, z, tokens)
        for b in range(steps):
            n = min(len(tokens[b]) + 1, toyset.MAX_LEN)  # the steps up to its EOS
            one = _decoder_logits(vae, z[b:b + 1], tokens[b:b + 1])[0]
            assert np.abs(logits[b, :n] - one[:n]).max() <= 1e-12, (seed, b)


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


def test_reference_built_once_per_dataset(tiny_run, monkeypatch):
    """Two budgeted runs and a sweep on one dataset build its reference once;
    a second live dataset keeps its own, and a dropped one frees it."""
    built = []
    build = harness._build_reference
    monkeypatch.setattr(harness, "_build_reference",
                        lambda ds: built.append(None) or build(ds))
    models, cfg = tiny_run["models"], tiny_run["cfg"]
    ds = dataclasses.replace(tiny_run["ds"])
    harness.budgeted_run(models, ds, cfg, "random", seed=1)
    harness.budgeted_run(models, ds, cfg, "gradient-ascent", seed=2)
    harness.gamma_sweep(models, ds, cfg)
    assert len(built) == 1
    other = dataclasses.replace(ds)
    kept = weakref.ref(harness.reference_set(other))
    assert len(built) == 2
    assert kept() is not harness.reference_set(ds) and kept().keys == harness.reference_set(ds).keys
    del other
    gc.collect()
    assert kept() is None
    assert len(built) == 2


# -- stage ordering -------------------------------------------------------

def test_pipeline_stage_order_enforced(tiny_run, tmp_path, runner):
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        harness.pipeline_train(cfg, tiny_run["ds"], tmp_path / "x", ("finetune",))
    with pytest.raises(ConfigError):
        harness.pipeline_train(cfg, tiny_run["ds"], tmp_path / "y", ("flow",))
    # A pretrained encoder alone is not enough for the flow stage.
    pretrained = tmp_path / "pretrained"
    pretrained.mkdir()
    shutil.copy(os.path.join(tiny_run["ckpt_dir"], harness.VAE_CKPT), pretrained)
    with pytest.raises(ConfigError):
        harness.pipeline_train(cfg, tiny_run["ds"], pretrained, ("flow",))
    res = runner.invoke(cli.main, ["train", "--seed", "0", "--config", tiny_run["cfg_path"],
                                   "--data", tiny_run["data_dir"], "--out", str(pretrained),
                                   "--stage", "flow"])
    assert res.exit_code == 2, res.output
    assert os.listdir(pretrained) == [harness.VAE_CKPT]


def test_flow_stage_matches_per_step_encoding(tiny_run, tmp_path, monkeypatch):
    """The flow stage samples its targets from the train split encoded once;
    it trains the same field, bit for bit, as encoding each step's draw."""
    cfg, ds = tiny_run["cfg"], tiny_run["ds"]
    shutil.copy(os.path.join(tiny_run["ckpt_dir"], harness.FINETUNE_CKPT), tmp_path)
    histories = []
    train_flow = flowmatch.train_flow

    def keep_history(*args):
        histories.append(train_flow(*args))
        return histories[-1]

    monkeypatch.setattr(flowmatch, "train_flow", keep_history)
    harness.pipeline_train(cfg, ds, tmp_path, ("flow",))
    monkeypatch.undo()

    vae = seqvae.SeqVae.from_checkpoint(*load_checkpoint(tmp_path / harness.FINETUNE_CKPT))
    train = ds.subset("train")

    def per_step_sampler(r, n):
        idx = r.split("idx").gen.integers(0, len(train), n)
        post = vae.encode_batch([train[i][0] for i in idx])
        return seqvae.reparameterize(post, r.split("eps"))

    rng = Rng(cfg.seed)
    field = flowmatch.FlowField(cfg.flow, rng.split("flow"))
    history = flowmatch.train_flow(field, per_step_sampler, rng.split("flow-train"))
    assert histories == [history]
    arrays, _ = load_checkpoint(tmp_path / harness.FLOW_CKPT)
    want = field.arrays()
    assert sorted(arrays) == sorted(want)
    assert all((arrays[name] == want[name]).all() for name in want)


def test_finetune_stage_trains_every_parameter(tiny_run, tmp_path):
    """The fine-tune stage updates every VAE parameter it loads and writes,
    bit for bit, what fine-tuning a model built straight from the pretrain
    checkpoint gives."""
    cfg, ds = tiny_run["cfg"], tiny_run["ds"]
    shutil.copy(os.path.join(tiny_run["ckpt_dir"], harness.VAE_CKPT), tmp_path)
    harness.pipeline_train(cfg, ds, tmp_path, ("finetune",))
    before, _ = load_checkpoint(tmp_path / harness.VAE_CKPT)
    after, _ = load_checkpoint(tmp_path / harness.FINETUNE_CKPT)
    for name in seqvae.PARAM_NAMES:
        assert not np.array_equal(after[f"vae.{name}"], before[f"vae.{name}"]), name

    rng = Rng(cfg.seed)
    vae = seqvae.SeqVae.from_checkpoint(*load_checkpoint(tmp_path / harness.VAE_CKPT))
    sur = surrogate_mod.Surrogate(cfg.surrogate, rng.split("surrogate"))
    seqvae.finetune(vae, sur, ds, rng.split("finetune"))
    want = {**vae.arrays(), **sur.arrays()}
    assert sorted(after) == sorted(want)
    assert all(np.array_equal(after[name], want[name]) for name in want)


# -- reference point ------------------------------------------------------

def test_reference_point_falls_back_on_zero_range():
    cfg = tiny_config()
    spread = np.array([[0.2, 3.0], [0.6, 5.0]])
    assert np.array_equal(harness.reference_point(spread), moeval.auto_reference(spread))
    flat = np.array([[0.2, 3.0], [0.6, 3.0]])
    ref = harness.reference_point(flat)
    assert ref.dtype == np.float64
    assert tuple(ref) == (toyset.P1_BOUNDS[0], toyset.P2_BOUNDS[1])  # the worst corner


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
    old["evaluation"].update(curve_ci_level=0.9, fallback_reference=[0.0, 10.0],
                             ref_margin=0.1, ci_level=0.95, bins=50, projection_seed=1234)
    old["vae"].update(pooling="attention", seed=0, kl_warmup_frac=0.35, finetune_lr=1e-3,
                      clip_norm=5.0, max_len=64)
    old["flow"].update(ot_coupling=False, lr=2e-4, clip_norm=5.0)
    old["surrogate"].update(lr=1e-3, batch_size=128, holdout_frac=0.15, clip_norm=5.0)
    old["selection"] = {"diversity_penalty": 2.0, "pareto_weight": 2.0, "history_window": 10}
    old["ga"] = {"eta": 0.3, "steps": 10, "sigma": 0.2}
    old["guidance"]["clip_norm"] = 5.0
    old["objective"]["signs"] = [-1, 1]  # ignored: directional mode raises p1, lowers p2
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


def test_config_bool_only_for_bool_fields():
    """JSON ``true`` is an int to Python; only a field whose default is a bool takes it."""
    for section, key in (("budget", "budget"), ("vae", "beta_max"), ("guidance", "steps")):
        with pytest.raises(TypeError, match=f"{key} must be"):
            config_from_dict(type(getattr(RunConfig(), section)), {key: True})
        with pytest.raises(ConfigError):
            RunConfig.from_json(json.dumps({section: {key: True}}))
    assert RunConfig.from_json('{"budget": {"free_init": true}}').budget.free_init is True


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


@pytest.mark.parametrize("min_len, max_len", [(5, 2), (-1, 4)])
def test_cli_gen_data_bad_lengths_exit_2(runner, tmp_path, min_len, max_len):
    with pytest.raises(ContractViolation):
        toyset.generate_dataset(5, 50, min_len, max_len)
    out = tmp_path / "out"
    res = runner.invoke(cli.main, ["gen-data", "--seed", "5", "--count", "50",
                                   "--min-len", str(min_len), "--max-len", str(max_len),
                                   "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and not out.exists()


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
    """A line missing a field, or holding a token outside the vocabulary, is an
    I/O error naming its line."""
    for i, (bad, command) in enumerate([
            ("A B\t0.5", ["train", "--out", str(tmp_path / "ckpt")]),
            ("A Z B\t0.5\t2.0", ["budgeted", "--ckpt", tiny_run["ckpt_dir"],
                                  "--out", str(tmp_path / "run")])]):
        data = tmp_path / f"data{i}"
        shutil.copytree(tiny_run["data_dir"], data)
        lines = (data / "train.tsv").read_text().splitlines()
        lines[2] = bad
        (data / "train.tsv").write_text("\n".join(lines) + "\n")
        res = runner.invoke(cli.main, [command[0], "--seed", "1", "--config", tiny_run["cfg_path"],
                                       "--data", str(data), *command[1:]])
        assert res.exit_code == 4, res.output
        assert "train.tsv:3" in res.output


@pytest.mark.parametrize("line", [0, 3])
@pytest.mark.parametrize("p1, p2", [("nan", None), (None, "inf"), ("-inf", None)])
def test_cli_non_finite_property_exit_4(runner, tiny_run, tmp_path, line, p1, p2):
    """A split line whose p1 or p2 is not finite is an I/O error naming its line."""
    data = tmp_path / "data"
    shutil.copytree(tiny_run["data_dir"], data)
    lines = (data / "train.tsv").read_text().splitlines()
    tokens, old1, old2 = lines[line].split("\t")
    lines[line] = "\t".join([tokens, p1 or old1, p2 or old2])
    (data / "train.tsv").write_text("\n".join(lines) + "\n")
    res = runner.invoke(cli.main, ["train", "--seed", "1", "--config", tiny_run["cfg_path"],
                                   "--data", str(data), "--out", str(tmp_path / "ckpt")])
    assert res.exit_code == 4, res.output
    assert f"train.tsv:{line + 1}: non-finite" in res.output


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


def _cut_array(doc, name, index):
    """Replace array ``name`` of a checkpoint document, header and data alike,
    by its part ``index``: the file stays consistent with its own header."""
    shape = doc["header"]["arrays"][name]
    cut = np.frombuffer(base64.b64decode(doc["data"][name]), dtype="<f8").reshape(shape)[index]
    doc["header"]["arrays"][name] = list(cut.shape)
    doc["data"][name] = _encode(np.ascontiguousarray(cut))


def _flow_w0_of_other_shape(text):
    doc = json.loads(text)
    _cut_array(doc, "flow.w0", np.s_[:-1])
    return json.dumps(doc)


def _zero_vocab_hash(text):
    doc = json.loads(text)
    doc["header"]["meta"]["vocab_hash"] = "0" * 16
    return json.dumps(doc)


# The checkpoint a corruption below applies to, where it is not the flow's.
_CORRUPTED_FILE = {_zero_vocab_hash: harness.FINETUNE_CKPT}


@pytest.mark.parametrize("corrupt", [_truncate, _drop_array, _wrong_shape, _header_not_a_mapping,
                                     _flow_w0_of_other_shape, _zero_vocab_hash])
def test_cli_broken_checkpoint_exit_4(runner, tiny_run, tmp_path, corrupt):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    name = _CORRUPTED_FILE.get(corrupt, harness.FLOW_CKPT)
    path = ckpt / name
    path.write_text(corrupt(path.read_text()))
    res = runner.invoke(cli.main, ["generate", "--seed", "2", "--config", tiny_run["cfg_path"],
                                   "--ckpt", str(ckpt), "--count", "2"])
    assert res.exit_code == 4, res.output
    assert name in res.output


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


def _bench(name, as_name=None):
    """A corruption replacing checkpoint ``as_name`` (default ``name``) with the
    benchmark's ``name``, whose latents are (K, d) = (4, 16), not (2, 8)."""
    def corrupt(ckpt):
        shutil.copy(os.path.join(BENCH_CKPT, name), ckpt / (as_name or name))
        return as_name or name
    return corrupt


def _surrogate_latent_dim(doc):
    doc["header"]["meta"]["surrogate"]["config"]["latent_dim"] = 4


def _cli_args(command, tiny_run, ckpt):
    common = ["--config", tiny_run["cfg_path"]]
    if command.startswith("train-"):
        return ["train", "--seed", "1", *common, "--data", tiny_run["data_dir"],
                "--out", str(ckpt), "--stage", command[len("train-"):]]
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
    pytest.param(_bench(harness.FLOW_CKPT), "generate", id="_flow_of_other_latents"),
    pytest.param(_bench(harness.FINETUNE_CKPT), "optimize", id="_vae_of_other_latents"),
    pytest.param(_edit(harness.FINETUNE_CKPT, _surrogate_latent_dim), "generate",
                 id="_surrogate_of_other_latents"),
    pytest.param(_edit(harness.FINETUNE_CKPT,
                       lambda doc: _cut_array(doc, "vae.dec_w2", np.s_[:, :-1])),
                 "generate", id="_vae_array_of_other_shape"),
])
def test_cli_checkpoint_missing_entry_exit_4(runner, tiny_run, tmp_path, corrupt, command):
    """A checkpoint consistent with its own header but lacking what the model
    needs, or holding a model over latents of another shape than the VAE's."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    name = corrupt(ckpt)
    res = runner.invoke(cli.main, _cli_args(command, tiny_run, ckpt))
    assert res.exit_code == 4, res.output
    assert name in res.output


@pytest.mark.parametrize("corrupt, command", [
    pytest.param(_bench(harness.FINETUNE_CKPT, harness.VAE_CKPT), "train-finetune",
                 id="finetune"),
    pytest.param(_bench(harness.FINETUNE_CKPT), "train-flow", id="flow"),
])
def test_cli_train_on_encoder_of_other_latents_exit_2(runner, tiny_run, tmp_path, corrupt,
                                                      command):
    """A stage that trains on a checkpoint whose VAE does not have the config's
    (K, d) is a config error naming the checkpoint."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(tiny_run["ckpt_dir"], ckpt)
    name = corrupt(ckpt)
    res = runner.invoke(cli.main, _cli_args(command, tiny_run, ckpt))
    assert res.exit_code == 2, res.output
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
    """The benchmark's fixed checkpoint predates the retired VAE, surrogate and
    flow config keys its headers still carry; it must keep loading and running."""
    _, meta = load_checkpoint(os.path.join(BENCH_CKPT, harness.FINETUNE_CKPT))
    assert {"pooling", "seed", "kl_warmup_frac", "finetune_lr", "clip_norm",
            "max_len", "lambda_prop"} <= set(meta["config"])
    assert {"lr", "batch_size", "holdout_frac", "clip_norm"} <= set(meta["surrogate"]["config"])
    _, meta = load_checkpoint(os.path.join(BENCH_CKPT, harness.FLOW_CKPT))
    assert {"ot_coupling", "lr", "clip_norm"} <= set(meta["config"])
    assert "latent_source" in meta
    models = harness.Pipeline.load(BENCH_CKPT)
    c = models.vae.config
    post = models.vae.encode_batch([("A", "B", "R", "i"), ("C",)])
    assert post.mu.shape == (2, c.K, c.d) == (2, models.flow.config.K, models.flow.config.d)
    decoded = models.vae.decode_greedy_batch(post.mu)
    assert len(decoded) == 2 and all(t in toyset.VOCAB for row in decoded for t in row)


def test_loaded_models_fine_tune():
    """``Pipeline.load`` gives the arrays training wrote and sets no mode on
    them: one joint fine-tune epoch runs on the loaded VAE and surrogate and
    updates every VAE parameter."""
    models = harness.Pipeline.load(BENCH_CKPT)
    stored, _ = load_checkpoint(os.path.join(BENCH_CKPT, harness.FINETUNE_CKPT))
    loaded = {**models.vae.arrays(), **models.surrogate.arrays()}
    assert sorted(loaded) == sorted(stored)
    assert all(np.array_equal(loaded[name], stored[name]) for name in stored)
    models.vae.config = dataclasses.replace(models.vae.config, finetune_epochs=1)
    hist = seqvae.finetune(models.vae, models.surrogate, toyset.generate_dataset(3, 80, 3, 14),
                           Rng(0))
    assert hist.best_epoch == 0
    for name in seqvae.PARAM_NAMES:
        assert not np.array_equal(models.vae.p[name], stored[f"vae.{name}"]), name


@pytest.mark.parametrize("spec", [ObjectiveSpec(mode="directional"),
                                  ObjectiveSpec(mode="target", weights=(1.0, 0.5),
                                                targets=(0.8, 2.5))])
def test_frozen_objective_gradient_equals_trainable(spec):
    """On the benchmark checkpoint, the array path, which takes no parameter
    gradient, gives the J and latent gradient of a tape over the surrogate
    with every parameter trainable, bit for bit."""
    models = harness.Pipeline.load(BENCH_CKPT)
    g = config.toy_default(0).guidance
    xs = [tokens for tokens, _ in toyset.generate_dataset(3, 16, 3, 14).entries]
    z = guidance.prepare_optimization(models.vae.encode_batch(xs).mu, g.sigma,
                                      [Rng(0).split(i) for i in range(len(xs))])
    frozen = guidance.objective_gradient(spec, models.surrogate, z)
    full = tape_objective_gradient(spec, models.surrogate, z)
    assert np.array_equal(frozen[0], full[0]) and np.array_equal(frozen[1], full[1])


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
    lines = res.output.splitlines()
    steps = tiny_run["cfg"].guidance.steps
    assert lines[0] == "step\tt\tJ\t|g|\t|v|"
    rows = [line.split("\t") for line in lines[1:1 + steps]]
    assert all(len(row) == 5 for row in rows)
    assert [int(row[0]) for row in rows] == list(range(steps))
    assert rows[-1][1] == "1.000000"
    assert lines[1 + steps].startswith("start: A B R i")
    assert lines[2 + steps].startswith("final:")


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


@pytest.mark.parametrize("case", ["manifest-not-json", "manifest-without-files",
                                  "report-not-json"])
def test_cli_report_malformed_bundle_exit_4(runner, tmp_path, case):
    harness.run_report(tmp_path, {"report.json": '{"hv": ' if case == "report-not-json" else "{}"})
    if case == "manifest-not-json":
        (tmp_path / "manifest.json").write_text("{not json")
    elif case == "manifest-without-files":
        (tmp_path / "manifest.json").write_text('{"hashes": {}}')
    res = runner.invoke(cli.main, ["report", "--dir", str(tmp_path)])
    assert res.exit_code == 4, res.output
    assert "i/o error" in res.output


@pytest.mark.parametrize("flag, value, bad", [("--grid", "1,x", "'x'"),
                                              ("--sweep-seeds", "0,a", "'a'")])
def test_cli_gamma_sweep_bad_list_exit_2(runner, tiny_run, flag, value, bad):
    res = runner.invoke(cli.main, ["gamma-sweep", "--seed", "0",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"], flag, value,
                                   "--out", str(tiny_run["base"] / "bad-sweeps")])
    assert res.exit_code == 2, res.output
    assert flag in res.output and bad in res.output


@pytest.mark.parametrize("command, section, key", [("budgeted", "budget", "budget"),
                                                    ("budgeted", "budget", "init_size"),
                                                    ("gamma-sweep", "sweep", "candidates"),
                                                    ("budgeted", "evaluation",
                                                     "bootstrap_resamples")])
def test_cli_bad_budget_or_sweep_config_exit_2(runner, tiny_run, tmp_path, command, section, key):
    doc = tiny_run["cfg"].to_dict()
    doc[section][key] = 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    res = runner.invoke(cli.main, [command, "--seed", "0", "--config", str(cfg_path),
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"], "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: ")
    assert f"{section}.{key} must be >= 1, not 0" in res.output


@pytest.mark.parametrize("section, key", [("vae", "pretrain_epochs"), ("vae", "finetune_epochs"),
                                          ("vae", "batch_size"), ("flow", "batch_size"),
                                          ("flow", "steps"), ("flow", "sample_steps")])
@pytest.mark.parametrize("value", [0, -1])
def test_cli_train_bad_schedule_exit_2(runner, tiny_run, tmp_path, section, key, value):
    """A schedule value below 1 ends with exit 2 when the config loads, before
    any stage runs (it ended in IndexError or ZeroDivisionError, exit 1, after
    training, or trained nothing and exited 0)."""
    doc = tiny_run["cfg"].to_dict()
    doc[section][key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = runner.invoke(cli.main, ["train", "--seed", "0", "--config", str(cfg_path),
                                   "--data", tiny_run["data_dir"], "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{section}.{key} must be >= 1, not {value}" in res.output
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("flow", "hidden", 0, "flow.hidden must be >= 1, not 0"),
    ("flow", "layers", 0, "flow.layers must be >= 1, not 0"),
    ("flow", "K", -1, "flow.K must be >= 1, not -1"),
    ("flow", "time_embed_dim", 7, "flow.time_embed_dim must be a positive even integer, not 7"),
    ("flow", "time_embed_dim", 0, "flow.time_embed_dim must be a positive even integer, not 0"),
    ("surrogate", "hidden", 0, "surrogate.hidden must be >= 1, not 0"),
    ("surrogate", "layers", 0, "surrogate.layers must be >= 1, not 0"),
    ("surrogate", "latent_dim", 0, "surrogate.latent_dim must be >= 1, not 0"),
])
def test_cli_train_bad_model_shape_exit_2(runner, tiny_run, tmp_path, section, key, value,
                                          message):
    """A zero width or layer count, or an odd time embedding, ends with exit 2
    naming the field when the config loads, before the data is read (a zero
    hidden width ended in a ZeroDivisionError traceback, exit 1, when the
    model was built)."""
    doc = tiny_run["cfg"].to_dict()
    doc[section][key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = runner.invoke(cli.main, ["train", "--seed", "0", "--config", str(cfg_path),
                                   "--data", str(tmp_path / "no-data"), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: ") and message in res.output
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("beta_max", float("nan")), ("beta_max", float("inf")),
                                        ("lr", float("nan")), ("lr", 0.0)])
def test_cli_train_bad_vae_value_exit_2(runner, tiny_run, tmp_path, key, value):
    """A config's NaN or Infinity (JSON accepts both) or zero learning rate
    ends with exit 2 when the config loads, before any stage runs."""
    doc = tiny_run["cfg"].to_dict()
    doc["vae"][key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = runner.invoke(cli.main, ["train", "--seed", "0", "--config", str(cfg_path),
                                   "--data", tiny_run["data_dir"], "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"vae.{key} must be finite" in res.output
    assert not out.exists()


@pytest.mark.parametrize("objective", [{"mode": "directional", "weights": [1.0]},
                                       {"mode": "target", "weights": [1.0, 0.5, 2.0],
                                        "targets": [0.8, 2.5]}],
                         ids=["one-weight", "three-weights"])
def test_cli_objective_of_wrong_length_exit_2(runner, tiny_run, tmp_path, objective):
    doc = tiny_run["cfg"].to_dict()
    doc["objective"] = objective
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    res = runner.invoke(cli.main, ["optimize", "--seed", "0", "--config", str(cfg_path),
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"]])
    assert res.exit_code == 2, res.output
    assert "config error: " in res.output and "needs one entry per property" in res.output


@pytest.mark.parametrize("sweep, extra, message", [
    ({"seeds": ["a"]}, [], "sweep.seeds entries must be ints >= 0, not 'a'"),
    ({"seeds": [1.5]}, [], "sweep.seeds entries must be ints >= 0, not 1.5"),
    ({"seeds": [-1]}, [], "sweep.seeds entries must be ints >= 0, not -1"),
    ({"grid": ["x"]}, ["--sweep-seeds", "0"],
     "sweep.grid entries must be finite numbers, not 'x'"),
    ({"grid": [1.0, float("nan")]}, [], "sweep.grid entries must be finite numbers, not nan"),
], ids=["seed-string", "seed-float", "seed-negative", "gamma-string", "gamma-nan"])
def test_cli_gamma_sweep_bad_config_entry_exit_2(runner, tiny_run, tmp_path, sweep, extra,
                                                 message):
    doc = tiny_run["cfg"].to_dict()
    doc["sweep"].update(sweep)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    res = runner.invoke(cli.main, ["gamma-sweep", "--seed", "0", "--config", str(cfg_path),
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"], *extra, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: ") and message in res.output
    assert not list(tmp_path.glob("*gamma-sweep*"))


def test_cli_gamma_sweep_empty_seeds_exit_2(runner, tiny_run, tmp_path):
    doc = tiny_run["cfg"].to_dict()
    doc["sweep"]["seeds"] = []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    res = runner.invoke(cli.main, ["gamma-sweep", "--seed", "0", "--config", str(cfg_path),
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"], "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "config error: sweep seeds must be nonempty" in res.output
    assert not list(tmp_path.glob("*gamma-sweep*"))


def _empty_split_args(command, tiny_run, data):
    if command == "train":
        return ["train", "--seed", "0", "--config", tiny_run["cfg_path"], "--data", str(data),
                "--out", str(data / "ckpt")]
    common = ["--seed", "0", "--config", tiny_run["cfg_path"], "--ckpt", tiny_run["ckpt_dir"]]
    if command == "optimize":
        return ["optimize", *common, "--data", str(data)]
    if command == "eval":
        gen = data / "gen.tsv"
        gen.write_text("A B R i\t0.5\t2.0\nC\t0.1\t1.0\n")
        return ["eval", *common, "--data", str(data), "--generated", str(gen)]
    return [command, *common, "--data", str(data), "--out", str(data / "runs")]


@pytest.mark.parametrize("command, split", [("train", "train"), ("train", "val"),
                                            ("budgeted", "train"),
                                            ("gamma-sweep", "test"), ("optimize", "test"),
                                            ("eval", "test"), ("eval", "train")])
def test_cli_empty_split_exit_2(runner, tiny_run, tmp_path, command, split):
    """A command that indexes an empty split names it in a config error."""
    data = tmp_path / "data"
    shutil.copytree(tiny_run["data_dir"], data)
    (data / f"{split}.tsv").write_text("")
    res = runner.invoke(cli.main, _empty_split_args(command, tiny_run, data))
    assert res.exit_code == 2, res.output
    assert f"config error: the {split} split is empty" in res.output


@pytest.mark.parametrize("value", ["nan", "inf", "1,nan"])
def test_cli_gamma_sweep_non_finite_gamma_exit_2(runner, tiny_run, value):
    res = runner.invoke(cli.main, ["gamma-sweep", "--seed", "0",
                                   "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"],
                                   "--data", tiny_run["data_dir"], "--grid", value,
                                   "--out", str(tiny_run["base"] / "bad-sweeps")])
    assert res.exit_code == 2, res.output
    assert "config error: gamma" in res.output and value.split(",")[-1] in res.output


def test_gamma_sweep_checks_seeds_before_any_work(tiny_run, monkeypatch):
    def no_work(*args):
        raise AssertionError("the sweep started work before checking its seeds")

    monkeypatch.setattr(harness, "_sweep_candidates", no_work)
    monkeypatch.setattr(harness, "reference_set", no_work)
    with pytest.raises(ContractViolation, match="-1"):
        harness.gamma_sweep(tiny_run["models"], tiny_run["ds"], tiny_run["cfg"], seeds=[0, -1])


@pytest.mark.parametrize("command", ["generate", "gen-data", "gamma-sweep"])
def test_cli_negative_seed_exit_2(runner, tiny_run, tmp_path, command):
    args = {
        "generate": ["generate", "--seed", "-1", "--config", tiny_run["cfg_path"],
                     "--ckpt", tiny_run["ckpt_dir"], "--count", "1"],
        "gen-data": ["gen-data", "--seed", "-1", "--count", "50", "--out", str(tmp_path)],
        "gamma-sweep": ["gamma-sweep", "--seed", "0", "--config", tiny_run["cfg_path"],
                        "--ckpt", tiny_run["ckpt_dir"], "--data", tiny_run["data_dir"],
                        "--sweep-seeds", "-1", "--out", str(tmp_path)],
    }[command]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 2, res.output
    assert "config error: seed" in res.output and "-1" in res.output


def test_cli_numeric_failure_names_its_site_once(capsys):
    @cli._exit_codes
    def diverge():
        raise NumericFailure("non-finite state during guided integration", where="step=0")

    with pytest.raises(SystemExit) as exit_info:
        diverge()
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and err.count("step=0") == 1


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


def test_cli_eval_unknown_token_exit_4(runner, tiny_run, tmp_path):
    """A token outside ``VOCAB`` in the generated TSV is a malformed artifact,
    named by file and line, as ``read_split`` names one in a split."""
    gen = tmp_path / "gen.tsv"
    gen.write_text("A B R\t0.5\t2.0\n\nA B Z\t0.5\t2.0\n")
    res = runner.invoke(cli.main, ["eval", "--seed", "6", "--config", tiny_run["cfg_path"],
                                   "--ckpt", tiny_run["ckpt_dir"], "--data", tiny_run["data_dir"],
                                   "--generated", str(gen)])
    assert res.exit_code == 4, res.output
    assert f"{gen}:3: unknown token 'Z'" in res.output


@pytest.fixture(scope="module")
def toy_data(runner, tmp_path_factory):
    """The toy-default dataset, written once by ``flowopt gen-data``."""
    d = config.toy_default(0).data
    data = tmp_path_factory.mktemp("toy") / "data"
    res = runner.invoke(cli.main, ["gen-data", "--seed", str(d.seed), "--count", str(d.count),
                                   "--min-len", str(d.min_len), "--max-len", str(d.max_len),
                                   "--out", str(data)])
    assert res.exit_code == 0, res.output
    return str(data)


def _bundle_digests(output: str, names) -> dict:
    run_dir = output.strip().splitlines()[-1].split("bundle: ")[1]
    got = {}
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    return got


# SHA-256 of the bundle files ``flowopt budgeted --profile toy-default --seed 0``
# writes on the benchmark checkpoint and the toy-default dataset. A change that
# moves these bits re-records them and says so. The report's ``config_echo``
# lost ``guidance.clip_norm`` and ``objective.signs`` when both were retired, so
# ``report.json`` (and the sweep's ``rows.json``) were re-recorded for that alone.
RECORDED_BUDGETED_SHA256 = {
    "random": {
        "report.json": "dfe384dee0c1dc982124fe1123cf357424006648fc7ddfda6ea2a465791a5ba1",
        "hvi_trace.csv": "03f38f5ca53d282a7aae1bcb0e412af3ad5c2a5787ca650aa11bf482a9dae3b8",
        "run.json": "f3989da0acee6cd515cb152a6191ecb4461e5c81c2467eacd9b8118ee613f4bd"},
    "guided-flow": {
        "report.json": "323cb36e56ea9052cbdb30738c4abba64422f29a75bd2ea573134cd06b8fc447",
        "hvi_trace.csv": "121fc48015c82e9d33cfd82b6cb2f5cbf1e24e07b951801bc914ba86bc86b445",
        "run.json": "da1594371e19bbeddca94cdbc5f768a31b6438bc2010a263b2a5406a1d584ee3"},
    "gradient-ascent": {
        "report.json": "65334359030a1b5502daec1897a1dc7270027afb99cb5eef87b6d009a9c2f827",
        "hvi_trace.csv": "591d40fe673b17b3049642870d859da07eef30f16348c769610c5b9655bd5813",
        "run.json": "6217b29a4a750379bb59fd574270fbfcba3153857718ffbd3be57e69a85ad013"},
}


def test_budgeted_outputs_match_recorded_bytes(runner, toy_data, tmp_path):
    for proposer, want in RECORDED_BUDGETED_SHA256.items():
        res = runner.invoke(cli.main, ["budgeted", "--seed", "0", "--profile", "toy-default",
                                       "--ckpt", BENCH_CKPT, "--data", toy_data,
                                       "--proposer", proposer, "--out", str(tmp_path / "runs")])
        assert res.exit_code == 0, res.output
        assert _bundle_digests(res.output, want) == want, proposer


# The same under ``--profile paper-tuned``, whose guidance normalizes each
# gradient row to unit norm (toy-default steps on the raw rows): the guided-flow
# bundle's trace and run record, and the trajectory ``flowopt optimize --seed 0``
# prints for a start drawn from the test split.
RECORDED_PAPER_TUNED_SHA256 = {
    "hvi_trace.csv": "4a3393fed442e01312c27a969e163e3c54dd391db4130657015a2423908d2b7d",
    "run.json": "37b86462f1525af768969fb87f1dd8c48c8049a4d0bb7a35cc755f52ff615948",
    "optimize": "4c6ea3615ba578e2e68d7fd060c26be5eb1e405511b7eb8ae3bd443f62f74813",
}


def test_paper_tuned_outputs_match_recorded_bytes(runner, toy_data, tmp_path):
    common = ["--seed", "0", "--profile", "paper-tuned", "--ckpt", BENCH_CKPT, "--data", toy_data]
    res = runner.invoke(cli.main, ["budgeted", *common, "--proposer", "guided-flow",
                                   "--out", str(tmp_path / "runs")])
    assert res.exit_code == 0, res.output
    got = _bundle_digests(res.output, ["hvi_trace.csv", "run.json"])
    res = runner.invoke(cli.main, ["optimize", *common])
    assert res.exit_code == 0, res.output
    got["optimize"] = hashlib.sha256(res.output.encode()).hexdigest()
    assert got == RECORDED_PAPER_TUNED_SHA256


# And what ``flowopt optimize --seed 0`` prints under ``--profile toy-default``,
# whose guidance clips raw gradient rows, and under a config that differs from it
# only in ``guidance.gamma = 0``: the unguided integration from the same start.
RECORDED_OPTIMIZE_SHA256 = {
    "toy-default": "7d555042438b11cad304f300e8922810bbd0b2fcced98760a58c787e39b4bab7",
    "gamma-0": "e3350194919eee0e3be989138890e2a3d8a82d4141a1ca939b928864aa51a9af",
}


def test_optimize_outputs_match_recorded_bytes(runner, toy_data, tmp_path):
    cfg = config.toy_default(0)
    cfg.guidance = dataclasses.replace(cfg.guidance, gamma=0.0)
    unguided = tmp_path / "gamma-0.json"
    unguided.write_text(cfg.to_json())
    got = {}
    for name, source in (("toy-default", ["--profile", "toy-default"]),
                         ("gamma-0", ["--config", str(unguided)])):
        res = runner.invoke(cli.main, ["optimize", "--seed", "0", *source,
                                       "--ckpt", BENCH_CKPT, "--data", toy_data])
        assert res.exit_code == 0, res.output
        got[name] = hashlib.sha256(res.output.encode()).hexdigest()
    assert got == RECORDED_OPTIMIZE_SHA256


# The same for ``flowopt gamma-sweep --profile toy-default --seed 0``: the 7-gamma
# grid, 3 seeds of 64 candidates each, decoded and bootstrapped per cell.
RECORDED_SWEEP_SHA256 = {
    "summary.json": "ef5b4805180c5b30d68dc72665817df48d2353344eff62d11393758c929b2507",
    "rows.json": "8f97fda1c5b4d8e61d48c570eebf5ca4c668e49656a9b173bbf5323dd908ef6f",
}


def test_gamma_sweep_outputs_match_recorded_bytes(runner, toy_data, tmp_path):
    res = runner.invoke(cli.main, ["gamma-sweep", "--seed", "0", "--profile", "toy-default",
                                   "--ckpt", BENCH_CKPT, "--data", toy_data,
                                   "--out", str(tmp_path / "sweeps")])
    assert res.exit_code == 0, res.output
    assert _bundle_digests(res.output, RECORDED_SWEEP_SHA256) == RECORDED_SWEEP_SHA256


# And of the TSV ``flowopt generate --seed 0 --count 256`` writes on the benchmark
# checkpoint: 256 prior samples decoded in one batch.
RECORDED_GENERATE_SHA256 = "675bcc8cd0eb768c77fa7a25304240aa9475b1ce90b1817405d5658e4b5ba694"


def test_generate_output_matches_recorded_bytes(runner, tmp_path):
    out = tmp_path / "samples.tsv"
    res = runner.invoke(cli.main, ["generate", "--seed", "0", "--profile", "toy-default",
                                   "--ckpt", BENCH_CKPT, "--count", "256", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_GENERATE_SHA256


# SHA-256 of the three checkpoints ``pipeline_train`` writes for ``tiny_config()``
# on its own dataset: the training counterpart of the budgeted bytes above.
RECORDED_TRAINING_SHA256 = {
    "vae": "7d22851bc3aa2d469469e2b8b9fe95533c22af5b7b46a305eddf935154511906",
    "finetune": "247b4c83f9ac51d06194e3b9360e22ae64981a9ef90dc3b58006b6633bfc4953",
    "flow": "38606e3d050ede0fc62d786cc9e62409e122235dd9761e88ce2a1a7c39941c2a",
}


def test_training_checkpoints_match_recorded_bytes(tmp_path):
    cfg = tiny_config()
    ds = toyset.generate_dataset(cfg.data.seed, cfg.data.count,
                                 cfg.data.min_len, cfg.data.max_len)
    paths = harness.pipeline_train(cfg, ds, tmp_path)
    got = {}
    for stage, path in paths.items():
        with open(path, "rb") as fh:
            got[stage] = hashlib.sha256(fh.read()).hexdigest()
    assert got == RECORDED_TRAINING_SHA256


# The same for toy-default on the benchmark's short schedule (1 + 1 epochs, 50
# flow steps) and the toy-default dataset. ``tiny_config``'s small products keep
# their bits when a summation order in training moves; these do not. The run has
# one BLAS thread, as bench/make_checkpoint.py trains: threaded OpenBLAS splits a
# long reduction, such as a weight gradient over a batch's real positions, into
# other blocks for most lengths that are not a multiple of 32.
RECORDED_TOY_TRAINING_SHA256 = {
    "vae": "c64f99c738e7bfcd7ecd2a1b0f44a235331db1260c7d63349115522fc59eb9eb",
    "finetune": "f0ae47faa41c10710e8bdd3a5bdc023f86e4ec64f30ec7643458147e96c8b529",
    "flow": "da6de9bab5e88deb842a8a6b0f747112d4bb76f819443ae801e9acf90011196b",
}
TOY_TRAINING = """
import dataclasses, hashlib, json, sys
from flowopt import config, harness, toyset
cfg = config.toy_default(0)
cfg.vae = dataclasses.replace(cfg.vae, pretrain_epochs=1, finetune_epochs=1)
cfg.flow = dataclasses.replace(cfg.flow, steps=50)
d = cfg.data
ds = toyset.generate_dataset(d.seed, d.count, d.min_len, d.max_len)
paths = harness.pipeline_train(cfg, ds, sys.argv[1])
print(json.dumps({s: hashlib.sha256(open(p, "rb").read()).hexdigest() for s, p in paths.items()}))
"""


def test_toy_default_training_checkpoints_match_recorded_bytes(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", TOY_TRAINING, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == RECORDED_TOY_TRAINING_SHA256


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
