"""Property tests: each batched routine matches its one-at-a-time reference.

Rows of a (B, K, d) batch never interact, so row b of a batched latent call
must equal the same routine run on row b alone, within 1e-12. The batched
evaluation layer (one front/hypervolume sweep over an (R, n) presence mask,
one bootstrap over an (R, n) index matrix) must equal the per-point loops
written out below exactly, compared with ``==``.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from flowopt import harness, moeval, toyset
from flowopt.flowmatch import FlowConfig, FlowField, sample_prior
from flowopt.guidance import (GuidanceConfig, ObjectiveSpec, gradient_ascent_baseline,
                              guided_integrate, objective_gradient)
from flowopt.moeval import MAXIMIZE, MINIMIZE
from flowopt.rng import Rng
from flowopt.seqvae import LatentState, SeqVae, VaeConfig
from flowopt.surrogate import Surrogate, SurrogateConfig

from test_harness import tiny_config

SPECS = (ObjectiveSpec(mode="target", weights=(1.0, 0.5), targets=(0.8, 2.5)),
         ObjectiveSpec.maximize_p1_minimize_p2())

batch = st.integers(1, 6)
tokens_k = st.integers(1, 3)
dims = st.integers(1, 4)
seeds = st.integers(0, 2 ** 16)
gammas = st.sampled_from([0.0, 0.5, 5.0])
clips = st.sampled_from([None, 0.05, 5.0])
specs = st.sampled_from(SPECS)


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


def models(seed, K, d):
    rng = Rng(seed)
    field = FlowField(FlowConfig(K=K, d=d, hidden=8, layers=2, time_embed_dim=4,
                                 sample_steps=3), rng.split("field"))
    sur = Surrogate(SurrogateConfig(latent_dim=d, hidden=8, layers=2), rng.split("sur"))
    return field, sur


def streams(seed, B):
    """Fresh per-row noise streams; an Rng advances as it draws, so each call gets new ones."""
    return [Rng(seed).split(("row", b)) for b in range(B)]


@settings(max_examples=40, deadline=None)
@given(batch, tokens_k, dims, seeds, gammas, st.booleans(), clips, specs)
def test_guided_integrate_rows_match_single(B, K, d, seed, gamma, normalize, clip, spec):
    field, sur = models(seed, K, d)
    cfg = GuidanceConfig(gamma=gamma, sigma=0.0, steps=3, t_start=0.4, clip_norm=clip,
                         normalize_gradient=normalize)
    z0 = Rng(seed).split("z").normal((B, K, d)) * 2.0
    trajectories, out = guided_integrate(field, sur, spec, cfg, LatentState(z=z0, t=0.4))
    assert out.z.shape == (B, K, d) and len(trajectories) == B
    for b in range(B):
        (single,), one = guided_integrate(field, sur, spec, cfg,
                                          LatentState(z=z0[b:b + 1], t=0.4))
        close(out.z[b], one.z[0])
        assert [(r.step, r.t) for r in trajectories[b]] == [(r.step, r.t) for r in single]
        for field_name in ("objective", "grad_norm", "velocity_norm"):
            close([getattr(r, field_name) for r in trajectories[b]],
                  [getattr(r, field_name) for r in single])


@settings(max_examples=40, deadline=None)
@given(batch, tokens_k, dims, seeds, st.booleans(), clips, specs)
def test_objective_gradient_rows_match_single(B, K, d, seed, normalize, clip, spec):
    _, sur = models(seed, K, d)
    z = Rng(seed).split("z").normal((B, K, d)) * 2.0
    g = objective_gradient(spec, sur, z, normalize=normalize, clip_norm=clip)
    assert g.shape == (B, K, d)
    for b in range(B):
        close(g[b], objective_gradient(spec, sur, z[b:b + 1], normalize=normalize,
                                       clip_norm=clip)[0])


@settings(max_examples=30, deadline=None)
@given(batch, tokens_k, dims, seeds, specs)
def test_gradient_ascent_rows_match_single(B, K, d, seed, spec):
    _, sur = models(seed, K, d)
    z0 = LatentState(z=Rng(seed).split("z").normal((B, K, d)), t=1.0)
    out = gradient_ascent_baseline(sur, spec, z0, 0.3, 4, 0.2, streams(seed, B))
    for b in range(B):
        one = gradient_ascent_baseline(sur, spec, LatentState(z=z0.z[b:b + 1], t=1.0),
                                       0.3, 4, 0.2, streams(seed, B)[b:b + 1])
        close(out.z[b], one.z[0])


@settings(max_examples=30, deadline=None)
@given(batch, tokens_k, dims, seeds)
def test_sample_prior_rows_match_single(B, K, d, seed):
    field, _ = models(seed, K, d)
    out = sample_prior(field, streams(seed, B))
    assert out.z.shape == (B, K, d)
    for b in range(B):
        close(out.z[b], sample_prior(field, streams(seed, B)[b:b + 1]).z[0])


plain_tokens = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(plain_tokens), max_size=12), min_size=1, max_size=6),
       tokens_k, dims, seeds)
def test_encode_and_decode_rows_match_single(seqs, K, d, seed):
    vae = SeqVae(VaeConfig(K=K, d=d, embed_dim=6, enc_hidden=8, dec_hidden=8, max_len=16),
                 Rng(seed))
    post = vae.encode_batch(seqs)
    for b, seq in enumerate(seqs):
        one = vae.encode_batch([seq])
        close(post.mu[b], one.mu[0])
        close(post.log_sigma[b], one.log_sigma[0])
    z = Rng(seed).split("z").normal((len(seqs), K, d)) * 3.0
    decoded = vae.decode_greedy_batch(z)
    assert decoded == [vae.decode_greedy_batch(z[b:b + 1])[0] for b in range(len(seqs))]


# -- evaluation layer -----------------------------------------------------

DIRECTIONS = ((MAXIMIZE, MINIMIZE), (MAXIMIZE, MAXIMIZE), (MINIMIZE, MINIMIZE))


def to_max(points, directions):
    return np.asarray(points, dtype=np.float64) * [1.0 if d == MAXIMIZE else -1.0
                                                   for d in directions]


def brute_front(t):
    """Indices of the non-dominated rows of maximized ``t``; the first of equal rows."""
    keep = []
    for i in range(len(t)):
        dominated = any(np.all(t[j] >= t[i]) and np.any(t[j] > t[i]) for j in range(len(t)))
        if not dominated and not any(np.array_equal(t[j], t[i]) for j in keep):
            keep.append(i)
    return keep


def loop_hypervolume(points, ref, directions):
    """Per-point reference: brute-force front of the points inside ``ref``,
    then one term per front point, summed in a Python loop. Returns the
    volume and the number of points outside."""
    t = to_max(np.reshape(points, (-1, 2)), directions)
    r = to_max(ref, directions)
    inside = t[[bool(p[0] > r[0] and p[1] > r[1]) for p in t]]
    front = sorted((tuple(inside[i]) for i in brute_front(inside)), key=lambda p: -p[0])
    hv, prev = 0.0, r[1]
    for x, y in front:
        hv += (x - r[0]) * (y - prev)
        prev = y
    return hv, len(t) - len(inside)


# Coordinates from a coarse grid (ties, duplicates, points on the reference)
# mixed with arbitrary floats (sums that round differently in another order).
coords = st.one_of(st.integers(-4, 4).map(lambda k: k / 2.0),
                   st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False))


@st.composite
def point_sets(draw, max_n=24):
    """(points, ref, directions); some sets are one long staircase front."""
    directions = draw(st.sampled_from(DIRECTIONS))
    n = draw(st.integers(0, max_n))
    xs = draw(st.lists(coords, min_size=n, max_size=n))
    ys = draw(st.lists(coords, min_size=n, max_size=n))
    if draw(st.booleans()):  # all mutually non-dominated before the flip
        xs, ys = sorted(xs), sorted(ys, reverse=True)
    t = np.array([xs, ys], dtype=np.float64).T.reshape(n, 2)
    ref = np.array([draw(coords), draw(coords)]) - draw(st.sampled_from([0.0, 6.0]))
    return to_max(t, directions), to_max(ref, directions), directions


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_hypervolume_rows_match_loop(case, data):
    points, ref, directions = case
    n = len(points)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=5))
    present = np.array([[False] * n, [True] * n] + rows, dtype=bool).reshape(2 + len(rows), n)
    got = moeval.hypervolume_2d_rows(points, present, ref, directions)
    assert got.shape == (len(present),)
    for row, hv in zip(present, got):
        want, outside = loop_hypervolume(points[row], ref, directions)
        assert hv == want
        assert moeval.hypervolume_2d(points[row], ref, directions) == want
        assert moeval.hypervolume_2d_with_warnings(points[row], ref, directions) == (want, outside)


def test_hypervolume_long_front_sums_in_order():
    """200-point staircases: every point is a term, so another summation
    order (a pairwise ``np.sum``, say) shows in the last bits."""
    for seed in range(5):
        r = Rng(seed)
        xs, ys = np.sort(r.uniform(0, 1, (200,))), np.sort(r.uniform(1, 10, (200,)))
        points, ref = np.stack([xs, ys], axis=1), np.array([-0.1, 10.5])
        present = np.stack([np.ones(200, dtype=bool), r.uniform(0, 1, (200,)) < 0.7])
        for row, hv in zip(present, moeval.hypervolume_2d_rows(points, present, ref)):
            want = loop_hypervolume(points[row], ref, moeval.DEFAULT_DIRECTIONS)[0]
            assert hv == want
            assert moeval.hypervolume_2d(points[row], ref) == want


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_pareto_front_matches_brute_force(case):
    points, _, directions = case
    if len(points) == 0:
        return
    front = moeval.pareto_front(points, directions)
    keep = brute_front(to_max(points, directions))
    assert sorted(front.indices.tolist()) == keep
    assert np.array_equal(front.points, points[front.indices])
    xs = to_max(front.points, directions)[:, 0]
    assert np.all(xs[:-1] > xs[1:])  # canonical order: first objective best-first


@settings(max_examples=60, deadline=None)
@given(point_sets(max_n=12), st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
       st.integers(1, 40), st.sampled_from([0.5, 0.9, 0.95]), st.integers(0, 2 ** 16))
def test_bootstrap_ci_matches_resample_loop(base_case, drawn, resamples, level, seed):
    baseline, ref, directions = base_case
    generated = np.array(drawn, dtype=np.float64)
    n = len(generated)
    all_points = np.vstack([baseline, generated])

    def metric(idx):
        present = np.zeros((len(idx), len(all_points)), dtype=bool)
        present[:, :len(baseline)] = True
        present[np.arange(len(idx))[:, None], len(baseline) + idx] = True
        return moeval.hypervolume_2d_rows(all_points, present, ref, directions)

    got = moeval.bootstrap_ci(metric, n, resamples, level, Rng(seed))
    gen = Rng(seed).split("bootstrap").gen
    stats = [loop_hypervolume(np.vstack([baseline, generated[gen.integers(0, n, n)]]),
                              ref, directions)[0] for _ in range(resamples)]
    alpha = (1.0 - level) / 2.0
    assert got == (float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 50), st.integers(0, 2 ** 32 - 1))
def test_bootstrap_index_draw_matches_per_resample_draws(n, resamples, seed):
    """One (R, n) draw gives the indices of R draws of n and leaves the stream in the same state."""
    one = Rng(seed).gen
    rows = Rng(seed).gen
    assert np.array_equal(one.integers(0, n, (resamples, n)),
                          np.stack([rows.integers(0, n, n) for _ in range(resamples)]))
    assert one.integers(0, 2 ** 62) == rows.integers(0, 2 ** 62)


def untrained_pipeline(cfg, seed=0):
    """Models of the right shapes, untrained: evaluation and budgeting only need shapes."""
    rng = Rng(seed)
    return harness.Pipeline(vae=SeqVae(cfg.vae, rng.split("vae")),
                            surrogate=Surrogate(cfg.surrogate, rng.split("sur")),
                            flow=FlowField(cfg.flow, rng.split("flow")))


TINY = tiny_config()
TINY_DATA = toyset.generate_dataset(TINY.data.seed, TINY.data.count,
                                    TINY.data.min_len, TINY.data.max_len)
TINY_MODELS = untrained_pipeline(TINY)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 11), min_size=1, max_size=20), st.integers(0, 2 ** 16))
def test_evaluate_hv_ci_matches_resample_loop(picks, seed):
    """``_evaluate``'s interval: the baseline plus each resample's drawn points,
    duplicates included, scored one resample at a time."""
    test = TINY_DATA.subset("test")
    structures = [toyset.decode(test[i][0]) for i in picks]
    baseline = np.stack([p.as_array() for _, p in test[12:30]])
    ref = moeval.auto_reference(baseline)
    report = harness._evaluate(TINY_MODELS, TINY, structures, baseline, ref, seed,
                               harness.reference_set(TINY_DATA, TINY))
    points = np.stack([toyset.oracle_properties(s).as_array() for s in structures])
    ev, n = TINY.evaluation, len(points)
    gen = Rng(seed).split("hv-ci").split("bootstrap").gen
    stats = [loop_hypervolume(np.vstack([baseline, points[gen.integers(0, n, n)]]), ref,
                              moeval.DEFAULT_DIRECTIONS)[0]
             for _ in range(ev.bootstrap_resamples)]
    alpha = (1.0 - ev.ci_level) / 2.0
    assert report.hv_ci == (float(np.quantile(stats, alpha)),
                            float(np.quantile(stats, 1.0 - alpha)))


def budgeted_files(result):
    return (result.report.to_json(), harness.hvi_trace_csv(result),
            json.dumps(result.pool_keys), result.final_hvi, result.calls)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(harness.PROPOSERS), st.integers(0, 2 ** 16))
def test_budgeted_run_prebuilt_reference_matches_own(proposer, seed):
    cfg = dataclasses.replace(TINY, budget=dataclasses.replace(TINY.budget, budget=12))
    reference = harness.reference_set(TINY_DATA, cfg)
    with_ref = harness.budgeted_run(TINY_MODELS, TINY_DATA, cfg, proposer, seed,
                                    reference=reference)
    own = harness.budgeted_run(TINY_MODELS, TINY_DATA, cfg, proposer, seed)
    assert budgeted_files(with_ref) == budgeted_files(own)
