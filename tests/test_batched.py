"""Property tests: each batched routine matches its one-at-a-time reference.

Rows of a (B, K, d) batch never interact, so row b of a batched latent call
must equal the same routine run on row b alone, within 1e-12; that holds
across the chunks ``encode_batch`` splits a long batch into. The vector time
embedding and the batched evaluation layer (one front/hypervolume sweep over
an (R, n) presence mask, one bootstrap over an (R, n) index matrix), the
integrator's row-wise gradient normalize-or-clip and the row-wise objective
must equal the per-scalar, per-point and per-row loops written out below (the
normalize-or-clip loop in ``conftest``) exactly, compared with ``==``.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import harness, moeval, toyset
from flowopt.errors import ContractViolation
from flowopt.flowmatch import FlowConfig, FlowField, sample_prior
from flowopt.guidance import (CLIP_NORM, GuidanceConfig, ObjectiveSpec, _row_norms,
                              gradient_ascent_baseline, guided_integrate, guided_steps,
                              objective_gradient, objective_value, prepare_optimization)
from flowopt.nn import TIME_EMBED_FREQ_RANGE, time_embed
from flowopt.rng import Rng
from flowopt.seqvae import ENCODE_CHUNK, SeqVae, VaeConfig, mean_pool
from flowopt.surrogate import Surrogate, SurrogateConfig

from conftest import guided_rows, loop_postprocess, tape_mean_pool, tape_velocity
from tape import Tensor
from test_harness import tiny_config

SPECS = (ObjectiveSpec(mode="target", weights=(1.0, 0.5), targets=(0.8, 2.5)),
         ObjectiveSpec(mode="directional"))

batch = st.integers(1, 6)
tokens_k = st.integers(1, 3)
dims = st.integers(1, 4)
seeds = st.integers(0, 2 ** 16)
gammas = st.sampled_from([0.0, 0.5, 5.0])
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
@given(batch, tokens_k, dims, seeds, gammas, st.booleans(), specs)
def test_guided_integrate_rows_match_single(B, K, d, seed, gamma, normalize, spec):
    """Row b of each yield of ``guided_steps``, and of the final latents, is
    that of the integration of row b alone."""
    field, sur = models(seed, K, d)
    cfg = GuidanceConfig(gamma=gamma, sigma=0.0, steps=3, t_start=0.4,
                         normalize_gradient=normalize)
    z0 = Rng(seed).split("z").normal((B, K, d)) * 2.0
    yields = list(guided_steps(field, sur, spec, cfg, z0))
    out = guided_integrate(field, sur, spec, cfg, z0)
    assert out.shape == (B, K, d) and len(yields) == cfg.steps
    assert np.array_equal(out, yields[-1][1])
    for b in range(B):
        one = list(guided_steps(field, sur, spec, cfg, z0[b:b + 1]))
        close(out[b], guided_integrate(field, sur, spec, cfg, z0[b:b + 1])[0])
        for (t, z, v, g), (one_t, one_z, one_v, one_g) in zip(yields, one, strict=True):
            assert t == one_t
            close(z[b], one_z[0])
            close(v[b], one_v[0])
            assert (g is None) == (one_g is None) == (gamma == 0.0)
            if g is not None:
                close(g[b], one_g[0])


@settings(max_examples=40, deadline=None)
@given(batch, st.integers(1, 5), dims, seeds, st.sampled_from([0.0, 5.0]), st.booleans(),
       specs, st.integers(1, 4))
def test_guided_steps_rederive_from_the_previous_state(B, K, d, seed, gamma, normalize, spec,
                                                       steps):
    """Each yield equals ``==`` the step re-derived from the state before it:
    ``v`` the tape's velocity there, ``g`` the raw objective gradient there
    through the per-row post-processing loop, and ``z`` the Euler update."""
    field, sur = models(seed, K, d)
    cfg = GuidanceConfig(gamma=gamma, sigma=0.0, steps=steps, t_start=0.4,
                         normalize_gradient=normalize)
    prev = Rng(seed).split("z").normal((B, K, d)) * 2.0
    dt = (1.0 - cfg.t_start) / cfg.steps
    for s, (t, z, v, g) in enumerate(guided_steps(field, sur, spec, cfg, prev)):
        assert t == cfg.t_start + (s + 1) * dt
        assert np.array_equal(v, tape_velocity(field, prev, cfg.t_start + s * dt).data
                              .reshape(B, K, d))
        if gamma:
            assert np.array_equal(g, loop_postprocess(objective_gradient(spec, sur, prev)[1],
                                                      normalize))
            assert np.array_equal(z, prev + dt * (v - gamma * g))
        else:
            assert g is None and np.array_equal(z, prev + dt * v)
        prev = z


@settings(max_examples=40, deadline=None)
@given(batch, tokens_k, dims, seeds, gammas, st.booleans(), specs, st.integers(1, 4))
def test_no_yielded_array_is_written_by_a_later_step(B, K, d, seed, gamma, normalize, spec,
                                                    steps):
    """The yields a caller keeps, ``list(guided_steps(...))``, equal ``==``
    copies taken at each yield; nor is the start state written."""
    field, sur = models(seed, K, d)
    cfg = GuidanceConfig(gamma=gamma, sigma=0.0, steps=steps, t_start=0.4,
                         normalize_gradient=normalize)
    z = Rng(seed).split("z").normal((B, K, d)) * 2.0
    start = z.copy()
    copies = [[None if x is None else np.copy(x) for x in y]
              for y in guided_steps(field, sur, spec, cfg, z)]
    kept = list(guided_steps(field, sur, spec, cfg, z))
    assert np.array_equal(z, start) and len(kept) == len(copies) == steps
    for got, want in zip(kept, copies):
        assert all(x is w is None or np.array_equal(x, w) for x, w in zip(got, want, strict=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.lists(st.integers(1, 9), min_size=1, max_size=3), seeds)
def test_row_norms_of_stacked_rows_equal_each_row(N, shape, seed):
    """One call over N stacked rows gives each row's own call and
    ``np.linalg.norm`` of the row, so norms may be taken in bulk."""
    r = Rng(seed)
    mag = 10.0 ** r.split("mag").integers(-3, 4, (N,) + (1,) * len(shape))
    x = r.split("x").normal((N, *shape)) * mag
    got = _row_norms(x)
    assert got.shape == (N,)
    for i in range(N):
        assert got[i] == _row_norms(x[i:i + 1])[0] == np.linalg.norm(x[i])


@settings(max_examples=40, deadline=None)
@given(batch, st.integers(1, 8), dims, seeds)
def test_mean_pool_equals_tape(B, K, d, seed):
    """``mean_pool`` takes the tape's rule, sum times 1/K, bit for bit."""
    z = Rng(seed).normal((B, K, d)) * 3.0
    pooled = mean_pool(z)
    assert np.array_equal(pooled, tape_mean_pool(Tensor(z)).data)
    assert np.array_equal(pooled, z.sum(axis=1) * (1.0 / K))


@settings(max_examples=40, deadline=None)
@given(batch, tokens_k, dims, seeds, specs)
def test_objective_gradient_rows_match_single(B, K, d, seed, spec):
    _, sur = models(seed, K, d)
    z = Rng(seed).split("z").normal((B, K, d)) * 2.0
    _, g = objective_gradient(spec, sur, z)
    assert g.shape == (B, K, d)
    for b in range(B):
        _, one = objective_gradient(spec, sur, z[b:b + 1])
        close(g[b], one[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), tokens_k, dims, seeds, st.booleans())
def test_gradient_postprocessing_equals_row_loop(B, K, d, seed, normalize):
    """The rows ``guided_steps`` steps along, drawn around ``CLIP_NORM``:
    at 10**-3 to 10**3 times it, zero, tiny (their squares underflow), or
    exactly on it (one entry of +-CLIP_NORM, which the clip keeps as is) or
    one ulp above it."""
    r = Rng(seed)
    g = r.split("g").normal((B, K, d))
    g /= np.array([np.linalg.norm(row) for row in g])[:, None, None]
    g *= (CLIP_NORM * 10.0 ** r.split("mag").uniform(-3.0, 3.0, B))[:, None, None]
    kind = r.split("kind").integers(0, 6, B)
    g[kind == 1] = 0.0
    g[kind == 2] *= 1e-300
    edge = (kind == 3) | (kind == 4)
    g[edge] = 0.0
    g[edge, 0, 0] = np.where(kind[edge] == 3, CLIP_NORM, np.nextafter(CLIP_NORM, np.inf))
    g[edge, 0, 0] *= np.sign(r.split("sign").uniform(-1.0, 1.0, int(edge.sum())))
    got = guided_rows(g.reshape(B, -1), normalize)
    assert np.array_equal(got, loop_postprocess(g, normalize).reshape(B, -1))
    if not normalize:
        assert np.array_equal(got[kind == 3], g[kind == 3].reshape(-1, K * d))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), seeds, specs)
def test_objective_value_rows_equal_scalar_calls(B, seed, spec):
    pred = Rng(seed).normal((B, 2)) * 5.0
    rows = objective_value(spec, pred)
    assert isinstance(rows, float) if B == 1 else rows.shape == (B,)
    assert np.array_equal(np.reshape(rows, B), [objective_value(spec, p) for p in pred])


@settings(max_examples=30, deadline=None)
@given(batch, tokens_k, dims, seeds, specs)
def test_gradient_ascent_rows_match_single(B, K, d, seed, spec):
    """Start noise, then descent, as the gradient-ascent proposer runs them."""
    _, sur = models(seed, K, d)
    mu = Rng(seed).split("z").normal((B, K, d))
    out = gradient_ascent_baseline(sur, spec, prepare_optimization(mu, 0.2, streams(seed, B)),
                                   0.3, 4)
    for b in range(B):
        z0 = prepare_optimization(mu[b:b + 1], 0.2, streams(seed, B)[b:b + 1])
        close(out[b], gradient_ascent_baseline(sur, spec, z0, 0.3, 4)[0])


@settings(max_examples=30, deadline=None)
@given(batch, tokens_k, dims, seeds)
def test_sample_prior_rows_match_single(B, K, d, seed):
    field, _ = models(seed, K, d)
    out = sample_prior(field, streams(seed, B))
    assert out.shape == (B, K, d)
    for b in range(B):
        close(out[b], sample_prior(field, streams(seed, B)[b:b + 1])[0])


plain_tokens = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(plain_tokens), max_size=12), min_size=1, max_size=6),
       tokens_k, dims, seeds)
def test_encode_and_decode_rows_match_single(seqs, K, d, seed):
    vae = SeqVae(VaeConfig(K=K, d=d, embed_dim=6, enc_hidden=8, dec_hidden=8), Rng(seed))
    post = vae.encode_batch(seqs)
    for b, seq in enumerate(seqs):
        one = vae.encode_batch([seq])
        close(post.mu[b], one.mu[0])
        close(post.log_sigma[b], one.log_sigma[0])
    z = Rng(seed).split("z").normal((len(seqs), K, d)) * 3.0
    decoded = vae.decode_greedy_batch(z)
    assert decoded == [vae.decode_greedy_batch(z[b:b + 1])[0] for b in range(len(seqs))]


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([ENCODE_CHUNK - 1, ENCODE_CHUNK, ENCODE_CHUNK + 1, 600]), seeds)
def test_chunked_encode_rows_match_single(B, seed):
    """Across chunk edges, with chunks padded to different lengths: one
    sequence longer than the rest (truncated at ``toyset.MAX_LEN``) lands in one chunk."""
    r = Rng(seed)
    vae = SeqVae(VaeConfig(K=2, d=3, embed_dim=6, enc_hidden=8, dec_hidden=8), r.split("vae"))
    lengths = r.split("len").integers(0, 10, B)
    lengths[int(r.split("long").integers(0, B))] = toyset.MAX_LEN + 6
    seqs = [tuple(plain_tokens[i] for i in r.split(("seq", b)).integers(0, len(plain_tokens), n))
            for b, n in enumerate(lengths)]
    post = vae.encode_batch(seqs)
    assert post.mu.shape == post.log_sigma.shape == (B, 2, 3)
    for b, seq in enumerate(seqs):
        one = vae.encode_batch([seq])
        close(post.mu[b], one.mu[0])
        close(post.log_sigma[b], one.log_sigma[0])


# -- time embedding -------------------------------------------------------

def time_embed_one(t, dim):
    """The per-scalar embedding, written out: one (dim,) row for one time."""
    half = dim // 2
    lo, hi = TIME_EMBED_FREQ_RANGE
    freqs = np.array([lo]) if half == 1 else lo * (hi / lo) ** (np.arange(half) / (half - 1))
    out = np.empty(dim)
    out[0::2] = np.sin(t * freqs)
    out[1::2] = np.cos(t * freqs)
    return out


times = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
embed_dims = st.sampled_from([2, 4, 8, 16, 128])


@settings(max_examples=60, deadline=None)
@given(times, st.sampled_from([[], [0.0], [1.0], [1.0, 0.0]]), embed_dims)
def test_time_embed_matches_per_scalar_stack(ts, ends, dim):
    t = np.array(ts + ends)
    want = np.stack([time_embed_one(float(x), dim) for x in t])
    assert (time_embed(t, dim) == want).all()
    for b in range(len(t)):
        assert (time_embed(t[b:b + 1], dim) == want[b:b + 1]).all()


@settings(max_examples=40, deadline=None)
@given(times, st.sampled_from([-1e-300, -0.5, 1.0 + 1e-15, 3.0, np.inf, np.nan]),
       st.integers(0, 39), embed_dims)
def test_time_embed_rejects_bad_time_or_dim(ts, bad, at, dim):
    t = np.array(ts)
    with pytest.raises(ContractViolation):
        time_embed(t, dim + 1)
    t[at % len(t)] = bad
    with pytest.raises(ContractViolation):
        time_embed(t, dim)


# -- evaluation layer -----------------------------------------------------

def to_max(points):
    """(p1, p2) points with p2 negated: both maximized. Its own inverse."""
    return np.asarray(points, dtype=np.float64) * [1.0, -1.0]


def brute_front(t):
    """Indices of the non-dominated rows of maximized ``t``; the first of equal rows."""
    keep = []
    for i in range(len(t)):
        dominated = any(np.all(t[j] >= t[i]) and np.any(t[j] > t[i]) for j in range(len(t)))
        if not dominated and not any(np.array_equal(t[j], t[i]) for j in keep):
            keep.append(i)
    return keep


def loop_hypervolume(points, ref):
    """Per-point reference: brute-force front of the points inside ``ref``,
    then one term per front point, summed in a Python loop. Returns the
    volume and the number of points outside."""
    t = to_max(np.reshape(points, (-1, 2)))
    r = to_max(ref)
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
    """(points, ref); some sets are one long staircase front."""
    n = draw(st.integers(0, max_n))
    xs = draw(st.lists(coords, min_size=n, max_size=n))
    ys = draw(st.lists(coords, min_size=n, max_size=n))
    if draw(st.booleans()):  # all mutually non-dominated before the flip
        xs, ys = sorted(xs), sorted(ys, reverse=True)
    t = np.array([xs, ys], dtype=np.float64).T.reshape(n, 2)
    ref = np.array([draw(coords), draw(coords)]) - draw(st.sampled_from([0.0, 6.0]))
    return to_max(t), to_max(ref)


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_hypervolume_rows_match_loop(case, data):
    points, ref = case
    n = len(points)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=5))
    present = np.array([[False] * n, [True] * n] + rows, dtype=bool).reshape(2 + len(rows), n)
    got = moeval.hypervolume_2d_rows(points, present, ref)
    assert got.shape == (len(present),)
    for row, hv in zip(present, got):
        want, outside = loop_hypervolume(points[row], ref)
        assert hv == want
        assert moeval.hypervolume_2d(points[row], ref) == want
        assert moeval.hypervolume_2d_with_warnings(points[row], ref) == (want, outside)


def unpruned_hypervolume_2d_rows(points, present, ref):
    """``moeval.hypervolume_2d_rows`` sweeping every column: no point is
    dropped before the sort, whether or not a front can hold it."""
    t, r = moeval._to_max(points), moeval._to_max(ref)
    present = np.atleast_2d(present)
    if len(t) == 0:
        return np.zeros(len(present))
    order, front, before = moeval._sweep_2d(t, present & np.all(t > r, axis=1))
    x, y = t[order, 0], t[order, 1]
    terms = np.where(front, (x - r[0]) * (y - np.maximum(before, r[1])), 0.0)
    return np.add.accumulate(terms, axis=1)[:, -1]


@settings(max_examples=300, deadline=None)
@given(point_sets(max_n=40), st.data())
def test_hypervolume_rows_pruning_keeps_bits(case, data):
    """Dropping the columns behind a point every row holds (weakly dominated,
    or equal and listed later) and those outside the reference box leaves
    every row's bits: R = 1, duplicates, ties in one coordinate and points on
    or outside the reference included."""
    points, ref = case
    n = len(points)
    if n and data.draw(st.booleans()):  # duplicates of some points, anywhere in the list
        extra = points[data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
        points = np.vstack([points, extra])[data.draw(st.permutations(range(n + len(extra))))]
        n = len(points)
    always = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                              min_size=1, max_size=6))
    present = np.array(rows, dtype=bool).reshape(len(rows), n) | always
    got = moeval.hypervolume_2d_rows(points, present, ref)
    assert got.tobytes() == unpruned_hypervolume_2d_rows(points, present, ref).tobytes()


def test_hypervolume_long_front_sums_in_order():
    """200-point staircases: every point is a term, so another summation
    order (a pairwise ``np.sum``, say) shows in the last bits."""
    for seed in range(5):
        r = Rng(seed)
        xs, ys = np.sort(r.uniform(0, 1, (200,))), np.sort(r.uniform(1, 10, (200,)))
        points, ref = np.stack([xs, ys], axis=1), np.array([-0.1, 10.5])
        present = np.stack([np.ones(200, dtype=bool), r.uniform(0, 1, (200,)) < 0.7])
        for row, hv in zip(present, moeval.hypervolume_2d_rows(points, present, ref)):
            want = loop_hypervolume(points[row], ref)[0]
            assert hv == want
            assert moeval.hypervolume_2d(points[row], ref) == want


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_pareto_front_matches_brute_force(case):
    points, _ = case
    if len(points) == 0:
        return
    front = moeval.pareto_front(points)
    keep = brute_front(to_max(points))
    assert sorted(front.indices.tolist()) == keep
    assert np.array_equal(front.points, points[front.indices])
    xs = to_max(front.points)[:, 0]
    assert np.all(xs[:-1] > xs[1:])  # canonical order: first objective best-first


@settings(max_examples=60, deadline=None)
@given(point_sets(max_n=12), st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
       st.integers(1, 40), st.sampled_from([0.5, 0.9, 0.95]), st.integers(0, 2 ** 16))
def test_bootstrap_ci_matches_resample_loop(base_case, drawn, resamples, level, seed):
    baseline, ref = base_case
    generated = np.array(drawn, dtype=np.float64)
    n = len(generated)
    all_points = np.vstack([baseline, generated])

    def metric(idx):
        present = np.zeros((len(idx), len(all_points)), dtype=bool)
        present[:, :len(baseline)] = True
        present[np.arange(len(idx))[:, None], len(baseline) + idx] = True
        return moeval.hypervolume_2d_rows(all_points, present, ref)

    got = moeval.bootstrap_ci(metric, n, resamples, level, Rng(seed))
    gen = Rng(seed).split("bootstrap").gen
    stats = [loop_hypervolume(np.vstack([baseline, generated[gen.integers(0, n, n)]]), ref)[0]
             for _ in range(resamples)]
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
    report = harness._evaluate(TINY_MODELS, TINY, structures, moeval.feature_matrix(structures),
                               baseline, ref, seed, TINY_DATA)
    points = np.stack([toyset.oracle_properties(s).as_array() for s in structures])
    ev, n = TINY.evaluation, len(points)
    gen = Rng(seed).split("hv-ci").split("bootstrap").gen
    stats = [loop_hypervolume(np.vstack([baseline, points[gen.integers(0, n, n)]]), ref)[0]
             for _ in range(ev.bootstrap_resamples)]
    alpha = (1.0 - moeval.CI_LEVEL) / 2.0
    assert report.hv_ci == (float(np.quantile(stats, alpha)),
                            float(np.quantile(stats, 1.0 - alpha)))


def budgeted_files(result):
    return (result.report.to_json(), harness.hvi_trace_csv(result),
            json.dumps(result.pool_keys), result.final_hvi, result.calls)


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_budgeted_run_cold_and_warm_reference_match(seed):
    """For every proposer, a run that builds its dataset's evaluation
    reference writes the same bundle as a run that finds it kept."""
    cfg = dataclasses.replace(TINY, budget=dataclasses.replace(TINY.budget, budget=12))
    for proposer in harness.PROPOSERS:
        dataset = dataclasses.replace(TINY_DATA)  # a new dataset object: nothing kept for it
        assert dataset not in harness._REFERENCES
        cold = harness.budgeted_run(TINY_MODELS, dataset, cfg, proposer, seed)
        kept = harness._REFERENCES[dataset]
        warm = harness.budgeted_run(TINY_MODELS, dataset, cfg, proposer, seed)
        assert harness._REFERENCES[dataset] is kept
        assert budgeted_files(cold) == budgeted_files(warm)
