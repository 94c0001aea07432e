"""Property tests: each batched latent routine matches B separate batch-of-one calls.

Rows of a (B, K, d) batch never interact, so row b of a batched call must
equal the same routine run on row b alone, within 1e-12.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from flowopt import toyset
from flowopt.flowmatch import FlowConfig, FlowField, sample_prior
from flowopt.guidance import (GuidanceConfig, ObjectiveSpec, gradient_ascent_baseline,
                              guided_integrate, objective_gradient)
from flowopt.rng import Rng
from flowopt.seqvae import LatentState, SeqVae, VaeConfig
from flowopt.surrogate import Surrogate, SurrogateConfig

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
       tokens_k, dims, seeds, st.sampled_from(["attention", "mean"]))
def test_encode_and_decode_rows_match_single(seqs, K, d, seed, pooling):
    vae = SeqVae(VaeConfig(K=K, d=d, embed_dim=6, enc_hidden=8, dec_hidden=8, max_len=16,
                           pooling=pooling), Rng(seed))
    post = vae.encode_batch(seqs)
    for b, seq in enumerate(seqs):
        one = vae.encode_batch([seq])
        close(post.mu[b], one.mu[0])
        close(post.log_sigma[b], one.log_sigma[0])
    z = Rng(seed).split("z").normal((len(seqs), K, d)) * 3.0
    decoded = vae.decode_greedy_batch(z)
    assert decoded == [vae.decode_greedy_batch(z[b:b + 1])[0] for b in range(len(seqs))]
