import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowopt import config, harness, seqvae, toyset
from flowopt.errors import ArtifactIOError, ContractViolation
from flowopt.nn import load_checkpoint, save_checkpoint
from flowopt.rng import Rng
from flowopt.seqvae import (LOG_SIGMA_CLAMP, SeqVae, VaeConfig, beta_schedule, mean_pool,
                            reparameterize)

import tape as ad
from conftest import on_tape, tape_decode, tape_elbo_loss, tape_encode, tape_kl, tape_mean_pool
from tape import Tensor


def small_config(**kw):
    base = dict(K=2, d=4, embed_dim=8, enc_hidden=16, dec_hidden=16,
                batch_size=8, pretrain_epochs=1, finetune_epochs=1)
    base.update(kw)
    return VaeConfig(**base)


@pytest.fixture
def model(rng):
    return SeqVae(small_config(), rng.split("model"))


@pytest.fixture
def tiny_dataset():
    return toyset.generate_dataset(5, 80, min_len=2, max_len=10)


def test_posterior_shapes(model):
    post = model.encode_batch([("A", "B", "R"), ("C",)])
    c = model.config
    assert post.mu.shape == (2, c.K, c.d)
    assert post.log_sigma.shape == (2, c.K, c.d)


def test_log_sigma_clamped(model):
    post = model.encode_batch([("A",), ("B", "C", "i"), ()])
    assert (post.log_sigma >= LOG_SIGMA_CLAMP[0]).all()
    assert (post.log_sigma <= LOG_SIGMA_CLAMP[1]).all()


def test_empty_sequence_encodes(model):
    post = model.encode_batch([()])
    assert np.isfinite(post.mu).all()


def test_empty_batch_encodes_to_empty_arrays(model):
    post = model.encode_batch([])
    c = model.config
    assert post.mu.shape == post.log_sigma.shape == (0, c.K, c.d)
    assert model.decode_greedy_batch(post.mu) == []


def test_encode_deterministic(model):
    a = model.encode_batch([("A", "B")])
    b = model.encode_batch([("A", "B")])
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.log_sigma, b.log_sigma)


def test_mean_pool_matches_numpy(rng):
    z = rng.normal((3, 4, 6))
    pooled = mean_pool(z)
    assert isinstance(pooled, np.ndarray)
    assert np.allclose(pooled, z.mean(axis=-2))
    pt = tape_mean_pool(Tensor(z, requires_grad=True))
    assert np.allclose(pt.data, z.mean(axis=-2))


def test_reparameterize_statistics(rng):
    mu = np.zeros((1, 2, 3))
    ls = np.zeros((1, 2, 3))
    post = seqvae.PosteriorParams(mu=mu, log_sigma=ls)
    draws = np.stack([reparameterize(post, rng.split(i)) for i in range(3000)])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_kl_closed_form_against_monte_carlo(rng):
    mu = rng.normal((1, 2, 3)) * 0.5
    ls = rng.normal((1, 2, 3)) * 0.3
    exact = tape_kl(Tensor(mu), Tensor(ls)).item()
    # MC estimate: E_q[log q(z) - log p(z)]
    sigma = np.exp(ls)
    eps = rng.split("mc").normal((200000,) + mu.shape[1:])
    z = mu[0] + sigma[0] * eps
    log_q = (-0.5 * ((z - mu[0]) / sigma[0]) ** 2 - ls[0]
             - 0.5 * np.log(2 * np.pi)).sum(axis=(1, 2))
    log_p = (-0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)).sum(axis=(1, 2))
    mc = (log_q - log_p).mean()
    assert abs(exact - mc) < 3 * (log_q - log_p).std() / np.sqrt(len(z))


def test_kl_zero_iff_standard():
    zeros = Tensor(np.zeros((2, 3, 4)))
    assert tape_kl(zeros, zeros).item() == 0.0
    assert tape_kl(Tensor(np.full((1, 1, 1), 0.7)), Tensor(np.zeros((1, 1, 1)))).item() > 0


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1, allow_nan=False), st.floats(0.01, 1, allow_nan=False),
       st.floats(0.01, 1, allow_nan=False))
def test_beta_schedule_bounds(progress, beta_max, warmup):
    b = beta_schedule(progress, beta_max, warmup)
    assert 0.0 <= b <= beta_max
    if progress >= warmup:
        assert b == beta_max


def test_beta_schedule_zero_warmup():
    assert beta_schedule(0.0, 0.5, 0.0) == 0.5


def test_elbo_loss_components(model, rng):
    """The loss is recon + beta * KL, both terms nonnegative; the decoder
    reads the flat (B, K·d) z."""
    seqs = [("A", "B"), ("C",)]
    loss, acts = model.forward(seqs, rng.split("eps"), beta=0.1)
    _, recon, kl = tape_elbo_loss(model, seqs, rng.split("eps"), 0.1)
    assert np.isfinite(loss) and loss == (recon + 0.1 * kl).item()
    assert kl.item() >= 0.0 and recon.item() >= 0.0
    assert acts["zf"].shape == (2, model.config.K * model.config.d)


def loop_prepare_batch(sequences):
    """The per-token loops ``prepare_batch`` replaced."""
    for s in sequences:
        for tok in s:
            if tok not in toyset.TOKEN_ID:
                raise ContractViolation(f"unknown token {tok!r}")
    seqs = [list(s)[: toyset.MAX_LEN - 1] for s in sequences]
    L = max(len(s) for s in seqs) + 1
    pad, bos, eos = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))
    enc = np.full((len(seqs), L), pad, dtype=np.int64)
    dec_in = np.full((len(seqs), L), pad, dtype=np.int64)
    tgt = np.full((len(seqs), L), pad, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids = [toyset.TOKEN_ID[t] for t in s]
        enc[i, : len(ids)] = ids
        dec_in[i, 0] = bos
        dec_in[i, 1 : len(ids) + 1] = ids
        tgt[i, : len(ids)] = ids
        tgt[i, len(ids)] = eos
    lengths = np.array([len(s) for s in seqs])
    valid = np.flatnonzero(np.arange(L) <= lengths[:, None])
    return enc, dec_in, tgt, valid


# Rows of 0 to MAX_LEN + 3 tokens, so some are truncated at MAX_LEN - 1.
LONG_ROW = st.lists(st.sampled_from(toyset.VOCAB[3:]), max_size=toyset.MAX_LEN + 3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.lists(LONG_ROW, min_size=1, max_size=8))
@example([()])
@example([(), ("A",) * toyset.MAX_LEN])
def test_prepare_batch_equals_token_loop(seqs):
    got, want = SeqVae(small_config(), Rng(0)).prepare_batch(seqs), loop_prepare_batch(seqs)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seqs", [[("A", "bogus")], [("A",) * toyset.MAX_LEN + ("bogus",)],
                                  [(), ("B",), ("C", 7)]])
def test_prepare_batch_unknown_token_raises(model, seqs):
    """Also past the truncation point, like the loop that checked every token."""
    with pytest.raises(ContractViolation, match="unknown token"):
        model.prepare_batch(seqs)


def test_decode_greedy_deterministic(model, rng):
    z = rng.normal((3, model.config.K, model.config.d))
    a = model.decode_greedy_batch(z)
    b = model.decode_greedy_batch(z)
    assert a == b and len(a) == 3
    assert all(tok not in (toyset.PAD, toyset.BOS, toyset.EOS) for row in a for tok in row)


def concat_decode_graph(vae, dec_in, z):
    """The concat-flat-z first layer the split decoder replaced: the flat code
    repeated at every position and concatenated to its input embedding."""
    vae = on_tape(vae)
    c = vae.config
    B, L = dec_in.shape
    emb = ad.embedding(vae.p["tok_emb"], dec_in.reshape(-1))
    pos = ad.embedding(vae.p["pos_emb"], np.tile(np.arange(L), B))
    zf = z.reshape(B, 1, c.K * c.d) * Tensor(np.ones((1, L, 1)))
    x = ad.concat([(emb + pos).reshape(B, L, c.embed_dim), zf], axis=2)
    h = (x.reshape(B * L, c.embed_dim + c.K * c.d) @ vae.p["dec_w1"] + vae.p["dec_b1"]).tanh()
    return h @ vae.p["dec_w2"] + vae.p["dec_b2"]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, toyset.MAX_LEN + 1), st.integers(1, 5),
       st.integers(1, 8), st.integers(1, 12), st.integers(0, 2 ** 16))
def test_split_decoder_layer_matches_concat(B, L, K, d, E, seed):
    """On a random mask with at least one valid position per row, the packed
    logits agree with the concat formula's rows at ``valid``, and the
    gradients of every parameter and of z with the concat's under the same
    upstream gradient (zero at masked cells), all within 1e-12."""
    r = Rng(seed)
    vae = on_tape(SeqVae(small_config(K=K, d=d, embed_dim=E), r.split("vae")))
    dec_in = r.split("tok").integers(0, len(toyset.VOCAB), (B, L))
    mask = r.split("mask").uniform(shape=(B, L)) < 0.5
    mask[np.arange(B), r.split("keep").integers(0, L, B)] = True
    valid = np.flatnonzero(mask)
    z0 = r.split("z").normal((B, K, d))
    upstream = r.split("g").normal((B * L, len(toyset.VOCAB))) * mask.reshape(-1, 1)
    params = vae.params()
    z = Tensor(z0, requires_grad=True)
    packed = tape_decode(vae, dec_in, valid, z)
    got = [packed.data] + ad.gradients((packed * Tensor(upstream[valid])).sum(), params + [z])
    z = Tensor(z0, requires_grad=True)
    grid = concat_decode_graph(vae, dec_in, z)
    want = [grid.data[valid]] + ad.gradients((grid * Tensor(upstream)).sum(), params + [z])
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12


def grid_encode_graph(vae, enc_ids):
    """The encoder before packing: embeddings and the feature layer on every
    cell of the (B, L) grid, pad cells included."""
    vae = on_tape(vae)
    c = vae.config
    B, L = enc_ids.shape
    emb = ad.embedding(vae.p["tok_emb"], enc_ids.reshape(-1))
    pos = ad.embedding(vae.p["pos_emb"], np.tile(np.arange(L), B))
    h = ((emb + pos) @ vae.p["enc_w"] + vae.p["enc_b"]).tanh()
    pad_mask = (enc_ids != toyset.TOKEN_ID[toyset.PAD]).astype(np.float64)
    pad_mask[:, 0] = 1.0
    neg = Tensor((1.0 - pad_mask.reshape(-1, 1)) * -1e9)
    scores = (h @ vae.p["queries"].transpose() + neg).reshape(B, L, c.K)
    attn = ad.softmax(scores, axis=1)
    pooled = ad.attention_pool(attn, h.reshape(B, L, c.enc_hidden)).reshape(B * c.K, -1)
    mu = (pooled @ vae.p["mu_w"] + vae.p["mu_b"]).reshape(B, c.K, c.d)
    ls = (pooled @ vae.p["ls_w"] + vae.p["ls_b"]).clamp(*LOG_SIGMA_CLAMP)
    return mu, ls.reshape(B, c.K, c.d)


def grid_elbo_loss(vae, seqs, rng, beta):
    """The negative ELBO before packing: the grid encoder, the concat decoder
    on every cell, and the token cross-entropy weighted by the padding mask."""
    enc, dec_in, tgt, _ = vae.prepare_batch(seqs)
    B, L = dec_in.shape
    mask = (np.arange(L) <= np.array([[len(s)] for s in seqs])).reshape(-1).astype(np.float64)
    mu, ls = grid_encode_graph(vae, enc)
    z = mu + ls.exp() * Tensor(rng.normal(mu.shape))
    logits = concat_decode_graph(vae, dec_in, z)
    shifted = logits - Tensor(logits.data.max(axis=1, keepdims=True))
    logp = shifted - shifted.exp().sum(axis=1, keepdims=True).log()
    onehot = np.zeros(logits.shape)
    onehot[np.arange(B * L), tgt.reshape(-1)] = 1.0
    nll = -(logp * Tensor(onehot)).sum(axis=1)
    recon = (nll * Tensor(mask)).sum() * (1.0 / mask.sum())
    return recon + beta * tape_kl(mu, ls)


PLAIN = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]
ROW = st.lists(st.sampled_from(PLAIN), max_size=toyset.MAX_LEN - 1).map(tuple)
FULL_ROW = st.lists(st.sampled_from(PLAIN), min_size=toyset.MAX_LEN - 1,
                    max_size=toyset.MAX_LEN - 1).map(tuple)
# Mixed lengths, empty structures (EOS only), and rows of MAX_LEN - 1 tokens.
BATCHES = st.one_of(st.lists(ROW, min_size=1, max_size=10),
                    st.integers(1, 6).map(lambda b: [()] * b),
                    st.lists(FULL_ROW, min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(BATCHES, st.integers(0, 2 ** 16))
def test_packed_elbo_matches_grid_formula(seqs, seed):
    """The packed negative ELBO and every parameter gradient agree with the
    grid formula within 1e-12: same function, sums without the pad terms."""
    r = Rng(seed)
    vae = SeqVae(small_config(), r.split("vae"))
    loss, acts = vae.forward(seqs, r.split("eps"), 0.1)
    got = [loss] + vae.backward(acts)
    lifted = on_tape(vae)
    loss = grid_elbo_loss(lifted, seqs, r.split("eps"), 0.1)
    want = [loss.data] + ad.gradients(loss, lifted.params())
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(BATCHES, st.integers(0, 2 ** 16))
@example([(PLAIN[0],)], 0)  # one row, one token: a one-row feature product has other bits
def test_packed_encoder_equals_grid_encoder(seqs, seed):
    """The packed tape encoder and ``encode_batch`` are ``==`` to the grid
    encoder: the pad cells' features only ever met a weight of exactly 0."""
    vae = SeqVae(small_config(), Rng(seed))
    enc, _, _, valid = vae.prepare_batch(seqs)
    want = [t.data for t in grid_encode_graph(vae, enc)]
    post = vae.encode_batch(seqs)
    for got in ([t.data for t in tape_encode(vae, enc, valid)], [post.mu, post.log_sigma]):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def concat_decode_greedy(vae, Z):
    """The greedy decoder before the split layer: the flat code concatenated
    to every step's input, and a per-row loop over the unfinished rows."""
    c = vae.config
    B = Z.shape[0]
    zf = Z.reshape(B, c.K * c.d)
    pad, bos, eos = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))
    prev = np.full(B, bos, dtype=np.int64)
    done = np.zeros(B, dtype=bool)
    out = [[] for _ in range(B)]
    p = vae.p
    for pos in range(toyset.MAX_LEN):
        x = np.concatenate([p["tok_emb"][prev] + p["pos_emb"][pos], zf], axis=1)
        logits = np.tanh(x @ p["dec_w1"] + p["dec_b1"]) @ p["dec_w2"] + p["dec_b2"]
        logits[:, pad] = -np.inf
        logits[:, bos] = -np.inf
        nxt = logits.argmax(axis=1)
        for i in range(B):
            if not done[i]:
                if nxt[i] == eos:
                    done[i] = True
                else:
                    out[i].append(toyset.VOCAB[nxt[i]])
        if done.all():
            break
        prev = np.where(done, eos, nxt)
    return [tuple(s) for s in out]


def test_greedy_decode_equals_concat_loop_on_bench_means():
    """Every train-split mean of the benchmark checkpoint decodes to the same
    structure as through the concat layer and the per-row loop."""
    vae = harness.Pipeline.load(Path(__file__).parent.parent / "bench" / "ckpt").vae
    d = config.toy_default(0).data
    ds = toyset.generate_dataset(d.seed, d.count, d.min_len, d.max_len)
    mu = vae.encode_batch([tokens for tokens, _ in ds.subset("train")]).mu
    assert vae.decode_greedy_batch(mu) == concat_decode_greedy(vae, mu)


# Greedy decoding of the benchmark checkpoint, checked against the loop that
# computes every row at every step (``conftest.all_rows_decode_greedy``). Z
# scales up to 16 give rows that emit EOS at step 0 and rows that reach
# MAX_LEN; the fixed B = 2 batches leave one row live after step 0, so a
# finished row rides along.
DECODE_ROWS = """
import sys
from hypothesis import given, settings, strategies as st
from conftest import all_rows_decode_greedy
from flowopt import harness, toyset
from flowopt.rng import Rng
vae = harness.Pipeline.load(sys.argv[1]).vae
K, d = vae.config.K, vae.config.d

def check(Z):
    assert vae.decode_greedy_batch(Z) == all_rows_decode_greedy(vae, Z)

Z = Rng(0).normal((70, K, d)) * 8.0
lengths = [len(s) for s in all_rows_decode_greedy(vae, Z)]
assert 0 in lengths and toyset.MAX_LEN in lengths
check(Z)
empty, longer = lengths.index(0), next(i for i, n in enumerate(lengths) if n > 1)
check(Z[[empty, longer]])
check(Z[[longer, empty]])

@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 70), st.floats(0.3, 16.0), st.integers(0, 2 ** 32 - 1))
def batches(B, scale, seed):
    check(Rng(seed).normal((B, K, d)) * scale)

batches()
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_decode_live_rows_equals_all_rows_loop(threads):
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, (str(tests.parent / "src"), str(tests),
                                                        os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", DECODE_ROWS, str(tests.parent / "bench" / "ckpt")],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_decode_rider_keeps_products_off_one_row():
    """While a batch has two rows or more, no decoder product has one row: once
    a single row is live, a finished one rides along, so the product sums in
    the order of the larger batches, not in gemv's. Six rows of the benchmark
    checkpoint that end at steps 3 to 5 give products of 6, 4 and 2 rows."""
    vae = harness.Pipeline.load(Path(__file__).parent.parent / "bench" / "ckpt").vae
    rows = []

    class NotesRows(np.ndarray):
        """Notes the row count of the left operand of each product it is in."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                rows.append(len(inputs[0]))
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    Z = Rng(0).normal((6, vae.config.K, vae.config.d))
    want = vae.decode_greedy_batch(Z)
    assert [len(s) for s in want] == [4, 3, 3, 4, 4, 5]
    vae.p["dec_w2"] = vae.p["dec_w2"].view(NotesRows)
    assert vae.decode_greedy_batch(Z) == want
    assert rows == [6, 6, 6, 6, 4, 2]


def test_checkpoint_round_trip_bit_exact(model, tmp_path):
    path = tmp_path / "vae.ckpt"
    save_checkpoint(path, model.arrays(), model.meta("pretrain"))
    arrays, meta = load_checkpoint(path)
    back = SeqVae.from_checkpoint(arrays, meta)
    for k in model.p:
        assert np.array_equal(model.p[k], back.p[k])
    post_a = model.encode_batch([("A", "B")])
    post_b = back.encode_batch([("A", "B")])
    assert np.array_equal(post_a.mu, post_b.mu)


def test_checkpoint_vocab_mismatch_rejected(model, tmp_path):
    meta = model.meta("pretrain")
    meta["vocab_hash"] = "0" * 16
    with pytest.raises(ArtifactIOError, match="another vocabulary"):
        SeqVae.from_checkpoint(model.arrays(), meta)


def test_checkpoint_position_table_mismatch_rejected(model):
    """A model trained with another maximum length cannot decode to MAX_LEN."""
    arrays = model.arrays()
    arrays["vae.pos_emb"] = arrays["vae.pos_emb"][:33]
    with pytest.raises(ArtifactIOError, match="'vae.pos_emb' of shape \\(33, "):
        SeqVae.from_checkpoint(arrays, model.meta("pretrain"))


def test_training_reduces_loss(tiny_dataset, rng):
    cfg = small_config(pretrain_epochs=4)
    model = SeqVae(cfg, rng.split("m"))
    hist = seqvae.train_vae(model, tiny_dataset, rng.split("t"))
    # train_loss epochs see different beta values during warmup, so compare
    # the validation ELBO, which is always evaluated at beta_max
    assert hist.val_loss[-1] < hist.val_loss[0]
    assert 0 <= hist.best_epoch < cfg.pretrain_epochs


def test_training_deterministic(tiny_dataset):
    outs = []
    for _ in range(2):
        rng = Rng(77)
        model = SeqVae(small_config(), rng.split("m"))
        seqvae.train_vae(model, tiny_dataset, rng.split("t"))
        outs.append({k: v.copy() for k, v in model.p.items()})
    for k in outs[0]:
        assert np.array_equal(outs[0][k], outs[1][k])


def test_config_validation():
    with pytest.raises(Exception):
        VaeConfig(K=0)
    with pytest.raises(ContractViolation):
        VaeConfig(beta_max=-1.0)


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_encoder_memory_stays_within_a_few_position_arrays():
    """Attention pooling never forms the (B, L, K, H) product: one 256-row
    encode peaks below 6 and one B=64 ELBO step below 16 arrays of
    (B·L, H). The broadcast pooling peaked at about 8.2 and 21.9."""
    cfg = VaeConfig(K=4, enc_hidden=128)
    vae = SeqVae(cfg, Rng(0))
    L = 14  # 13 tokens and EOS in every row
    plain = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]
    pick = Rng(1).integers(0, len(plain), (seqvae.ENCODE_CHUNK, L - 1))
    seqs = [tuple(plain[i] for i in row) for row in pick]

    def unit(rows):
        return rows * L * cfg.enc_hidden * 8

    def elbo_step():
        _, acts = vae.forward(seqs[:64], Rng(2), cfg.beta_max)
        vae.backward(acts)

    assert _traced_peak(lambda: vae.encode_batch(seqs)) < 6 * unit(len(seqs))
    assert _traced_peak(elbo_step) < 16 * unit(64)


def test_padded_elbo_memory_follows_real_positions():
    """A B=64 ELBO step on mixed lengths, with 28% of the (B, L) grid real,
    peaks below 9 arrays of (B·L, H): every per-position layer but the
    attention runs on the real positions. On the grid it peaked at 11.7,
    packed at 7.3."""
    cfg = VaeConfig(K=4, enc_hidden=128)
    vae = SeqVae(cfg, Rng(0))
    B, L = 64, 14
    plain = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]
    r = Rng(1)
    lengths = np.concatenate([[L - 1], r.split("len").integers(1, 6, B - 1)])
    pick = r.split("tok").integers(0, len(plain), (B, L - 1))
    seqs = [tuple(plain[i] for i in row[:n]) for row, n in zip(pick, lengths)]
    assert 0.25 < (lengths + 1).sum() / (B * L) < 0.3

    def elbo_step():
        _, acts = vae.forward(seqs, Rng(2), cfg.beta_max)
        vae.backward(acts)

    assert _traced_peak(elbo_step) < 9 * B * L * cfg.enc_hidden * 8


def test_validation_holds_one_batch_of_activations():
    """``evaluate_elbo`` over three 128-row batches peaks below 6 arrays of
    (128·L, H): it runs the forward alone, and drops each batch's activations
    before the next. It peaked at about 4.3; with the activations bound
    across batches at about 8.6; with a tape per batch, whose loss kept the
    previous one alive through the next, at 18.2."""
    cfg = VaeConfig(K=4, enc_hidden=128)
    vae = SeqVae(cfg, Rng(0))
    L = 14  # 13 tokens and EOS in every row
    plain = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]
    pick = Rng(1).integers(0, len(plain), (3 * 128, L - 1))
    entries = [(tuple(plain[i] for i in row), None) for row in pick]
    peak = _traced_peak(lambda: seqvae.evaluate_elbo(vae, entries, cfg.beta_max, Rng(2)))
    assert peak < 6 * 128 * L * cfg.enc_hidden * 8
