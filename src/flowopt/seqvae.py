"""Sequence VAE over toy token strings.

Encoder: token+position embeddings, a per-position feature layer, and
attention pooling with K learned queries producing K latent tokens, each
parameterizing a diagonal Gaussian posterior.

Decoder: teacher-forced, autoregressive in the previous token, conditioned
on the latent by concatenating the flattened K×d code to every position
("concat-flat-z" conditioning, recorded in checkpoint headers). The first
layer computes that concat as a split product, the token term per position
plus the latent term once per row; the parameters and the header are those
of the concat.

Both run their per-position layers only on the positions ``prepare_batch``
returns as ``valid``, 0 to len in each row (the decoder's targets: every
token and EOS), not on the padded (B, L) grid. Only the encoder's attention
scores, softmax and pooling see the grid, where pad weights are exactly 0.
So encodings are bit for bit those of the grid layers. Training losses and
gradients agree with the grid within 1e-12 but sum in another order (no pad
terms, other BLAS blocks), so trained checkpoints have other bits.

Training follows the staged protocol: ELBO pretraining with linear KL
warmup, then joint property-supervised fine-tuning where the surrogate loss
backpropagates through the encoder and reshapes the latent geometry.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import toyset
from .autodiff import Tensor
from .errors import ContractViolation, NumericFailure
from .nn import GRAD_CLIP_NORM, AdamState, clip_grad_norm, config_from_dict, optimizer_step
from .rng import Rng

LOG_SIGMA_CLAMP = (-8.0, 4.0)
ENCODE_CHUNK = 256  # rows per encode_batch pass; fixes the batch shapes, so the bits
KL_WARMUP_FRAC = 0.35  # share of pretraining over which the KL weight ramps to beta_max
FINETUNE_LR = 1e-3


@dataclass
class VaeConfig:
    K: int = 4
    d: int = 16
    embed_dim: int = 24
    enc_hidden: int = 64
    dec_hidden: int = 64
    beta_max: float = 0.1
    lr: float = 1e-3
    batch_size: int = 64
    pretrain_epochs: int = 10
    finetune_epochs: int = 6

    def __post_init__(self):
        if min(self.K, self.d, self.embed_dim, self.enc_hidden, self.dec_hidden) < 1:
            raise ContractViolation("all architecture dimensions must be >= 1")
        if self.beta_max < 0:
            raise ContractViolation("beta_max must be >= 0")


@dataclass
class PosteriorParams:
    mu: np.ndarray        # (B, K, d)
    log_sigma: np.ndarray


def mean_pool(z):
    """The pooling the surrogate consumes: mean over latent tokens.

    Both branches take the tape's rule, sum times 1/K, so they agree bit for
    bit (``np.mean`` divides by K, which differs by an ulp for some K).
    """
    if isinstance(z, Tensor):
        return z.mean(axis=-2)
    z = np.asarray(z)
    return z.sum(axis=-2) * (1.0 / z.shape[-2])


PARAM_NAMES = ("tok_emb", "pos_emb", "enc_w", "enc_b", "mu_w", "mu_b", "ls_w", "ls_b",
               "dec_w1", "dec_b1", "dec_w2", "dec_b2", "queries")


class SeqVae:
    """Parameter container plus differentiable encode/decode graphs."""

    def __init__(self, config: VaeConfig, rng: Rng):
        self.config = config
        c = config
        V = len(toyset.VOCAB)
        r = rng.split("vae-init")
        def init(shape, key, scale=None):
            s = scale if scale is not None else (2.0 / (shape[0] + shape[-1])) ** 0.5
            return Tensor(r.split(key).normal(shape) * s, requires_grad=True)

        self.p = {
            "tok_emb": init((V, c.embed_dim), "tok", 0.1),
            "pos_emb": init((toyset.MAX_LEN + 1, c.embed_dim), "pos", 0.1),
            "enc_w": init((c.embed_dim, c.enc_hidden), "encw"),
            "enc_b": Tensor(np.zeros(c.enc_hidden), requires_grad=True),
            "mu_w": init((c.enc_hidden, c.d), "muw"),
            "mu_b": Tensor(np.zeros(c.d), requires_grad=True),
            "ls_w": init((c.enc_hidden, c.d), "lsw"),
            "ls_b": Tensor(np.zeros(c.d) - 1.0, requires_grad=True),
            "dec_w1": init((c.embed_dim + c.K * c.d, c.dec_hidden), "dw1"),
            "dec_b1": Tensor(np.zeros(c.dec_hidden), requires_grad=True),
            "dec_w2": init((c.dec_hidden, V), "dw2"),
            "dec_b2": Tensor(np.zeros(V), requires_grad=True),
            "queries": init((c.K, c.enc_hidden), "attq", 0.5),
        }

    def params(self) -> list:
        return [self.p[k] for k in sorted(self.p)]

    # -- batching ---------------------------------------------------------
    def prepare_batch(self, sequences):
        """Pad to a common length L; returns (enc_ids, dec_in, dec_tgt, valid).

        ``valid`` holds the flat indices into the (B, L) grid of positions 0
        to len of each row, in row-major order: the decoder's targets, every
        token and EOS.
        """
        for s in sequences:
            for tok in s:
                if tok not in toyset.TOKEN_ID:
                    raise ContractViolation(f"unknown token {tok!r}")
        seqs = [list(s)[: toyset.MAX_LEN - 1] for s in sequences]
        L = max(len(s) for s in seqs) + 1  # room for EOS
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

    # -- graphs -----------------------------------------------------------
    def encode_graph(self, enc_ids: np.ndarray, valid: np.ndarray):
        """Posterior parameters as graph tensors: mu, log_sigma of (B, K, d).

        ``valid`` is ``prepare_batch``'s: each row's tokens and the pad cell
        after them (slot 0 of an empty row). The embeddings and the tanh
        feature layer run on those N positions only, and their rows are
        scattered into a zero (B·L, H) grid for the scores, the softmax over
        positions and the pooling. Pad cells other than slot 0 score -1e9, so
        their weights underflow to exactly 0, and the encodings are bit for
        bit those of the feature layer run on the whole grid. Two products
        keep the grid's row count, because their bits depend on it: the
        scores, and the feature layer of a one-row batch, which the pad cell
        after the tokens fills out (a one-row product takes another BLAS path).
        """
        c = self.config
        B, L = enc_ids.shape
        emb = ad.embedding(self.p["tok_emb"], enc_ids.reshape(-1)[valid])
        pos = ad.embedding(self.p["pos_emb"], valid % L)
        h_valid = ((emb + pos) @ self.p["enc_w"] + self.p["enc_b"]).tanh()  # (N, H)
        h = ad.scatter_rows(h_valid, valid, B * L)  # (B*L, H), zero outside valid
        attended = enc_ids != toyset.TOKEN_ID[toyset.PAD]
        # Fully padded rows (empty structures) still need one attended slot.
        attended[:, 0] = True
        neg = Tensor((~attended).reshape(-1, 1) * -1e9)
        h3 = h.reshape(B, L, c.enc_hidden)
        scores = (h @ self.p["queries"].transpose() + neg).reshape(B, L, c.K)
        attn = ad.softmax(scores, axis=1)  # over positions
        pooled = ad.attention_pool(attn, h3).reshape(B * c.K, c.enc_hidden)
        mu = (pooled @ self.p["mu_w"] + self.p["mu_b"]).reshape(B, c.K, c.d)
        ls = (pooled @ self.p["ls_w"] + self.p["ls_b"]).clamp(*LOG_SIGMA_CLAMP)
        return mu, ls.reshape(B, c.K, c.d)

    def decode_graph(self, dec_in: np.ndarray, valid: np.ndarray, z: Tensor):
        """Teacher-forced logits (N, V) of the N positions ``valid`` of the
        (B, L) grid ``dec_in``, in the order of ``valid``; z is (B, K, d).

        Every layer runs on those N rows only: the input token, its position
        (``valid % L``) and its row's latent term (``valid // L``) are
        gathered, and padding is never computed. The concat-flat-z layer
        ``[emb + pos | z] @ dec_w1 + dec_b1`` is computed split, as
        ``(emb + pos) @ W_e`` per position plus ``z @ W_z + dec_b1`` once per
        row, where ``W_e`` and ``W_z`` are the first ``embed_dim`` and the
        last ``K·d`` rows of ``dec_w1``. Same function and parameters; the
        sums run in another order, so the bits differ from the concat within
        1e-12.
        """
        c = self.config
        B, L = dec_in.shape
        E = c.embed_dim
        emb = ad.embedding(self.p["tok_emb"], dec_in.reshape(-1)[valid])
        pos = ad.embedding(self.p["pos_emb"], valid % L)
        w1 = self.p["dec_w1"]
        zh = z.reshape(B, c.K * c.d) @ w1.rows(E, None) + self.p["dec_b1"]  # (B, H)
        h = ((emb + pos) @ w1.rows(0, E) + ad.embedding(zh, valid // L)).tanh()  # (N, H)
        return h @ self.p["dec_w2"] + self.p["dec_b2"]  # (N, V)

    # -- public operations ------------------------------------------------
    def encode_batch(self, xs) -> PosteriorParams:
        """Deterministic posterior parameters (B, K, d) for a list of token strings.

        Encodes ``ENCODE_CHUNK`` rows at a time, each chunk padded to its own
        longest sequence. Padding and the other rows' values do not change a
        row's bits, but the chunk's row count can: the scores product
        ``h @ queries.T`` gives other last bits for a 3-row operand than for a
        4,096-row one. Fixed chunks make the batch shapes, and so the bits, a
        function of the list alone; a row encoded alone agrees within 1e-12.
        """
        if not xs:
            empty = np.zeros((0, self.config.K, self.config.d))
            return PosteriorParams(mu=empty, log_sigma=empty)
        parts = [self._encode_chunk(xs[i:i + ENCODE_CHUNK])
                 for i in range(0, len(xs), ENCODE_CHUNK)]
        return PosteriorParams(mu=np.concatenate([mu for mu, _ in parts]),
                               log_sigma=np.concatenate([ls for _, ls in parts]))

    def _encode_chunk(self, xs):
        enc, _, _, valid = self.prepare_batch(xs)
        mu, ls = self.encode_graph(enc, valid)
        return mu.data, ls.data

    def decode_greedy_batch(self, Z: np.ndarray):
        """Greedy autoregressive decoding of a (B, K, d) batch; deterministic in z.

        Runs ``decode_graph``'s split first layer on arrays: the z term once
        per batch, then ``embed_dim`` input columns per step.
        """
        c = self.config
        B, E = Z.shape[0], c.embed_dim
        pad, bos, eos = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))
        tok_emb, pos_emb = self.p["tok_emb"].data, self.p["pos_emb"].data
        w1, b1 = self.p["dec_w1"].data, self.p["dec_b1"].data
        w2, b2 = self.p["dec_w2"].data, self.p["dec_b2"].data
        w_e, zh = w1[:E], Z.reshape(B, c.K * c.d) @ w1[E:] + b1
        tokens = np.empty((B, toyset.MAX_LEN), dtype=np.int64)
        lengths = np.full(B, toyset.MAX_LEN)
        done = np.zeros(B, dtype=bool)
        prev = np.full(B, bos, dtype=np.int64)
        for pos in range(toyset.MAX_LEN):
            logits = np.tanh((tok_emb[prev] + pos_emb[pos]) @ w_e + zh) @ w2 + b2
            logits[:, pad] = -np.inf
            logits[:, bos] = -np.inf
            nxt = logits.argmax(axis=1)
            tokens[:, pos] = nxt
            ended = ~done & (nxt == eos)
            lengths[ended] = pos
            done |= ended
            if done.all():
                break
            prev = np.where(done, eos, nxt)
        return [tuple(toyset.VOCAB[t] for t in row[:n]) for row, n in zip(tokens, lengths)]

    # -- checkpointing ----------------------------------------------------
    def arrays(self) -> dict:
        return {f"vae.{k}": v.data for k, v in self.p.items()}

    def meta(self, stage: str) -> dict:
        return {
            "model_kind": "seqvae",
            "stage": stage,
            "vocab_hash": toyset.vocab_hash(),
            "conditioning": "concat-flat-z",
            "log_sigma_clamp": list(LOG_SIGMA_CLAMP),
            "config": asdict(self.config),
        }

    @classmethod
    def from_checkpoint(cls, arrays: dict, meta: dict) -> "SeqVae":
        """The model a checkpoint holds; a missing parameter raises KeyError."""
        if meta.get("vocab_hash") != toyset.vocab_hash():
            raise ContractViolation("checkpoint vocabulary does not match this build")
        model = cls.__new__(cls)
        model.config = config_from_dict(VaeConfig, meta["config"])
        model.p = {k: Tensor(arrays[f"vae.{k}"], requires_grad=True) for k in PARAM_NAMES}
        if len(model.p["pos_emb"].data) != toyset.MAX_LEN + 1:
            raise ContractViolation("checkpoint position table does not match MAX_LEN")
        return model


def reparameterize(post: PosteriorParams, rng: Rng) -> np.ndarray:
    """z = mu + exp(log_sigma) * eps with eps ~ N(0, I), a (B, K, d) array."""
    eps = rng.normal(post.mu.shape)
    return post.mu + np.exp(post.log_sigma) * eps


def kl_standard_normal(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """Closed-form KL(q || N(0, I)) summed over latent entries, mean over batch.

    Inputs are (B, K, d); always >= 0, exactly 0 iff mu=0 and log_sigma=0.
    """
    var = (log_sigma * 2.0).exp()
    per = (var + mu * mu - 1.0 - log_sigma * 2.0) * 0.5
    return per.sum(axis=2).sum(axis=1).mean()


def beta_schedule(progress: float, beta_max: float, warmup_frac: float) -> float:
    """Linear warmup of the KL weight from 0 to beta_max."""
    if warmup_frac <= 0:
        return beta_max
    return beta_max * min(1.0, progress / warmup_frac)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1


def elbo_loss(model: SeqVae, batch_seqs, rng: Rng, beta: float):
    """Negative ELBO graph for a batch: token cross-entropy + beta * KL.

    Returns (loss tensor, z tensor, components dict). Reconstruction is the
    mean token cross-entropy over the real positions under teacher forcing.
    """
    enc, dec_in, tgt, valid = model.prepare_batch(batch_seqs)
    mu, ls = model.encode_graph(enc, valid)
    eps = Tensor(rng.normal(mu.shape))
    z = mu + ls.exp() * eps
    logits = model.decode_graph(dec_in, valid, z)
    recon = ad.softmax_cross_entropy(logits, tgt.reshape(-1)[valid])
    kl = kl_standard_normal(mu, ls)
    loss = recon + beta * kl
    return loss, z, {"recon": recon.item(), "kl": kl.item()}


def _epoch_batches(n, batch_size, rng: Rng):
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def evaluate_elbo(model: SeqVae, entries, beta: float, rng: Rng) -> float:
    batch_size = 128
    total, count = 0.0, 0
    for i in range(0, len(entries), batch_size):
        batch = [e[0] for e in entries[i:i + batch_size]]
        loss, _, _ = elbo_loss(model, batch, rng.split(i), beta)
        total += loss.item() * len(batch)
        count += len(batch)
    return total / max(count, 1)


def train_vae(model: SeqVae, dataset, rng: Rng) -> TrainHistory:
    """Stage-one ELBO training; keeps the epoch with best validation loss."""
    c = model.config
    return _train_epochs(model, None, dataset, rng, lr=c.lr, epochs=c.pretrain_epochs,
                         warmup_frac=KL_WARMUP_FRAC, prefix="", stage="vae")


def finetune(model: SeqVae, surrogate, dataset, rng: Rng) -> TrainHistory:
    """Stage-two joint fine-tuning of encoder, decoder and surrogate."""
    return _train_epochs(model, surrogate, dataset, rng, lr=FINETUNE_LR,
                         epochs=model.config.finetune_epochs, warmup_frac=0.0, prefix="ft-",
                         stage="finetune")


def _train_epochs(model: SeqVae, surrogate, dataset, rng: Rng, lr, epochs, warmup_frac,
                  prefix, stage) -> TrainHistory:
    """The epoch loop of both stages; restores the epoch with best validation loss.

    Epoch ``e`` shuffles and draws its batches from ``rng.split((prefix +
    "epoch", e))`` and validates on ``rng.split((prefix + "val", e))``. With a
    surrogate, the property MSE of the mean-pooled latents is added to each
    batch's negative ELBO.
    """
    c = model.config
    train = dataset.subset("train")
    val = dataset.subset("val")
    params = model.params() + (surrogate.params() if surrogate is not None else [])
    opt = AdamState.create(params, lr=lr, weight_decay=1e-5)
    hist = TrainHistory()
    total_steps = max(1, epochs * ((len(train) + c.batch_size - 1) // c.batch_size))
    best = (np.inf, None)
    step = 0
    for epoch in range(epochs):
        erng = rng.split((prefix + "epoch", epoch))
        losses = []
        for b, idx in enumerate(_epoch_batches(len(train), c.batch_size, erng.split("order"))):
            beta = beta_schedule(step / total_steps, c.beta_max, warmup_frac)
            loss, z, _ = elbo_loss(model, [train[i][0] for i in idx], erng.split(("b", b)), beta)
            if surrogate is not None:
                y = Tensor(np.stack([train[i][1].as_array() for i in idx]))
                loss = loss + ((surrogate.predict_graph(mean_pool(z)) - y) ** 2).mean()
            grads = ad.gradients(loss, params)
            grads, _ = clip_grad_norm(grads, GRAD_CLIP_NORM)
            optimizer_step(opt, params, grads)
            losses.append(loss.item())
            step += 1
            # Drop this batch's tape before the next is built, so peak memory
            # holds one batch graph, not two; no other local refers back into it.
            del loss, z, grads
        hist.train_loss.append(float(np.mean(losses)))
        v = evaluate_elbo(model, val, c.beta_max, rng.split((prefix + "val", epoch)))
        hist.val_loss.append(v)
        if v < best[0]:
            best = (v, copy.deepcopy([p.data for p in params]))
            hist.best_epoch = epoch
    if best[1] is not None:
        for p, data in zip(params, best[1]):
            p.data = data
    if not np.isfinite(hist.train_loss[-1]):
        raise NumericFailure(f"divergent {stage} training loss", where=f"stage={stage}")
    return hist
