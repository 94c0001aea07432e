"""Sequence VAE over toy token strings.

Encoder: token+position embeddings, a per-position feature layer, and
attention pooling with K learned queries producing K latent tokens, each
parameterizing a diagonal Gaussian posterior.

Decoder: teacher-forced, autoregressive in the previous token, conditioned
on the latent by concatenating the flattened K×d code to every position
("concat-flat-z" conditioning, recorded in checkpoint headers).

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
from .nn import AdamState, clip_grad_norm, config_from_dict, optimizer_step
from .rng import Rng

LOG_SIGMA_CLAMP = (-8.0, 4.0)


@dataclass
class VaeConfig:
    K: int = 4
    d: int = 16
    embed_dim: int = 24
    enc_hidden: int = 64
    dec_hidden: int = 64
    beta_max: float = 0.1
    kl_warmup_frac: float = 0.35
    lambda_prop: float = 1.0
    lr: float = 1e-3
    finetune_lr: float = 1e-3
    batch_size: int = 64
    pretrain_epochs: int = 10
    finetune_epochs: int = 6
    clip_norm: float = 5.0
    max_len: int = toyset.MAX_LEN

    def __post_init__(self):
        if min(self.K, self.d, self.embed_dim, self.enc_hidden, self.dec_hidden) < 1:
            raise ContractViolation("all architecture dimensions must be >= 1")
        if self.beta_max < 0 or not (0.0 <= self.kl_warmup_frac <= 1.0):
            raise ContractViolation("beta_max >= 0 and warmup fraction in [0,1] required")
        if self.lambda_prop < 0:
            raise ContractViolation("lambda_prop must be >= 0")


@dataclass
class PosteriorParams:
    mu: np.ndarray        # (B, K, d)
    log_sigma: np.ndarray


@dataclass
class LatentState:
    """A (B, K, d) batch of latent tokens plus flow time."""

    z: np.ndarray
    t: float


def mean_pool(z):
    """The pooling the surrogate consumes: mean over latent tokens."""
    if isinstance(z, Tensor):
        return z.mean(axis=-2)
    return np.asarray(z).mean(axis=-2)


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
            "pos_emb": init((c.max_len + 1, c.embed_dim), "pos", 0.1),
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
        """Pad to a common length; returns (enc_ids, dec_in, dec_tgt, mask)."""
        c = self.config
        for s in sequences:
            for tok in s:
                if tok not in toyset.TOKEN_ID:
                    raise ContractViolation(f"unknown token {tok!r}")
        seqs = [list(s)[: c.max_len - 1] for s in sequences]
        L = max(len(s) for s in seqs) + 1  # room for EOS
        pad, bos, eos = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))
        enc = np.full((len(seqs), L), pad, dtype=np.int64)
        dec_in = np.full((len(seqs), L), pad, dtype=np.int64)
        tgt = np.full((len(seqs), L), pad, dtype=np.int64)
        mask = np.zeros((len(seqs), L))
        for i, s in enumerate(seqs):
            ids = [toyset.TOKEN_ID[t] for t in s]
            enc[i, : len(ids)] = ids
            dec_in[i, 0] = bos
            dec_in[i, 1 : len(ids) + 1] = ids
            tgt[i, : len(ids)] = ids
            tgt[i, len(ids)] = eos
            mask[i, : len(ids) + 1] = 1.0
        return enc, dec_in, tgt, mask

    # -- graphs -----------------------------------------------------------
    def encode_graph(self, enc_ids: np.ndarray):
        """Posterior parameters as graph tensors: mu, log_sigma of (B, K, d)."""
        c = self.config
        B, L = enc_ids.shape
        emb = ad.embedding(self.p["tok_emb"], enc_ids.reshape(-1))
        pos = ad.embedding(self.p["pos_emb"], np.tile(np.arange(L), B))
        h = ((emb + pos) @ self.p["enc_w"] + self.p["enc_b"]).tanh()  # (B*L, H)
        pad_mask = (enc_ids != toyset.TOKEN_ID[toyset.PAD]).astype(np.float64)
        # Fully padded rows (empty structures) still need one attended slot.
        pad_mask[:, 0] = 1.0
        neg = Tensor((1.0 - pad_mask.reshape(-1, 1)) * -1e9)
        h3 = h.reshape(B, L, c.enc_hidden)
        scores = (h @ self.p["queries"].transpose() + neg).reshape(B, L, c.K)
        attn = ad.softmax(scores, axis=1)  # over positions
        # (B, L, K) x (B, L, H) -> (B, K, H)
        pooled = (attn.reshape(B, L, c.K, 1) * h3.reshape(B, L, 1, c.enc_hidden)).sum(axis=1)
        pooled = pooled.reshape(B * c.K, c.enc_hidden)
        mu = (pooled @ self.p["mu_w"] + self.p["mu_b"]).reshape(B, c.K, c.d)
        ls = (pooled @ self.p["ls_w"] + self.p["ls_b"]).clamp(*LOG_SIGMA_CLAMP)
        return mu, ls.reshape(B, c.K, c.d)

    def decode_graph(self, dec_in: np.ndarray, z: Tensor):
        """Teacher-forced logits for every position; z is (B, K, d)."""
        c = self.config
        B, L = dec_in.shape
        emb = ad.embedding(self.p["tok_emb"], dec_in.reshape(-1))
        pos = ad.embedding(self.p["pos_emb"], np.tile(np.arange(L), B))
        zf = z.reshape(B, 1, c.K * c.d) * Tensor(np.ones((1, L, 1)))
        x = ad.concat([(emb + pos).reshape(B, L, c.embed_dim), zf], axis=2)
        h = (x.reshape(B * L, c.embed_dim + c.K * c.d) @ self.p["dec_w1"] + self.p["dec_b1"]).tanh()
        return h @ self.p["dec_w2"] + self.p["dec_b2"]  # (B*L, V)

    # -- public operations ------------------------------------------------
    def encode_batch(self, xs) -> PosteriorParams:
        """Deterministic posterior parameters (B, K, d) for a list of token strings."""
        enc, _, _, _ = self.prepare_batch(xs)
        mu, ls = self.encode_graph(enc)
        return PosteriorParams(mu=mu.data, log_sigma=ls.data)

    def decode_greedy_batch(self, Z: np.ndarray):
        """Greedy autoregressive decoding of a (B, K, d) batch; deterministic in z."""
        c = self.config
        B = Z.shape[0]
        zf = Z.reshape(B, c.K * c.d)
        pad, bos, eos = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))
        prev = np.full(B, bos, dtype=np.int64)
        done = np.zeros(B, dtype=bool)
        out = [[] for _ in range(B)]
        tok_emb, pos_emb = self.p["tok_emb"].data, self.p["pos_emb"].data
        w1, b1 = self.p["dec_w1"].data, self.p["dec_b1"].data
        w2, b2 = self.p["dec_w2"].data, self.p["dec_b2"].data
        for pos in range(c.max_len):
            x = np.concatenate([tok_emb[prev] + pos_emb[pos], zf], axis=1)
            logits = np.tanh(x @ w1 + b1) @ w2 + b2
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
        return model


def reparameterize(post: PosteriorParams, rng: Rng) -> LatentState:
    """z = mu + exp(log_sigma) * eps with eps ~ N(0, I); returns t=1 state."""
    eps = rng.normal(post.mu.shape)
    return LatentState(z=post.mu + np.exp(post.log_sigma) * eps, t=1.0)


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
    masked mean token cross-entropy under teacher forcing.
    """
    enc, dec_in, tgt, mask = model.prepare_batch(batch_seqs)
    mu, ls = model.encode_graph(enc)
    eps = Tensor(rng.normal(mu.shape))
    z = mu + ls.exp() * eps
    logits = model.decode_graph(dec_in, z)
    recon = ad.softmax_cross_entropy(logits, tgt.reshape(-1), mask.reshape(-1))
    kl = kl_standard_normal(mu, ls)
    loss = recon + beta * kl
    return loss, z, {"recon": recon.item(), "kl": kl.item()}


def _epoch_batches(n, batch_size, rng: Rng):
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def evaluate_elbo(model: SeqVae, entries, beta: float, rng: Rng, batch_size=128) -> float:
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
                         warmup_frac=c.kl_warmup_frac, prefix="", stage="vae")


def finetune(model: SeqVae, surrogate, dataset, rng: Rng) -> TrainHistory:
    """Stage-two joint fine-tuning (encoder+decoder+surrogate, lam weighting).

    With ``lambda_prop == 0`` the surrogate branch is skipped and the updates
    are the pure-VAE ones at full KL weight.
    """
    c = model.config
    return _train_epochs(model, surrogate, dataset, rng, lr=c.finetune_lr,
                         epochs=c.finetune_epochs, warmup_frac=0.0, prefix="ft-",
                         stage="finetune")


def _train_epochs(model: SeqVae, surrogate, dataset, rng: Rng, lr, epochs, warmup_frac,
                  prefix, stage) -> TrainHistory:
    """The epoch loop of both stages; restores the epoch with best validation loss.

    Epoch ``e`` shuffles and draws its batches from ``rng.split((prefix +
    "epoch", e))`` and validates on ``rng.split((prefix + "val", e))``. With a
    surrogate, the property MSE of the mean-pooled latents, weighted by
    ``lambda_prop``, is added to each batch's negative ELBO.
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
            if surrogate is not None and c.lambda_prop > 0:
                y = Tensor(np.stack([train[i][1].as_array() for i in idx]))
                loss = loss + c.lambda_prop * (
                    (surrogate.predict_graph(mean_pool(z)) - y) ** 2).mean()
            grads = ad.gradients(loss, params)
            grads, _ = clip_grad_norm(grads, c.clip_norm)
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
