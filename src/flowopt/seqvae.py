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
backpropagates through the encoder and reshapes the latent geometry. Both
stages run on arrays: ``SeqVae.forward`` computes a batch's loss and
``SeqVae.backward`` pulls it back with the ops, in the order, of a tape over
that forward (the tests' ``tests/tape.py``), so the gradients have the tape's
bits without a tape. The parameters, ``SeqVae.p``, are plain arrays; a stage
trains them as views of its optimizer's buffer, which the model adopts.

Greedy decoding (``SeqVae.decode_greedy_batch``) computes each step on the
rows that have not emitted EOS, not on the whole batch. At the toy-default
widths it gives the tokens, and the logits' bits, of computing every row at
every step, because OpenBLAS gives a row of the decoder's two products the
same bits at any row count from 2 up; a one-row product (gemv) sums in another
order, so a batch never drops below two computed rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, asdict

import numpy as np

from . import toyset
from .errors import ArtifactIOError, ContractViolation, NumericFailure
from .nn import (GRAD_CLIP_NORM, AdamState, _tanh_back, clip_grad_norm, config_from_dict,
                 optimizer_step, stored_param)
from .rng import Rng

LOG_SIGMA_CLAMP = (-8.0, 4.0)
ENCODE_CHUNK = 256  # rows per encode_batch pass; fixes the batch shapes, so the bits
KL_WARMUP_FRAC = 0.35  # share of pretraining over which the KL weight ramps to beta_max
FINETUNE_LR = 1e-3
_PAD, _BOS, _EOS = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))


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
        if not (np.isfinite(self.beta_max) and self.beta_max >= 0):
            raise ContractViolation(f"vae.beta_max must be finite and >= 0, not {self.beta_max!r}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ContractViolation(f"vae.lr must be finite and > 0, not {self.lr!r}")
        for name in ("batch_size", "pretrain_epochs", "finetune_epochs"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"vae.{name} must be >= 1, not {getattr(self, name)!r}")


@dataclass
class PosteriorParams:
    mu: np.ndarray        # (B, K, d)
    log_sigma: np.ndarray


def mean_pool(z: np.ndarray) -> np.ndarray:
    """The pooling the surrogate consumes: mean over latent tokens, by the
    tape's rule, sum times 1/K (``np.mean`` divides by K, which differs by an
    ulp for some K).
    """
    z = np.asarray(z)
    return z.sum(axis=-2) * (1.0 / z.shape[-2])


def _gather_pullback(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """The pullback of the row gather ``w[idx]`` of an (n_rows, D) ``w``:
    row i of g added into row ``idx[i]``, in index order, by one bincount
    over the flat bins row * D + col."""
    width = g.shape[1]
    bins = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    return np.bincount(bins, weights=g.reshape(-1),
                       minlength=n_rows * width).reshape(n_rows, width)


# Each parameter's initializer, in ``PARAM_NAMES`` order: a bias is filled with
# its constant, any other array is a normal draw from its stream ``key`` times
# ``scale`` (None: sqrt(2 / (fan_in + fan_out))).
_INIT = {"tok_emb": ("tok", 0.1), "pos_emb": ("pos", 0.1), "enc_w": ("encw", None),
         "enc_b": 0.0, "mu_w": ("muw", None), "mu_b": 0.0, "ls_w": ("lsw", None), "ls_b": -1.0,
         "dec_w1": ("dw1", None), "dec_b1": 0.0, "dec_w2": ("dw2", None), "dec_b2": 0.0,
         "queries": ("attq", 0.5)}
PARAM_NAMES = tuple(_INIT)


def _param_shapes(c: VaeConfig) -> dict:
    """The shape of each parameter, in ``PARAM_NAMES`` order, under config ``c``."""
    V, E, H = len(toyset.VOCAB), c.embed_dim, c.enc_hidden
    return dict(zip(PARAM_NAMES, [(V, E), (toyset.MAX_LEN + 1, E), (E, H), (H,), (H, c.d),
                                  (c.d,), (H, c.d), (c.d,), (E + c.K * c.d, c.dec_hidden),
                                  (c.dec_hidden,), (c.dec_hidden, V), (V,), (c.K, H)]))


class SeqVae:
    """Parameters plus the array forward and pullback of the training loss."""

    def __init__(self, config: VaeConfig, rng: Rng):
        self.config = config
        r = rng.split("vae-init")
        self.p = {}
        for name, shape in _param_shapes(config).items():
            init = _INIT[name]
            if isinstance(init, float):
                self.p[name] = np.full(shape, init)
            else:
                key, scale = init
                scale = scale or (2.0 / (shape[0] + shape[-1])) ** 0.5
                self.p[name] = r.split(key).normal(shape) * scale

    def params(self) -> list:
        return [self.p[k] for k in sorted(self.p)]

    def adopt(self, arrays) -> None:
        """Take ``arrays``, in ``params()`` order, as the parameters."""
        self.p.update(zip(sorted(self.p), arrays))

    # -- batching ---------------------------------------------------------
    def prepare_batch(self, sequences):
        """Pad to a common length L; returns (enc_ids, dec_in, dec_tgt, valid).

        Rows keep their first ``MAX_LEN - 1`` tokens; an unknown token
        anywhere raises ContractViolation. ``valid`` holds the flat indices
        into the (B, L) grid of positions 0 to len of each row, in row-major
        order: the decoder's targets, every token and EOS.
        """
        full = [len(s) for s in sequences]
        flat = itertools.chain.from_iterable(sequences)
        try:
            ids = np.fromiter(map(toyset.TOKEN_ID.__getitem__, flat), np.int64, sum(full))
        except KeyError as e:
            raise ContractViolation(f"unknown token {e.args[0]!r}") from None
        lengths = np.array(full, dtype=np.int64)
        longest = max(full)
        if longest > toyset.MAX_LEN - 1:  # keep each row's first MAX_LEN - 1 tokens
            in_row = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            ids = ids[in_row < toyset.MAX_LEN - 1]
            lengths = np.minimum(lengths, toyset.MAX_LEN - 1)
            longest = toyset.MAX_LEN - 1
        cols = np.arange(longest + 1)  # room for EOS
        # The cells that hold a token, and those plus each row's EOS cell.
        tokens, valid = cols < lengths[:, None], cols <= lengths[:, None]
        enc = np.full(tokens.shape, _PAD, dtype=np.int64)
        enc[tokens] = ids
        dec_in = np.empty_like(enc)  # BOS, then the tokens shifted one cell right
        dec_in[:, 0] = _BOS
        dec_in[:, 1:] = enc[:, :-1]
        tgt = enc.copy()
        tgt[tokens ^ valid] = _EOS
        return enc, dec_in, tgt, valid.ravel().nonzero()[0]

    # -- array forward and pullback -----------------------------------------
    def _encode(self, enc_ids: np.ndarray, valid: np.ndarray) -> dict:
        """The encoder's forward: the posterior's ``mu`` and ``ls`` (B, K, d)
        and the activations ``backward`` pulls back through.

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
        c, p = self.config, self.p
        B, L = enc_ids.shape
        H = c.enc_hidden
        a = {"valid": valid, "tok_ids": enc_ids.reshape(-1)[valid], "pos_ids": valid % L}
        a["x"] = x = p["tok_emb"][a["tok_ids"]] + p["pos_emb"][a["pos_ids"]]  # (N, E)
        a["hv"] = hv = np.tanh(x @ p["enc_w"] + p["enc_b"])  # (N, H)
        a["h"] = h = np.zeros((B * L, H))  # zero outside valid
        h[valid] = hv
        attended = enc_ids != toyset.TOKEN_ID[toyset.PAD]
        # Fully padded rows (empty structures) still need one attended slot.
        attended[:, 0] = True
        scores = (h @ p["queries"].T + (~attended).reshape(-1, 1) * -1e9).reshape(B, L, c.K)
        a["e"] = e = np.exp(scores - scores.max(axis=1, keepdims=True))  # softmax over positions
        a["s"] = s = e.sum(axis=1, keepdims=True)
        a["attn"] = attn = e / s
        a["pooled"] = pooled = np.matmul(attn.transpose(0, 2, 1),
                                         h.reshape(B, L, H)).reshape(B * c.K, H)
        a["mu"] = (pooled @ p["mu_w"] + p["mu_b"]).reshape(B, c.K, c.d)
        pre = pooled @ p["ls_w"] + p["ls_b"]
        a["inside"] = (pre >= LOG_SIGMA_CLAMP[0]) & (pre <= LOG_SIGMA_CLAMP[1])
        a["ls"] = np.clip(pre, *LOG_SIGMA_CLAMP).reshape(B, c.K, c.d)
        return a

    def forward(self, batch_seqs, rng: Rng, beta: float, surrogate=None, y=None) -> tuple:
        """The negative ELBO of a batch: the mean token cross-entropy over the
        real positions under teacher forcing, plus ``beta`` times the KL of the
        posterior from N(0, I), mean over the batch. With a ``surrogate``, plus
        the MSE of its predictions on ``mean_pool(z)`` against the (B, 2)
        properties ``y``. Here ``z = mu + exp(ls) * eps``, eps drawn from ``rng``.

        Returns the float loss and the activations ``backward`` takes.

        The decoder runs on the N positions ``valid`` only: the input token,
        its position (``valid % L``) and its row's latent term (``valid // L``)
        are gathered, and padding is never computed. The concat-flat-z layer
        ``[emb + pos | z] @ dec_w1 + dec_b1`` is computed split, as
        ``(emb + pos) @ W_e`` per position plus ``z @ W_z + dec_b1`` once per
        row, where ``W_e`` and ``W_z`` are the first ``embed_dim`` and the last
        ``K·d`` rows of ``dec_w1``. Same function and parameters; the sums run
        in another order, so the bits differ from the concat within 1e-12.
        """
        c, p = self.config, self.p
        enc, dec_in, tgt, valid = self.prepare_batch(batch_seqs)
        B, L = dec_in.shape
        E = c.embed_dim
        a = self._encode(enc, valid)
        mu, ls = a["mu"], a["ls"]
        a["eps"] = eps = rng.normal(mu.shape)
        a["sigma"] = sigma = np.exp(ls)
        z = mu + sigma * eps
        w1 = p["dec_w1"]
        a["dec_ids"], a["row_ids"] = dec_in.reshape(-1)[valid], valid // L
        a["xd"] = xd = p["tok_emb"][a["dec_ids"]] + p["pos_emb"][a["pos_ids"]]  # (N, E)
        a["zf"] = zf = z.reshape(B, c.K * c.d)
        zh = zf @ w1[E:] + p["dec_b1"]  # (B, H)
        a["hd"] = hd = np.tanh(xd @ w1[:E] + zh[a["row_ids"]])  # (N, H)
        logits = hd @ p["dec_w2"] + p["dec_b2"]  # (N, V)
        n = len(valid)
        a["tgt"] = tgt.reshape(-1)[valid]
        a["shifted"] = shifted = logits - logits.max(axis=1, keepdims=True)
        a["lse"] = lse = np.log(np.exp(shifted).sum(axis=1))
        recon = (lse - shifted[np.arange(n), a["tgt"]]).sum() / n
        a["var"] = var = np.exp(ls * 2.0)
        kl = ((var + mu * mu - 1.0 - ls * 2.0) * 0.5).sum(axis=2).sum(axis=1).sum() * (1.0 / B)
        loss = recon + kl * beta
        a["beta"], a["pullback"] = beta, None
        if surrogate is not None:
            pred, a["pullback"] = surrogate.predict_vjp(mean_pool(z))
            a["diff"] = diff = pred - y
            loss = loss + (diff ** 2.0).sum() * (1.0 / diff.size)
        return float(loss), a

    def backward(self, a: dict) -> list:
        """Gradients of ``forward``'s loss for ``params()``, followed, when the
        forward had a surrogate, by those for its ``params()``.

        Each step is the pullback a tape over ``forward`` would take, in the
        tape's order, so the gradients have the tape's bits. The order of
        adding matters where a value has several consumers: ``ls`` takes the
        KL's two shares and then the reparameterization's; ``mu`` the KL
        square's two and then z's; ``tok_emb`` and ``pos_emb`` the decoder's
        and then the encoder's; ``z`` the pooled surrogate input's and then the
        decoder's; the grid ``h`` the scores' and then the pooling's; the
        softmax's ``e`` the quotient's and then the sum's; and the two row
        blocks of ``dec_w1`` each add into zeros.
        """
        c, p = self.config, self.p
        B, K, d = a["mu"].shape
        L, H = len(a["h"]) // B, c.enc_hidden
        E, n = c.embed_dim, len(a["tgt"])
        grads, g_z, sur_grads = {}, None, []
        if a["pullback"] is not None:  # the MSE, the surrogate, then mean pooling
            g_pooled, *sur_grads = a["pullback"](1.0 / a["diff"].size * 2.0 * a["diff"])
            g_z = np.broadcast_to((g_pooled * (1.0 / K))[:, None, :], (B, K, d)).copy()
        # The cross-entropy and the decoder.
        g = np.exp(a["shifted"] - a["lse"][:, None])
        g[np.arange(n), a["tgt"]] -= 1.0
        g *= 1.0 / n
        hd, w1 = a["hd"], p["dec_w1"]
        grads["dec_b2"] = g.sum(axis=0)
        grads["dec_w2"] = hd.T @ g
        g = _tanh_back(g @ p["dec_w2"].T, hd)
        g_zh = _gather_pullback(g, a["row_ids"], B)
        grads["dec_w1"] = np.zeros_like(w1)
        grads["dec_w1"][:E] += a["xd"].T @ g
        g_x = g @ w1[:E].T
        grads["dec_b1"] = g_zh.sum(axis=0)
        grads["dec_w1"][E:] += a["zf"].T @ g_zh
        g_zd = (g_zh @ w1[E:].T).reshape(B, K, d)
        g_z = g_zd if g_z is None else g_z + g_zd
        grads["pos_emb"] = _gather_pullback(g_x, a["pos_ids"], len(p["pos_emb"]))
        grads["tok_emb"] = _gather_pullback(g_x, a["dec_ids"], len(p["tok_emb"]))
        # The KL's shares (mu * mu's two; -ls * 2's, then exp(ls * 2)'s), then
        # those of z = mu + exp(ls) * eps.
        mu, g_kl = a["mu"], a["beta"] * (1.0 / B) * 0.5  # each KL term's gradient
        g_mu = g_kl * mu + g_kl * mu + g_z
        g_ls = -g_kl * 2.0 + g_kl * a["var"] * 2.0 + g_z * a["eps"] * a["sigma"]
        # The posterior heads, the attention pooling, the softmax and the scores.
        pooled, h, e, s = a["pooled"], a["h"], a["e"], a["s"]
        g_ls = g_ls.reshape(B * K, d) * a["inside"]
        grads["ls_b"] = g_ls.sum(axis=0)
        grads["ls_w"] = pooled.T @ g_ls
        g_mu = g_mu.reshape(B * K, d)
        grads["mu_b"] = g_mu.sum(axis=0)
        grads["mu_w"] = pooled.T @ g_mu
        g = (g_ls @ p["ls_w"].T + g_mu @ p["mu_w"].T).reshape(B, K, H)
        g_attn = np.matmul(h.reshape(B, L, H), g.transpose(0, 2, 1))
        g_h = np.matmul(a["attn"], g).reshape(B * L, H)
        g_s = (-g_attn * e / s ** 2).sum(axis=1, keepdims=True)
        g = ((g_attn / s + g_s) * e).reshape(B * L, K)
        grads["queries"] = (h.T @ g).T
        # The feature layer and the embeddings, on the valid positions.
        valid = a["valid"]
        g = _tanh_back(g[valid] @ p["queries"] + g_h[valid], a["hv"])
        grads["enc_b"] = g.sum(axis=0)
        grads["enc_w"] = a["x"].T @ g
        g_x = g @ p["enc_w"].T
        grads["pos_emb"] += _gather_pullback(g_x, a["pos_ids"], len(p["pos_emb"]))
        grads["tok_emb"] += _gather_pullback(g_x, a["tok_ids"], len(p["tok_emb"]))
        return [grads[k] for k in sorted(self.p)] + sur_grads

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
        a = self._encode(enc, valid)
        return a["mu"], a["ls"]

    def decode_greedy_batch(self, Z: np.ndarray):
        """Greedy autoregressive decoding of a (B, K, d) batch; deterministic in z.

        Runs ``forward``'s split first layer: the z term once per batch, then
        ``embed_dim`` input columns per step. Each step computes only the rows
        still decoding, the ones that have not emitted EOS. A finished row's
        logits are never read, and dropping it leaves the other rows' bits:
        OpenBLAS (0.3.31, Haswell kernels, 1 or 2 threads) sums each row of
        the decoder's two products, ``(B, embed_dim) @ (embed_dim, H)`` and
        ``(B, H) @ (H, V)``, in the same order for any row count from 2 up.
        That was checked for every row count from 2 to 512, and for random row
        subsets, at the toy-default (32 -> 192 -> 32) and small-test
        (8 -> 16 -> 32) widths; it does not hold for every width (output
        widths of 1 to 3 mod 8 differ, for one). A one-row product goes to
        gemv, which sums in another order, so while B >= 2 a finished row
        rides along once a single row is left. A B = 1 decode takes gemv at
        every step, as it always did.
        """
        c = self.config
        B, E = Z.shape[0], c.embed_dim
        tok_emb, pos_emb = self.p["tok_emb"], self.p["pos_emb"]
        w1, b1, w2 = self.p["dec_w1"], self.p["dec_b1"], self.p["dec_w2"]
        # The output bias with -inf at pad and bos, which are never emitted: a
        # finite logit plus -inf is -inf, and every other column keeps its bits.
        b2 = self.p["dec_b2"].copy()
        b2[[_PAD, _BOS]] = -np.inf
        w_e, zh = w1[:E], Z.reshape(B, c.K * c.d) @ w1[E:] + b1
        tokens = np.empty((B, toyset.MAX_LEN), dtype=np.int64)
        lengths = np.full(B, toyset.MAX_LEN)
        # The rows computed at a step: the ``live`` ones still decoding, then a rider.
        rows, live = np.arange(B), B
        prev = np.full(B, _BOS, dtype=np.int64)
        for pos in range(toyset.MAX_LEN):
            if not live:
                break
            h = (tok_emb[prev] + pos_emb[pos]) @ w_e
            h += zh
            logits = np.tanh(h, out=h) @ w2
            logits += b2
            prev = logits.argmax(axis=1)
            tokens[rows, pos] = prev  # a rider's token lies past its length
            ended = prev[:live] == _EOS
            n_ended = np.count_nonzero(ended)
            if n_ended:
                lengths[rows[:live][ended]] = pos
                finished = np.ones(len(rows), dtype=bool)
                finished[:live] = ended
                live -= n_ended
                keep = np.argsort(finished, kind="stable")[:max(live, 2)]
                rows, prev, zh = rows[keep], prev[keep], zh[keep]
        vocab = toyset.VOCAB
        return [tuple([vocab[t] for t in row[:n]]) for row, n in zip(tokens.tolist(), lengths)]

    # -- checkpointing ----------------------------------------------------
    def arrays(self) -> dict:
        return {f"vae.{k}": v for k, v in self.p.items()}

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
        """The model a checkpoint holds, checked by ``nn.stored_param``
        against the shapes its config gives (so a position table of another
        length than MAX_LEN + 1 is refused). A checkpoint written for another
        vocabulary raises ArtifactIOError; the caller names the file."""
        if meta.get("vocab_hash") != toyset.vocab_hash():
            raise ArtifactIOError("was written for another vocabulary than this build's")
        model = cls.__new__(cls)
        model.config = config_from_dict(VaeConfig, meta["config"])
        model.p = {k: stored_param(arrays, f"vae.{k}", shape)
                   for k, shape in _param_shapes(model.config).items()}
        return model


def reparameterize(post: PosteriorParams, rng: Rng) -> np.ndarray:
    """z = mu + exp(log_sigma) * eps with eps ~ N(0, I), a (B, K, d) array."""
    eps = rng.normal(post.mu.shape)
    return post.mu + np.exp(post.log_sigma) * eps


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


def _epoch_batches(n, batch_size, rng: Rng):
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def evaluate_elbo(model: SeqVae, entries, beta: float, rng: Rng) -> float:
    """Mean negative ELBO over ``entries`` in batches of 128, forward only;
    batch ``i`` draws its noise from ``rng.split(i)``."""
    batch_size = 128
    total, count = 0.0, 0
    for i in range(0, len(entries), batch_size):
        batch = [e[0] for e in entries[i:i + batch_size]]
        # Index the loss out: binding the activations would keep them alive
        # through the next batch's forward.
        total += model.forward(batch, rng.split(i), beta)[0] * len(batch)
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
    batch's negative ELBO. A non-finite batch loss raises NumericFailure.
    """
    c = model.config
    train = dataset.subset("train")
    val = dataset.subset("val")
    opt = AdamState.create(model.params() + (surrogate.params() if surrogate is not None else []),
                           lr=lr, weight_decay=1e-5)
    model.adopt(opt.views[:len(model.p)])
    if surrogate is not None:
        surrogate.net.adopt(opt.views[len(model.p):])
    hist = TrainHistory()
    total_steps = max(1, epochs * ((len(train) + c.batch_size - 1) // c.batch_size))
    best = (np.inf, None)
    step = 0
    for epoch in range(epochs):
        erng = rng.split((prefix + "epoch", epoch))
        losses = []
        for b, idx in enumerate(_epoch_batches(len(train), c.batch_size, erng.split("order"))):
            beta = beta_schedule(step / total_steps, c.beta_max, warmup_frac)
            y = np.stack([train[i][1].as_array() for i in idx]) if surrogate is not None else None
            loss, acts = model.forward([train[i][0] for i in idx], erng.split(("b", b)), beta,
                                       surrogate, y)
            if not np.isfinite(loss):
                raise NumericFailure(f"non-finite {stage} training loss", where=f"stage={stage}")
            grads, _ = clip_grad_norm(model.backward(acts), GRAD_CLIP_NORM)
            optimizer_step(opt, grads)
            losses.append(loss)
            step += 1
            # Drop this batch's activations before the next forward, so peak
            # memory holds one batch's, not two.
            del acts, grads
        hist.train_loss.append(float(np.mean(losses)))
        v = evaluate_elbo(model, val, c.beta_max, rng.split((prefix + "val", epoch)))
        hist.val_loss.append(v)
        if v < best[0]:
            best = (v, opt.param.copy())
            hist.best_epoch = epoch
    if best[1] is not None:
        opt.param[...] = best[1]  # into the parameters' views
    return hist
