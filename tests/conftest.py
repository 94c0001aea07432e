import copy

import numpy as np
import pytest

from flowopt import toyset
from flowopt.flowmatch import interpolate
from flowopt.guidance import (CLIP_NORM, GuidanceConfig, ObjectiveSpec, guided_integrate,
                              objective_value)
from flowopt.nn import Mlp, time_embed
from flowopt.rng import Rng
from flowopt.seqvae import LOG_SIGMA_CLAMP, SeqVae
from flowopt.surrogate import _LO, _SPAN

import tape as ad
from tape import Tensor


@pytest.fixture
def rng():
    return Rng(1234)


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def loop_postprocess(g, normalize):
    """The per-row loop the integrator's row-wise post-processing replaced:
    normalize each row, or clip a raw row to ``CLIP_NORM``. Normalizing has
    its documented rescale: a row whose norm is below 2**-500 is first
    multiplied by 2**600, exactly, so its squares do not underflow."""
    g = g.copy()
    for b in range(len(g)):
        norm = np.linalg.norm(g[b])
        if normalize:
            if norm < 2.0 ** -500:
                g[b] = g[b] * 2.0 ** 600
                norm = np.linalg.norm(g[b])
            if norm > 0:
                g[b] = g[b] / norm
        elif norm > CLIP_NORM:
            g[b] = g[b] * (CLIP_NORM / norm)
    return g


class FixedGradient:
    """A surrogate stub that predicts zeros and whose pullback gives the same
    (B, n) rows whatever the objective: with one latent token (K = 1) the
    objective gradient is exactly those rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def predict(self, x):
        return np.zeros((len(x), 2))

    def predict_vjp(self, x, wrt_params=True):
        return self.predict(x), lambda g: (self.rows.copy(),)


class ZeroField:
    def velocity(self, z, t):
        return np.zeros_like(z)


def guided_rows(rows, normalize):
    """The post-processed rows ``guided_integrate`` steps along when the
    objective gradient is the (B, n) ``rows``: one Euler step of length 1 with
    gamma 1 from z = 0 on a zero field ends at exactly minus them."""
    cfg = GuidanceConfig(gamma=1.0, sigma=0.0, steps=1, t_start=0.0, normalize_gradient=normalize)
    rows = np.asarray(rows, dtype=np.float64)
    _, z = guided_integrate(ZeroField(), FixedGradient(rows), ObjectiveSpec(mode="directional"),
                            cfg, np.zeros((len(rows), 1, rows.shape[1])))
    return -z[:, 0]


def all_rows_decode_greedy(vae, Z):
    """The greedy decoder that computes every row at every step: the split
    first layer, as ``SeqVae.decode_greedy_batch``, but finished rows keep
    decoding (fed EOS) until all rows have emitted it."""
    c = vae.config
    B, E = Z.shape[0], c.embed_dim
    pad, bos, eos = (toyset.TOKEN_ID[t] for t in (toyset.PAD, toyset.BOS, toyset.EOS))
    tok_emb, pos_emb = vae.p["tok_emb"], vae.p["pos_emb"]
    w1, b1 = vae.p["dec_w1"], vae.p["dec_b1"]
    w2, b2 = vae.p["dec_w2"], vae.p["dec_b2"]
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


def _leaf(p) -> Tensor:
    return p if isinstance(p, Tensor) else Tensor(p, requires_grad=True)


def on_tape(model):
    """A shallow copy of an ``Mlp``, ``Surrogate``, ``FlowField`` or ``SeqVae``
    whose parameters are trainable tape leaves on the model's own arrays; a
    parameter that is already a leaf is kept, so lifting a lifted model gives
    the same leaves. A test that takes parameter gradients lifts once and
    asks for those of ``lifted.params()``."""
    lifted = copy.copy(model)
    if isinstance(model, Mlp):
        lifted.weights = [_leaf(w) for w in model.weights]
        lifted.biases = [_leaf(b) for b in model.biases]
    elif isinstance(model, SeqVae):
        lifted.p = {k: _leaf(p) for k, p in model.p.items()}
    else:
        lifted.net = on_tape(model.net)
    return lifted


def tape_mlp(mlp, x: Tensor) -> Tensor:
    """``mlp`` on the tape layer by layer, from primitive ``Tensor`` ops: the
    independent reference ``Mlp.forward`` and ``Mlp.backward`` must equal."""
    mlp = on_tape(mlp)
    act = {"tanh": Tensor.tanh, "relu": Tensor.relu, "sigmoid": Tensor.sigmoid}[mlp.activation]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = x @ w + b
        if i < len(mlp.weights) - 1:
            x = act(x)
    return x


def mlp_node(mlp, x: Tensor) -> Tensor:
    """``mlp`` as one tape node whose value is ``Mlp.forward``'s output and
    whose pullback is ``Mlp.backward``: array code differentiated on the tape.
    Both run on an array ``Mlp`` over the leaves' arrays, and the leaves of
    ``on_tape(mlp)`` are the node's parents."""
    lifted = on_tape(mlp)
    net = copy.copy(lifted)
    net.adopt([p.data for p in lifted.params()])
    acts = net.forward(x.data)
    return Tensor(acts[-1], _parents=(x, *lifted.params()), op="mlp",
                  _backward=lambda g: net.backward(acts, g, wrt_input=x.requires_grad))


def tape_mean_pool(z: Tensor) -> Tensor:
    """Mean over latent tokens on the tape: sum times 1/K."""
    return z.mean(axis=-2)


def tape_velocity(field, z, t) -> Tensor:
    """The (B, K*d) velocity of B latents at times t (B,) or one time: the
    reference net on the concatenated input, each flat latent and then its
    time's embedding, computed for a vector of per-row times."""
    B = len(z)
    rows = time_embed(np.broadcast_to(np.asarray(t, dtype=np.float64), (B,)),
                      field.config.time_embed_dim)
    return tape_mlp(field.net, ad.concat([Tensor(np.reshape(z, (B, -1))), Tensor(rows)], axis=1))


def tape_fm_loss(field, z0, z1, t):
    """The flow-matching loss as a tape over the reference net, and the
    gradients ``tape.gradients`` takes of it for ``field.params()``."""
    field = on_tape(field)
    zt, target = interpolate(z0, z1, t)
    diff = tape_velocity(field, zt, t) - Tensor(target.reshape(len(z0), -1))
    loss = (diff ** 2).sum(axis=1).mean()
    return loss.item(), ad.gradients(loss, field.params())


def tape_predict(surrogate, pooled: Tensor) -> Tensor:
    """The surrogate's bounded predictions over the reference net."""
    return tape_mlp(surrogate.net, pooled).sigmoid() * Tensor(_SPAN) + Tensor(_LO)


def tape_objective_gradient(spec, surrogate, z):
    """J (B,) and the raw (B, K, d) latent gradient from a tape over J summed
    over rows over the reference net: the reference the array path of
    ``guidance.objective_gradient`` must equal."""
    zt = Tensor(z, requires_grad=True)
    pred = tape_predict(surrogate, tape_mean_pool(zt))
    if spec.mode == "target":
        diff = pred - Tensor(np.asarray(spec.targets))
        total = (Tensor(np.asarray(spec.weights)) * diff * diff).sum()
    else:
        total = -(Tensor(np.asarray(toyset.PROPERTY_SIGNS, dtype=np.float64)) * pred).sum()
    (g,) = ad.gradients(total, [zt])
    return np.atleast_1d(objective_value(spec, pred.data)), g


# -- the VAE on the tape ------------------------------------------------------
#
# The graphs ``SeqVae.forward``/``backward`` replaced, built from primitive
# ``Tensor`` ops: the reference their loss and gradients must equal.

def tape_encode(vae, enc_ids, valid) -> tuple:
    """Posterior ``mu``, ``ls`` (B, K, d) as tape tensors: the packed feature
    layer on the ``valid`` positions, scattered into the zero grid for the
    scores, the softmax over positions and the attention pooling."""
    vae = on_tape(vae)
    c = vae.config
    B, L = enc_ids.shape
    emb = ad.embedding(vae.p["tok_emb"], enc_ids.reshape(-1)[valid])
    pos = ad.embedding(vae.p["pos_emb"], valid % L)
    h_valid = ((emb + pos) @ vae.p["enc_w"] + vae.p["enc_b"]).tanh()
    h = ad.scatter_rows(h_valid, valid, B * L)
    attended = enc_ids != toyset.TOKEN_ID[toyset.PAD]
    attended[:, 0] = True
    neg = Tensor((~attended).reshape(-1, 1) * -1e9)
    h3 = h.reshape(B, L, c.enc_hidden)
    scores = (h @ vae.p["queries"].transpose() + neg).reshape(B, L, c.K)
    attn = ad.softmax(scores, axis=1)
    pooled = ad.attention_pool(attn, h3).reshape(B * c.K, c.enc_hidden)
    mu = (pooled @ vae.p["mu_w"] + vae.p["mu_b"]).reshape(B, c.K, c.d)
    ls = (pooled @ vae.p["ls_w"] + vae.p["ls_b"]).clamp(*LOG_SIGMA_CLAMP)
    return mu, ls.reshape(B, c.K, c.d)


def tape_decode(vae, dec_in, valid, z: Tensor) -> Tensor:
    """Teacher-forced logits (N, V) of the ``valid`` positions, with the
    concat-flat-z layer split into the token term and the per-row z term."""
    vae = on_tape(vae)
    c = vae.config
    B, L = dec_in.shape
    E = c.embed_dim
    emb = ad.embedding(vae.p["tok_emb"], dec_in.reshape(-1)[valid])
    pos = ad.embedding(vae.p["pos_emb"], valid % L)
    w1 = vae.p["dec_w1"]
    zh = z.reshape(B, c.K * c.d) @ w1.rows(E, None) + vae.p["dec_b1"]
    h = ((emb + pos) @ w1.rows(0, E) + ad.embedding(zh, valid // L)).tanh()
    return h @ vae.p["dec_w2"] + vae.p["dec_b2"]


def tape_kl(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """Closed-form KL(q || N(0, I)) summed over latent entries, mean over batch."""
    var = (log_sigma * 2.0).exp()
    per = (var + mu * mu - 1.0 - log_sigma * 2.0) * 0.5
    return per.sum(axis=2).sum(axis=1).mean()


def tape_elbo_loss(vae, seqs, rng, beta, surrogate=None, y=None) -> tuple:
    """The training loss as a tape: the negative ELBO, plus with a surrogate
    the MSE of its predictions on the mean-pooled z against ``y``. Returns
    the loss tensor and the recon and KL tensors."""
    enc, dec_in, tgt, valid = vae.prepare_batch(seqs)
    mu, ls = tape_encode(vae, enc, valid)
    z = mu + ls.exp() * Tensor(rng.normal(mu.shape))
    logits = tape_decode(vae, dec_in, valid, z)
    recon = ad.softmax_cross_entropy(logits, tgt.reshape(-1)[valid])
    kl = tape_kl(mu, ls)
    loss = recon + beta * kl
    if surrogate is not None:
        loss = loss + ((tape_predict(surrogate, tape_mean_pool(z)) - Tensor(y)) ** 2).mean()
    return loss, recon, kl
