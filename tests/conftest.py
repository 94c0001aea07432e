import numpy as np
import pytest

from flowopt import autodiff as ad
from flowopt.autodiff import Tensor
from flowopt.flowmatch import interpolate
from flowopt.guidance import objective_value
from flowopt.nn import time_embed
from flowopt.rng import Rng
from flowopt.seqvae import mean_pool
from flowopt.surrogate import _LO, _SPAN


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


def loop_postprocess(g, normalize, clip_norm):
    """The per-row normalize-then-clip loop the row-wise post-processing replaced."""
    g = g.copy()
    for b in range(len(g)):
        if normalize:
            norm = np.linalg.norm(g[b])
            if norm > 0:
                g[b] = g[b] / norm
        if clip_norm is not None:
            norm = np.linalg.norm(g[b])
            if norm > clip_norm:
                g[b] = g[b] * (clip_norm / norm)
    return g


def tape_mlp(mlp, x: Tensor) -> Tensor:
    """``mlp`` on the tape layer by layer, from primitive ``Tensor`` ops: the
    independent reference ``Mlp.forward`` and ``Mlp.backward`` must equal."""
    act = {"tanh": Tensor.tanh, "relu": Tensor.relu, "sigmoid": Tensor.sigmoid}[mlp.activation]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = x @ w + b
        if i < len(mlp.weights) - 1:
            x = act(x)
    return x


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
    gradients ``autodiff.gradients`` takes of it for ``field.params()``."""
    zt, target = interpolate(z0, z1, t)
    diff = tape_velocity(field, zt, t) - Tensor(target.reshape(len(z0), -1))
    loss = (diff ** 2).sum(axis=1).mean()
    return loss.item(), ad.gradients(loss, field.params())


def tape_predict(surrogate, pooled: Tensor) -> Tensor:
    """The surrogate's bounded predictions over the reference net."""
    return tape_mlp(surrogate.net, pooled).sigmoid() * Tensor(_SPAN) + Tensor(_LO)


def tape_objective_gradient(spec, surrogate, z, normalize=False, clip_norm=None):
    """J (B,) and the (B, K, d) latent gradient from a tape over J summed over
    rows over the reference net, post-processed by the per-row loop: the
    reference the array path of ``guidance.objective_gradient`` must equal."""
    zt = Tensor(z, requires_grad=True)
    pred = tape_predict(surrogate, mean_pool(zt))
    if spec.mode == "target":
        diff = pred - Tensor(np.asarray(spec.targets))
        total = (Tensor(np.asarray(spec.weights)) * diff * diff).sum()
    else:
        total = -(Tensor(np.asarray(spec.signs, dtype=np.float64)) * pred).sum()
    (g,) = ad.gradients(total, [zt])
    return np.atleast_1d(objective_value(spec, pred.data)), loop_postprocess(g, normalize, clip_norm)
