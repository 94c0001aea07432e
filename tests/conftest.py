import numpy as np
import pytest

from flowopt import autodiff as ad
from flowopt.autodiff import Tensor
from flowopt.guidance import objective_value
from flowopt.rng import Rng
from flowopt.seqvae import mean_pool


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


def tape_objective_gradient(spec, surrogate, z, normalize=False, clip_norm=None):
    """J (B,) and the (B, K, d) latent gradient from a tape over J summed over
    rows, post-processed by the per-row loop: the reference the array path
    of ``guidance.objective_gradient`` must equal."""
    zt = Tensor(z, requires_grad=True)
    pred = surrogate.predict_graph(mean_pool(zt))
    if spec.mode == "target":
        diff = pred - Tensor(np.asarray(spec.targets))
        total = (Tensor(np.asarray(spec.weights)) * diff * diff).sum()
    else:
        total = -(Tensor(np.asarray(spec.signs, dtype=np.float64)) * pred).sum()
    (g,) = ad.gradients(total, [zt])
    return np.atleast_1d(objective_value(spec, pred.data)), loop_postprocess(g, normalize, clip_norm)
