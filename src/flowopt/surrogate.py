"""Differentiable property predictor over pooled latents.

Two bounded heads: p1 in [0, 1] via sigmoid, p2 in [1, 10] via affine-scaled
sigmoid; bounds hold for arbitrarily large inputs by construction. The
training loss is unweighted MSE; objective weights only enter at guidance
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation
from .nn import (AdamState, Mlp, clip_grad_norm, config_from_dict, mlp_arrays, mlp_from_arrays,
                 optimizer_step)
from .rng import Rng

P1_BOUNDS = (0.0, 1.0)
P2_BOUNDS = (1.0, 10.0)


@dataclass
class SurrogateConfig:
    latent_dim: int = 16
    hidden: int = 128
    layers: int = 3
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 40
    holdout_frac: float = 0.15
    clip_norm: float = 5.0


class Surrogate:
    """Shared trunk with a sigmoid head for p1 and a scaled-sigmoid head for p2."""

    def __init__(self, config: SurrogateConfig, rng: Rng):
        self.config = config
        sizes = [config.latent_dim] + [config.hidden] * (config.layers - 1) + [2]
        self.net = Mlp.create(sizes, rng.split("surrogate"), activation="tanh")

    def params(self) -> list:
        return self.net.params()

    def predict_graph(self, pooled: Tensor) -> Tensor:
        """Bounded predictions (B, 2) as a differentiable graph node."""
        raw = self.net(pooled if isinstance(pooled, Tensor) else Tensor(pooled))
        lo = np.array([P1_BOUNDS[0], P2_BOUNDS[0]])
        hi = np.array([P1_BOUNDS[1], P2_BOUNDS[1]])
        return raw.sigmoid() * Tensor(hi - lo) + Tensor(lo)

    def predict(self, pooled: np.ndarray) -> np.ndarray:
        """Predictions (B, 2) for pooled latents (B, d)."""
        x = np.asarray(pooled, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ContractViolation("pooled latent must be finite")
        return self.predict_graph(Tensor(x)).data

    def arrays(self, prefix="surrogate") -> dict:
        return mlp_arrays(prefix, self.net)

    def meta(self) -> dict:
        from dataclasses import asdict
        return {"model_kind": "surrogate", "config": asdict(self.config),
                "bounds": [list(P1_BOUNDS), list(P2_BOUNDS)]}

    @classmethod
    def from_checkpoint(cls, arrays: dict, meta: dict, prefix="surrogate") -> "Surrogate":
        cfg = config_from_dict(SurrogateConfig, meta["config"])
        model = cls.__new__(cls)
        model.config = cfg
        sizes = [cfg.latent_dim] + [cfg.hidden] * (cfg.layers - 1) + [2]
        model.net = mlp_from_arrays(prefix, arrays,
                                    {"sizes": sizes, "activation": "tanh"})
        return model


def prop_loss(pred, y) -> Tensor:
    """Mean squared error over properties; symmetric and nonnegative."""
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    y = y if isinstance(y, Tensor) else Tensor(y)
    if pred.shape != y.shape:
        raise ContractViolation("prediction/target shape mismatch")
    return ((pred - y) ** 2).mean()


@dataclass
class FidelityReport:
    """Held-out fit quality; R^2 = 1 - SS_res / SS_tot per property."""

    mse: list
    r2: list
    n_train: int
    n_holdout: int

    def as_dict(self) -> dict:
        return {"mse": self.mse, "r2": self.r2,
                "n_train": self.n_train, "n_holdout": self.n_holdout}


def fidelity(pred: np.ndarray, y: np.ndarray) -> tuple:
    """Per-property (mse, r2) lists for prediction/target matrices."""
    err = (pred - y) ** 2
    mse = err.mean(axis=0)
    ss_res = err.sum(axis=0)
    ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
    r2 = np.where(ss_tot > 0, 1.0 - ss_res / np.where(ss_tot > 0, ss_tot, 1.0), 0.0)
    return [float(m) for m in mse], [float(r) for r in r2]


def fit_surrogate(pooled: np.ndarray, y: np.ndarray, config: SurrogateConfig,
                  rng: Rng) -> tuple:
    """Train a fresh surrogate on (pooled latent, property) pairs.

    Returns (Surrogate, FidelityReport); the report is computed on a held-out
    split carved deterministically from the data.
    """
    if len(pooled) == 0:
        raise ContractViolation("empty surrogate training set")
    pooled = np.asarray(pooled, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(pooled)
    order = rng.split("holdout").permutation(n)
    n_hold = max(1, int(round(config.holdout_frac * n))) if n > 1 else 0
    hold, tr = order[:n_hold], order[n_hold:]
    if len(tr) == 0:
        tr = order
    model = Surrogate(config, rng.split("init"))
    params = model.params()
    opt = AdamState.create(params, lr=config.lr, weight_decay=1e-5)
    for epoch in range(config.epochs):
        erng = rng.split(("epoch", epoch))
        order_e = erng.permutation(len(tr))
        for i in range(0, len(tr), config.batch_size):
            idx = tr[order_e[i:i + config.batch_size]]
            pred = model.predict_graph(Tensor(pooled[idx]))
            loss = prop_loss(pred, Tensor(y[idx]))
            grads = ad.gradients(loss, params)
            grads, _ = clip_grad_norm(grads, config.clip_norm)
            optimizer_step(opt, params, grads)
    eval_idx = hold if len(hold) else tr
    mse, r2 = fidelity(model.predict(pooled[eval_idx]), y[eval_idx])
    report = FidelityReport(mse=mse, r2=r2, n_train=len(tr), n_holdout=len(hold))
    return model, report
