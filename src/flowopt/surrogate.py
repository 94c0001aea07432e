"""Differentiable property predictor over pooled latents.

Two bounded heads: p1 in [0, 1] via sigmoid, p2 in [1, 10] via affine-scaled
sigmoid; bounds hold for arbitrarily large inputs by construction. The
training loss is unweighted MSE; objective weights only enter at guidance
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractViolation
from .nn import Mlp, config_from_dict, mlp_arrays, mlp_from_arrays
from .rng import Rng

P1_BOUNDS = (0.0, 1.0)
P2_BOUNDS = (1.0, 10.0)


@dataclass
class SurrogateConfig:
    latent_dim: int = 16
    hidden: int = 128
    layers: int = 3
    epochs: int = 40  # unread; kept while bench/test_smoke.py sets it


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


def fidelity(pred: np.ndarray, y: np.ndarray) -> tuple:
    """Per-property (mse, r2) lists for prediction/target matrices."""
    err = (pred - y) ** 2
    mse = err.mean(axis=0)
    ss_res = err.sum(axis=0)
    ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
    r2 = np.where(ss_tot > 0, 1.0 - ss_res / np.where(ss_tot > 0, ss_tot, 1.0), 0.0)
    return [float(m) for m in mse], [float(r) for r in r2]

