"""Differentiable property predictor over pooled latents.

Two bounded heads, sigmoids scaled to ``toyset.P1_BOUNDS`` and
``toyset.P2_BOUNDS``; bounds hold for arbitrarily large inputs by
construction. One array forward and pullback, ``predict_vjp``, serves
inference, guidance, whose pullback takes the latent's gradient alone, and
the surrogate's share of joint fine-tuning, whose loss is unweighted MSE;
objective weights only enter at guidance time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import toyset
from .errors import ContractViolation
from .nn import Mlp, config_from_dict, mlp_arrays, mlp_from_arrays, sigmoid
from .rng import Rng


@dataclass
class SurrogateConfig:
    latent_dim: int = 16
    hidden: int = 128
    layers: int = 3
    epochs: int = 40  # unread; kept while bench/test_smoke.py sets it


# The heads' scaling, per property: a sigmoid times _SPAN plus _LO.
_LO, _HI = np.array([toyset.P1_BOUNDS, toyset.P2_BOUNDS]).T
_SPAN = _HI - _LO


class Surrogate:
    """Shared trunk with a sigmoid head for p1 and a scaled-sigmoid head for p2."""

    def __init__(self, config: SurrogateConfig, rng: Rng):
        self.config = config
        self.net = Mlp.create(self._sizes(config), rng.split("surrogate"), activation="tanh")

    @staticmethod
    def _sizes(c: SurrogateConfig) -> list:
        return [c.latent_dim] + [c.hidden] * (c.layers - 1) + [2]

    def params(self) -> list:
        return self.net.params()

    def predict_vjp(self, pooled: np.ndarray, wrt_params: bool = True) -> tuple:
        """Predictions (B, 2) for pooled latents (B, d) and their pullback:
        ``pullback(g)`` is ``(d pooled, *d params())`` of ``sum(g * pred)``,
        with None for each parameter unless ``wrt_params``.

        The net's ``forward``/``backward`` and the head's ops in the order of
        a tape (``tests/tape.py``): ``sigmoid(out) * span + lo``, pulled back as
        ``g * span * y * (1 - y)``.
        """
        acts = self.net.forward(pooled)
        y = sigmoid(acts[-1])

        def pullback(g):
            g = g * _SPAN
            g *= y
            g *= 1.0 - y
            return self.net.backward(acts, g, wrt_params=wrt_params)

        pred = y * _SPAN
        pred += _LO
        return pred, pullback

    def predict(self, pooled: np.ndarray) -> np.ndarray:
        """Predictions (B, 2) for pooled latents (B, d)."""
        x = np.asarray(pooled, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ContractViolation("pooled latent must be finite")
        return self.predict_vjp(x)[0]

    def arrays(self) -> dict:
        return mlp_arrays("surrogate", self.net)

    def meta(self) -> dict:
        from dataclasses import asdict
        return {"model_kind": "surrogate", "config": asdict(self.config),
                "bounds": [list(toyset.P1_BOUNDS), list(toyset.P2_BOUNDS)]}

    @classmethod
    def from_checkpoint(cls, arrays: dict, meta: dict) -> "Surrogate":
        cfg = config_from_dict(SurrogateConfig, meta["config"])
        model = cls.__new__(cls)
        model.config = cfg
        model.net = mlp_from_arrays("surrogate", arrays, cls._sizes(cfg), "tanh")
        return model


def fidelity(pred: np.ndarray, y: np.ndarray) -> tuple:
    """Per-property (mse, r2) lists for prediction/target matrices."""
    err = (pred - y) ** 2
    mse = err.mean(axis=0)
    ss_res = err.sum(axis=0)
    ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
    # An all-equal column has zero variance; its ss_tot is the mean's rounding residue.
    varies = (np.ptp(y, axis=0) > 0) & (ss_tot > 0)
    r2 = np.where(varies, 1.0 - ss_res / np.where(varies, ss_tot, 1.0), 0.0)
    return [float(m) for m in mse], [float(r) for r in r2]

