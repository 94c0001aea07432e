"""Flow-matching prior over the latent space.

Training regresses a time-conditioned vector field onto the derivative of
the linear interpolation path between base noise and posterior samples;
sampling integrates the learned ODE with explicit Euler steps. Base noise
and posterior samples are coupled independently.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, NumericFailure
from .nn import (AdamState, Mlp, clip_grad_norm, config_from_dict, mlp_arrays, mlp_from_arrays,
                 optimizer_step, time_embed)
from .rng import Rng, normal_rows
from .seqvae import LatentState


@dataclass
class FlowConfig:
    K: int = 4
    d: int = 16
    hidden: int = 128
    layers: int = 3
    time_embed_dim: int = 16
    lr: float = 2e-4
    batch_size: int = 256
    steps: int = 2000
    clip_norm: float = 5.0
    sample_steps: int = 50  # default Euler steps for unconditional sampling


class FlowField:
    """MLP velocity field on the flattened K*d latent plus time embedding."""

    def __init__(self, config: FlowConfig, rng: Rng):
        self.config = config
        dim = config.K * config.d
        sizes = [dim + config.time_embed_dim] + [config.hidden] * (config.layers - 1) + [dim]
        self.net = Mlp.create(sizes, rng.split("flow"), activation="tanh")

    def params(self) -> list:
        return self.net.params()

    def velocity_graph(self, z: Tensor, t) -> Tensor:
        """Velocity for a batch of flattened latents (B, K*d) at times t (B,)."""
        B = z.shape[0]
        te = np.stack([time_embed(float(ti), self.config.time_embed_dim)
                       for ti in np.atleast_1d(t)])
        if te.shape[0] == 1 and B > 1:
            te = np.repeat(te, B, axis=0)
        return self.net(ad.concat([z, Tensor(te)], axis=1))

    def arrays(self, prefix="flow") -> dict:
        return mlp_arrays(prefix, self.net)

    def meta(self) -> dict:
        return {"model_kind": "flowfield", "config": asdict(self.config)}

    @classmethod
    def from_checkpoint(cls, arrays: dict, meta: dict, prefix="flow") -> "FlowField":
        cfg = config_from_dict(FlowConfig, meta["config"])
        model = cls.__new__(cls)
        model.config = cfg
        dim = cfg.K * cfg.d
        sizes = [dim + cfg.time_embed_dim] + [cfg.hidden] * (cfg.layers - 1) + [dim]
        model.net = mlp_from_arrays(prefix, arrays,
                                    {"sizes": sizes, "activation": "tanh"})
        return model


def interpolate(z0: np.ndarray, z1: np.ndarray, t) -> tuple:
    """Linear path point and its constant target velocity.

    z_t = (1 - t) z0 + t z1 ; target = z1 - z0. ``t`` may be scalar or a
    per-sample vector broadcast over leading axes.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise ContractViolation("endpoint shapes differ")
    tt = np.asarray(t, dtype=np.float64)
    if np.any(tt < 0) or np.any(tt > 1):
        raise ContractViolation("t outside [0, 1]")
    while tt.ndim < z0.ndim:
        tt = tt[..., None]
    return (1.0 - tt) * z0 + tt * z1, z1 - z0


def fm_loss(field: FlowField, z0: np.ndarray, z1: np.ndarray, t: np.ndarray) -> Tensor:
    """Mean squared regression of the field onto the path derivative."""
    if len(z0) == 0:
        raise ContractViolation("empty flow-matching batch")
    c = field.config
    zt, target = interpolate(z0, z1, t)
    v = field.velocity_graph(Tensor(zt.reshape(len(z0), c.K * c.d)), t)
    diff = v - Tensor(target.reshape(len(z0), c.K * c.d))
    return (diff ** 2).sum(axis=1).mean()


def train_flow(field: FlowField, z1_sampler, rng: Rng) -> list:
    """Fit the field; ``z1_sampler(rng, n)`` yields (n, K, d) target latents.

    Returns the per-step loss history.
    """
    c = field.config
    params = field.params()
    opt = AdamState.create(params, lr=c.lr, weight_decay=0.0)
    history = []
    for step in range(c.steps):
        srng = rng.split(("fm", step))
        z1 = z1_sampler(srng.split("z1"), c.batch_size).reshape(c.batch_size, c.K * c.d)
        z0 = srng.split("z0").normal(z1.shape)
        t = srng.split("t").uniform(0.0, 1.0, (c.batch_size,))
        loss = fm_loss(field, z0, z1, t)
        grads = ad.gradients(loss, params)
        grads, _ = clip_grad_norm(grads, c.clip_norm)
        optimizer_step(opt, params, grads)
        history.append(loss.item())
    if history and not np.isfinite(history[-1]):
        raise NumericFailure("divergent flow training loss", where="stage=flow")
    return history


def sample_prior(field: FlowField, rngs, steps: int = None, t_start: float = 0.0,
                 z_init: np.ndarray = None) -> LatentState:
    """Integrate the flow ODE over a (B, K, d) batch with explicit Euler from t_start to 1.

    With no ``z_init``, row i starts from N(0, I) noise drawn from ``rngs[i]``
    (unconditional sampling from t_start=0); a given ``z_init`` is used as is.
    """
    c = field.config
    steps = c.sample_steps if steps is None else steps
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    if not (0.0 <= t_start < 1.0):
        raise ContractViolation("t_start must lie in [0, 1)")
    z = normal_rows(rngs, (c.K, c.d)) if z_init is None else np.array(z_init, dtype=np.float64)
    B = len(z)
    dt = (1.0 - t_start) / steps
    t = t_start
    for step in range(steps):
        v = field.velocity_graph(Tensor(z.reshape(B, c.K * c.d)), t).data
        z = z + dt * v.reshape(B, c.K, c.d)
        t = t_start + (step + 1) * dt
        if not np.isfinite(z).all():
            raise NumericFailure("non-finite state during integration", where=f"step={step}")
    return LatentState(z=z, t=1.0)
