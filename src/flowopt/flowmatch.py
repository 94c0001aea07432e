"""Flow-matching prior over the latent space.

Training regresses a time-conditioned vector field onto the derivative of
the linear interpolation path between base noise and posterior samples;
sampling integrates the learned ODE with explicit Euler steps. Base noise
and posterior samples are coupled independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ContractViolation, NumericFailure
from .nn import (GRAD_CLIP_NORM, AdamState, Mlp, clip_grad_norm, config_from_dict, mlp_arrays,
                 mlp_from_arrays, optimizer_step, time_embed)
from .rng import Rng, normal_rows

LR = 2e-4


@dataclass
class FlowConfig:
    K: int = 4
    d: int = 16
    hidden: int = 128
    layers: int = 3
    time_embed_dim: int = 16
    batch_size: int = 256
    steps: int = 2000
    sample_steps: int = 50  # default Euler steps for unconditional sampling

    def __post_init__(self):
        for name in ("batch_size", "steps", "sample_steps"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"flow.{name} must be >= 1, not {getattr(self, name)!r}")


@functools.lru_cache(maxsize=1024)
def _time_row(t: float, dim: int) -> np.ndarray:
    """The read-only (1, dim) embedding row of one time, computed once per
    (t, dim): an Euler grid's times repeat across every batch it integrates,
    and ``time_embed``'s row for t depends on t alone."""
    row = time_embed(np.array([t]), dim)
    row.flags.writeable = False
    return row


class FlowField:
    """MLP velocity field on the flattened K*d latent plus time embedding."""

    def __init__(self, config: FlowConfig, rng: Rng):
        self.config = config
        self.net = Mlp.create(self._sizes(config), rng.split("flow"), activation="tanh")

    @staticmethod
    def _sizes(c: FlowConfig) -> list:
        dim = c.K * c.d
        return [dim + c.time_embed_dim] + [c.hidden] * (c.layers - 1) + [dim]

    def params(self) -> list:
        return self.net.params()

    def inputs(self, z: np.ndarray, t) -> np.ndarray:
        """The net's (B, K*d + E) input: B latents, flat or (B, K, d), each
        followed by the embedding of its time, from t (B,) or one shared time."""
        flat = np.reshape(z, (len(z), -1))
        E = self.config.time_embed_dim
        rows = _time_row(float(t), E) if np.ndim(t) == 0 else time_embed(t, E)
        x = np.empty((len(z), flat.shape[1] + E))
        x[:, :flat.shape[1]] = flat
        x[:, flat.shape[1]:] = rows
        return x

    def velocity(self, z: np.ndarray, t) -> np.ndarray:
        """Velocity (B, K, d) of a (B, K, d) latent batch at times t (B,) or one time."""
        return self.net.forward(self.inputs(z, t))[-1].reshape(np.shape(z))

    def arrays(self) -> dict:
        return mlp_arrays("flow", self.net)

    def meta(self) -> dict:
        return {"model_kind": "flowfield", "config": asdict(self.config)}

    @classmethod
    def from_checkpoint(cls, arrays: dict, meta: dict) -> "FlowField":
        cfg = config_from_dict(FlowConfig, meta["config"])
        model = cls.__new__(cls)
        model.config = cfg
        model.net = mlp_from_arrays("flow", arrays,
                                    {"sizes": cls._sizes(cfg), "activation": "tanh"})
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


def fm_loss(field: FlowField, z0: np.ndarray, z1: np.ndarray, t: np.ndarray) -> tuple:
    """Mean squared regression of the field onto the path derivative: the
    float loss ``mean(sum((v - target) ** 2, axis=1))`` and, in a tape's ops,
    its gradient for each of ``field.params()``; the input's is not taken. A
    non-finite loss raises NumericFailure."""
    n = len(z0)
    if n == 0:
        raise ContractViolation("empty flow-matching batch")
    zt, target = interpolate(z0, z1, t)
    acts = field.net.forward(field.inputs(zt, t))
    diff = acts[-1] - target.reshape(n, -1)
    loss = float((diff ** 2).sum(axis=1).sum() * (1.0 / n))
    if not np.isfinite(loss):
        raise NumericFailure("non-finite flow-matching loss", where="stage=flow")
    # The mean spreads 1/n to every entry, and the square multiplies by 2 * diff.
    _, *grads = field.net.backward(acts, (1.0 / n) * 2.0 * diff, wrt_input=False)
    return loss, grads


def train_flow(field: FlowField, z1_sampler, rng: Rng) -> list:
    """Fit the field; ``z1_sampler(rng, n)`` yields (n, K, d) target latents.

    Step ``s`` calls the sampler once with ``rng.split(("fm", s)).split("z1")``.
    It may be a lookup into latents a frozen encoder computed once, so that
    the step loop does no encoder work.
    Returns the per-step loss history.
    """
    c = field.config
    params = field.params()
    opt = AdamState.create(params, lr=LR, weight_decay=0.0)
    history = []
    for step in range(c.steps):
        srng = rng.split(("fm", step))
        z1 = z1_sampler(srng.split("z1"), c.batch_size).reshape(c.batch_size, c.K * c.d)
        z0 = srng.split("z0").normal(z1.shape)
        t = srng.split("t").uniform(0.0, 1.0, (c.batch_size,))
        loss, grads = fm_loss(field, z0, z1, t)
        grads, _ = clip_grad_norm(grads, GRAD_CLIP_NORM)
        optimizer_step(opt, params, grads)
        history.append(loss)
    return history


def integrate(field: FlowField, z: np.ndarray, t_start: float, steps: int) -> np.ndarray:
    """Integrate the flow ODE over a (B, K, d) batch with explicit Euler from t_start to 1."""
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    if not (0.0 <= t_start < 1.0):
        raise ContractViolation("t_start must lie in [0, 1)")
    z = np.asarray(z, dtype=np.float64)
    dt = (1.0 - t_start) / steps
    t = t_start
    for step in range(steps):
        z = z + dt * field.velocity(z, t)
        t = t_start + (step + 1) * dt
        if not np.isfinite(z).all():
            raise NumericFailure("non-finite state during integration", where=f"step={step}")
    return z


def sample_prior(field: FlowField, rngs, steps: int = None) -> np.ndarray:
    """Unconditional samples: row i starts from N(0, I) noise drawn from ``rngs[i]``
    and is integrated from t=0 to 1 (``steps`` defaults to the config's)."""
    c = field.config
    steps = c.sample_steps if steps is None else steps
    return integrate(field, normal_rows(rngs, (c.K, c.d)), 0.0, steps)
