"""Objective construction and surrogate-gradient-guided latent dynamics.

The scalar objective J is always minimized. Target mode is a weighted
squared error to per-property targets; directional mode is the negated
sum of predictions times ``toyset.PROPERTY_SIGNS``, the orientation the
evaluation's fronts use: raise p1, lower p2.

Guided integration runs explicit Euler on dz/dt = v(z, t) - gamma * g(z),
where g is the objective gradient through mean pooling and the surrogate.
The integrator alone post-processes each gradient row: normalize, or clip
raw rows to ``CLIP_NORM``; it then scales by gamma. Exploration noise is
injected once at preparation time, never per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import toyset
from .errors import ContractViolation, NumericFailure
from .seqvae import mean_pool
from .rng import normal_rows

# The gradient-ascent ablation's step size, steps and start noise; fixed, not tuned.
GA_ETA = 0.3
GA_STEPS = 10
GA_SIGMA = 0.2
# The norm a raw guidance gradient row is clipped to when rows are not normalized.
CLIP_NORM = 5.0
_SIGNS = np.asarray(toyset.PROPERTY_SIGNS, dtype=np.float64)


@dataclass
class ObjectiveSpec:
    """Either target mode (weights + targets) or directional mode (raise p1, lower p2)."""

    mode: str = "directional"  # or "target"
    weights: tuple = (1.0, 1.0)
    targets: tuple = None

    def __post_init__(self):
        if self.mode not in ("target", "directional"):
            raise ContractViolation(f"unknown objective mode {self.mode!r}")
        for name in ("weights", "targets"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != np.shape(toyset.PROPERTY_SIGNS):
                raise ContractViolation(f"{name} needs one entry per property "
                                        f"({len(toyset.PROPERTY_SIGNS)}), not {value!r}")
        if any(w < 0 or not np.isfinite(w) for w in self.weights):
            raise ContractViolation("weights must be finite and nonnegative")
        if self.mode == "target" and self.targets is None:
            raise ContractViolation("target mode requires targets")
        if self.targets is not None and not np.isfinite(self.targets).all():
            raise ContractViolation(f"targets must be finite, not {self.targets!r}")


def objective_value(spec: ObjectiveSpec, pred):
    """J, minimized by the guided dynamics, of each row of a (B, P) prediction
    matrix: a (B,) array, or a float when there is one row (a (P,) vector or
    B == 1), so a finite-difference check can treat it as a scalar function."""
    pred = np.asarray(pred, dtype=np.float64)
    if spec.mode == "target":
        j = (np.asarray(spec.weights) * (pred - np.asarray(spec.targets)) ** 2).sum(axis=-1)
    else:
        j = -(_SIGNS * pred).sum(axis=-1)
    return j.item() if j.size == 1 else j


# A gradient row whose norm is below the floor is multiplied by the rescale
# before it is normalized: a subnormal entry (down to 2**-1074) lands at
# 2**-474 or above and a largest entry (below 2**-500) below 2**100, so no
# square underflows or overflows. Rows at or above the floor keep their bits.
_NORM_FLOOR = 2.0 ** -500
_NORM_RESCALE = 2.0 ** 600


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (B, ...) array, bit-identical to
    ``np.linalg.norm(x[b])``: a (1, n) @ (n, 1) matmul is the same BLAS dot
    that ``norm`` takes, where ``norm(axis=...)`` and ``einsum`` sum in
    another order."""
    f = np.ascontiguousarray(x).reshape(len(x), -1)
    return np.sqrt((f[:, None, :] @ f[:, :, None])[:, 0, 0])


def objective_gradient(spec: ObjectiveSpec, surrogate, z: np.ndarray) -> tuple:
    """J (B,) and its exact reverse-mode gradient (B, K, d) for each row of a
    (B, K, d) latent batch, both from one array pass of the surrogate and its
    pullback (``surrogate.predict_vjp``), which takes no parameter gradient.

    J equals ``objective_value(spec, surrogate.predict(mean_pool(z)))`` and the
    gradient that of a tape over J summed over rows, bit for bit; rows never
    mix, so row b of the gradient is that of row b's own J. The gradient is
    raw: ``guided_integrate`` post-processes it, and the gradient-ascent
    baseline steps on it as it is.
    """
    z = np.asarray(z, dtype=np.float64)
    pred, pullback = surrogate.predict_vjp(mean_pool(z), wrt_params=False)
    # J in ``objective_value``'s ops; its pullback in those of a tape over
    # ``sum(w * diff * diff)`` (the first factor's share, then the second's)
    # or ``-sum(_SIGNS * pred)``.
    if spec.mode == "target":
        w = np.asarray(spec.weights, dtype=np.float64)
        diff = pred - np.asarray(spec.targets, dtype=np.float64)
        j = (w * diff ** 2).sum(axis=-1)
        dj = w * diff + diff * w
    else:
        j = -(_SIGNS * pred).sum(axis=-1)
        dj = np.broadcast_to(-_SIGNS, pred.shape)
    # Mean pooling's pullback: times 1/K, then spread over the K tokens.
    g_pooled = pullback(dj)[0] * (1.0 / z.shape[-2])
    if not (np.isfinite(j).all() and np.isfinite(g_pooled).all()):
        raise NumericFailure("non-finite objective or objective gradient")
    return j, np.repeat(g_pooled[..., None, :], z.shape[-2], axis=-2)


@dataclass
class GuidanceConfig:
    gamma: float = 36.07
    sigma: float = 0.80
    steps: int = 12
    t_start: float = 0.89
    normalize_gradient: bool = True  # else raw rows are clipped to CLIP_NORM

    def __post_init__(self):
        for name in ("gamma", "sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ContractViolation(f"{name} must be finite and >= 0, not {value!r}")
        if self.steps < 1:
            raise ContractViolation("steps must be >= 1")
        if not (0.0 <= self.t_start < 1.0):
            raise ContractViolation("t_start must lie in [0, 1)")


@dataclass
class Trajectory:
    """Per-step statistics of a guided integration over a batch of B rows.

    ``t`` (steps,) is the time after each step; ``objective`` (J at the new
    state), ``grad_norm`` and ``velocity_norm`` are (steps, B).
    """

    t: np.ndarray
    objective: np.ndarray
    grad_norm: np.ndarray
    velocity_norm: np.ndarray


def guided_integrate(field, surrogate, spec: ObjectiveSpec, cfg: GuidanceConfig,
                     z: np.ndarray) -> tuple:
    """Euler integration of the guided dynamics from cfg.t_start to 1.

    ``z`` is a (B, K, d) batch. Returns (Trajectory, final (B, K, d)
    latents). With gamma == 0 the update is bit for bit that of
    ``flowmatch.integrate`` from cfg.t_start. A guided step runs one
    surrogate pass: the J its gradient pass yields is that of the state the
    previous step reached, and one ``predict`` gives the last step's.
    """
    z = np.asarray(z, dtype=np.float64)
    steps, B = cfg.steps, len(z)
    dt = (1.0 - cfg.t_start) / steps
    t = [cfg.t_start] + [cfg.t_start + (step + 1) * dt for step in range(steps)]
    objective = np.empty((steps, B))
    # Each step's v and g, kept for the norms taken in bulk after the loop.
    v = np.empty((steps,) + z.shape)
    g = np.empty((steps,) + z.shape) if cfg.gamma != 0.0 else None
    for step in range(steps):
        v[step] = field.velocity(z, t[step])
        if g is None:
            z = z + dt * v[step]
        else:
            j, gs = objective_gradient(spec, surrogate, z)
            # Normalize each row, or clip a raw row to CLIP_NORM. Rows left alone
            # are divided or multiplied by exactly 1.0, which keeps their bits.
            norm = _row_norms(gs)
            if cfg.normalize_gradient:
                tiny = norm < _NORM_FLOOR
                if tiny.any():  # their squares may underflow: rescale, exactly, by a power of two
                    gs[tiny] *= _NORM_RESCALE
                    norm[tiny] = _row_norms(gs[tiny])
                gs /= np.where(norm > 0, norm, 1.0)[:, None, None]
            elif (norm > CLIP_NORM).any():
                gs *= np.divide(CLIP_NORM, norm, out=np.ones_like(norm),
                                where=norm > CLIP_NORM)[:, None, None]
            g[step] = gs
            if step:  # J at the state the previous step reached
                objective[step - 1] = j
            z = z + dt * (v[step] - cfg.gamma * g[step])
        if not np.isfinite(z).all():
            raise NumericFailure("non-finite state during guided integration",
                                 where=f"step={step}")
        if g is None or step == steps - 1:
            objective[step] = objective_value(spec, surrogate.predict(mean_pool(z)))

    def norms(x):
        return _row_norms(x.reshape(steps * B, -1)).reshape(steps, B)

    return Trajectory(t=np.array(t[1:]), objective=objective,
                      grad_norm=np.zeros((steps, B)) if g is None else norms(g),
                      velocity_norm=norms(v)), z


def prepare_optimization(mu: np.ndarray, sigma: float, rngs) -> np.ndarray:
    """Start latents for local optimization: (B, K, d) posterior means plus
    sigma times one N(0, I) draw per row, row i's from ``rngs[i]``.

    The one place start noise is added, for the guided ODE and the
    gradient-ascent baseline alike.
    """
    if sigma < 0:
        raise ContractViolation("sigma must be >= 0")
    if len(mu) != len(rngs):
        raise ContractViolation("need one rng per latent row")
    return mu + sigma * normal_rows(rngs, mu.shape[1:])


def gradient_ascent_baseline(surrogate, spec: ObjectiveSpec, z: np.ndarray,
                             eta: float, steps: int) -> np.ndarray:
    """No-flow ablation on a (B, K, d) batch: plain descent on J from ``z``,
    along the raw gradient."""
    if eta <= 0:
        raise ContractViolation("eta must be > 0")
    for step in range(steps):
        _, g = objective_gradient(spec, surrogate, z)
        z = z - eta * g
        if not np.isfinite(z).all():
            raise NumericFailure("non-finite state in gradient ascent", where=f"step={step}")
    return z
