"""Objective construction and surrogate-gradient-guided latent dynamics.

The scalar objective J is always minimized. Target mode is a weighted
squared error to per-property targets; directional mode is the negated
sum of predictions times ``toyset.PROPERTY_SIGNS``, the orientation the
evaluation's fronts use: raise p1, lower p2.

Guided integration runs explicit Euler on dz/dt = v(z, t) - gamma * g(z),
where g is the objective gradient through mean pooling and the surrogate.
The integrator alone post-processes each gradient row: normalize, or clip
raw rows to ``CLIP_NORM``; it then scales by gamma. ``guided_steps`` yields
each step's time, state, velocity and gradient, and keeps none of them;
``guided_integrate`` returns the last state. Exploration noise is injected
once at preparation time, never per step.
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
_NEG_SIGNS = -_SIGNS


@dataclass(frozen=True)
class ObjectiveSpec:
    """Either target mode (weights + targets) or directional mode (raise p1, lower p2).

    Frozen, so the float arrays of its weights and targets, built once here,
    stay those of its fields."""

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
        object.__setattr__(self, "_w", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "_t", None if self.targets is None
                           else np.asarray(self.targets, dtype=np.float64))


def objective_value(spec: ObjectiveSpec, pred):
    """J, minimized by the guided dynamics, of each row of a (B, P) prediction
    matrix: a (B,) array, or a float when there is one row (a (P,) vector or
    B == 1), so a finite-difference check can treat it as a scalar function."""
    j = _objective_rows(spec, np.asarray(pred, dtype=np.float64))
    return j.item() if j.size == 1 else j


def _objective_rows(spec: ObjectiveSpec, pred: np.ndarray) -> np.ndarray:
    if spec.mode == "target":
        return (spec._w * (pred - spec._t) ** 2).sum(axis=-1)
    return -(_SIGNS * pred).sum(axis=-1)


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
    raw; a non-finite J or gradient raises NumericFailure. The program's own
    steps take the unchecked ``_predict_and_gradient`` instead.
    """
    pred, g = _predict_and_gradient(spec, surrogate, np.asarray(z, dtype=np.float64))
    j = _objective_rows(spec, pred)
    if not (np.isfinite(j).all() and np.isfinite(g).all()):
        raise NumericFailure("non-finite objective or objective gradient")
    return j, g


def _predict_and_gradient(spec: ObjectiveSpec, surrogate, z: np.ndarray) -> tuple:
    """The surrogate's predictions (B, P) of a (B, K, d) batch and the raw
    gradient (B, K, d) of J, unchecked: ``objective_gradient`` checks both,
    and ``guided_steps`` and the gradient ascent the state the gradient
    moves, which a non-finite row makes non-finite, clipped, normalized or
    raw."""
    pred, pullback = surrogate.predict_vjp(mean_pool(z), wrt_params=False)
    # J's pullback in the ops of a tape over ``sum(w * diff * diff)`` (the
    # first factor's share, then the second's) or ``-sum(_SIGNS * pred)``.
    if spec.mode == "target":
        diff = pred - spec._t
        dj = spec._w * diff
        dj += diff * spec._w
    else:
        dj = np.broadcast_to(_NEG_SIGNS, pred.shape)
    # Mean pooling's pullback: times 1/K, then spread over the K tokens.
    g_pooled = pullback(dj)[0] * (1.0 / z.shape[-2])
    return pred, g_pooled[..., None, :].repeat(z.shape[-2], axis=-2)


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


def guided_steps(field, surrogate, spec: ObjectiveSpec, cfg: GuidanceConfig, z: np.ndarray):
    """Euler integration of the guided dynamics from cfg.t_start to 1, one step
    at a time.

    ``z`` is a (B, K, d) batch. After each step, yields ``(t, z, v, g)``: the
    time reached, the new state, the velocity the step took and the
    post-processed gradient (None at gamma == 0). Nothing is kept from one
    step to the next. With gamma == 0 the update is bit for bit that of
    ``flowmatch.integrate`` from cfg.t_start; a guided step runs one surrogate
    pass, at the state it starts from.
    """
    z = np.asarray(z, dtype=np.float64)
    steps, gamma = cfg.steps, cfg.gamma
    dt = (1.0 - cfg.t_start) / steps
    for step in range(steps):
        v = field.velocity(z, cfg.t_start + step * dt)
        g = None
        if gamma == 0.0:
            z = z + dt * v
        else:
            _, g = _predict_and_gradient(spec, surrogate, z)
            # Normalize each row, or clip a raw row to CLIP_NORM. Rows left alone
            # are divided or multiplied by exactly 1.0, which keeps their bits.
            norm = _row_norms(g)
            if cfg.normalize_gradient:
                tiny = norm < _NORM_FLOOR
                if tiny.any():  # their squares may underflow: rescale, exactly, by a power of two
                    g[tiny] *= _NORM_RESCALE
                    norm[tiny] = _row_norms(g[tiny])
                g /= np.where(norm > 0, norm, 1.0)[:, None, None]
            elif (norm > CLIP_NORM).any():
                g *= np.divide(CLIP_NORM, norm, out=np.ones_like(norm),
                               where=norm > CLIP_NORM)[:, None, None]
            # z + dt * (v - gamma * g), in one temporary.
            step_z = gamma * g
            np.subtract(v, step_z, out=step_z)
            step_z *= dt
            z = np.add(z, step_z, out=step_z)
        if not np.isfinite(z).all():
            raise NumericFailure("non-finite state during guided integration",
                                 where=f"step={step}")
        yield cfg.t_start + (step + 1) * dt, z, v, g


def guided_integrate(field, surrogate, spec: ObjectiveSpec, cfg: GuidanceConfig,
                     z: np.ndarray) -> np.ndarray:
    """The final (B, K, d) latents of ``guided_steps`` from ``z``."""
    for _, z, _, _ in guided_steps(field, surrogate, spec, cfg, z):
        pass
    return z


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
    along the raw gradient; a non-finite state raises NumericFailure."""
    if eta <= 0:
        raise ContractViolation("eta must be > 0")
    z = np.asarray(z, dtype=np.float64)
    for step in range(steps):
        _, g = _predict_and_gradient(spec, surrogate, z)
        z = z - eta * g
        if not np.isfinite(z).all():
            raise NumericFailure("non-finite state in gradient ascent", where=f"step={step}")
    return z
