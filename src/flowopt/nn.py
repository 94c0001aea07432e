"""Small feed-forward building blocks on top of the autodiff tape.

Includes the sinusoidal time embedding (geometric frequencies over
[1, 1e4] — recorded in every checkpoint header), an adaptive-moment
optimizer with decoupled weight decay, global-norm gradient clipping, a
self-describing JSON checkpoint container with bit-exact round-trips, and the
one rule by which stored configs are decoded.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ArtifactIOError, ContractViolation, NumericFailure
from .rng import Rng

TIME_EMBED_FREQ_RANGE = (1.0, 1.0e4)


def time_embed(t: float, dim: int) -> np.ndarray:
    """Interleaved sin/cos embedding of a scalar time in [0, 1].

    Frequencies are geometrically spaced over ``TIME_EMBED_FREQ_RANGE``.
    Deterministic and pure; at t=0 all sin components are 0 and all cos
    components are 1.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ContractViolation("time embedding dim must be a positive even integer")
    if not (0.0 <= t <= 1.0):
        raise ContractViolation(f"time {t} outside [0, 1]")
    half = dim // 2
    lo, hi = TIME_EMBED_FREQ_RANGE
    if half == 1:
        freqs = np.array([lo])
    else:
        freqs = lo * (hi / lo) ** (np.arange(half) / (half - 1))
    ang = t * freqs
    out = np.empty(dim)
    out[0::2] = np.sin(ang)
    out[1::2] = np.cos(ang)
    return out


@dataclass
class Mlp:
    """Fully connected stack with a linear output layer."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activation: str = "tanh"

    @classmethod
    def create(cls, sizes, rng: Rng, activation="tanh") -> "Mlp":
        """Xavier-initialized MLP with layer ``sizes`` = [in, h1, ..., out]."""
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = math.sqrt(2.0 / (fan_in + fan_out))
            weights.append(Tensor(rng.normal((fan_in, fan_out)) * scale, requires_grad=True))
            biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
        return cls(weights=weights, biases=biases, activation=activation)

    def params(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ContractViolation(
                f"input shape {x.shape} does not match first layer "
                f"({self.weights[0].shape[0]} features expected)")
        act = {"tanh": Tensor.tanh, "relu": Tensor.relu, "sigmoid": Tensor.sigmoid}[self.activation]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w + b
            if i < len(self.weights) - 1:
                x = act(x)
        return x


@dataclass
class AdamState:
    """Moment accumulators for one parameter list; step count starts at 0."""

    m: list
    v: list
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def create(cls, params, lr=1e-3, weight_decay=0.0) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params],
                   lr=lr, weight_decay=weight_decay)


def optimizer_step(state: AdamState, params, grads) -> None:
    """Bias-corrected adaptive-moment update with decoupled weight decay.

    Updates ``params`` in place and advances the step count.
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ContractViolation("parameter/gradient/state length mismatch")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ContractViolation("gradient shape mismatch")
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        mhat = state.m[i] / (1 - b1**t)
        vhat = state.v[i] / (1 - b2**t)
        p.data = p.data - state.lr * (mhat / (np.sqrt(vhat) + state.eps)
                                      + state.weight_decay * p.data)


def clip_grad_norm(grads, max_norm: float):
    """Scale a gradient list so its global L2 norm is at most ``max_norm``.

    Returns ``(clipped_grads, scale)``; scale is 1.0 when no clipping occurs.
    """
    if max_norm <= 0:
        raise ContractViolation("max_norm must be positive")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if math.isnan(total):
        raise NumericFailure("NaN gradient norm")
    if total <= max_norm:
        return list(grads), 1.0
    scale = max_norm / total
    return [g * scale for g in grads], scale


# -- checkpoint container -------------------------------------------------
#
# A checkpoint is a single JSON document: a "header" object describing every
# array (name, shape) plus free-form metadata, and an "arrays" object mapping
# name -> base64 of the flat little-endian float64 bytes. Round-trips are
# bit-exact.

def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    """Write named float64 arrays plus metadata as a self-describing file."""
    header = {
        "format": "flowopt-checkpoint-v1",
        "dtype": "float64-le",
        "time_embed_freq_range": list(TIME_EMBED_FREQ_RANGE),
        "arrays": {k: list(np.asarray(v).shape) for k, v in arrays.items()},
        "meta": meta,
    }
    doc = {"header": header,
           "data": {k: _encode(np.asarray(v)) for k, v in arrays.items()}}
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    except OSError as e:
        raise ArtifactIOError(f"cannot write checkpoint {path}: {e}") from e


def load_checkpoint(path):
    """Read a checkpoint; returns ``(arrays, meta)``.

    A truncated file, a missing array or an array whose bytes do not fit its
    header shape raises ArtifactIOError.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ArtifactIOError(f"cannot read checkpoint {path}: {e}") from e
    except ValueError as e:
        raise ArtifactIOError(f"{path} is not valid checkpoint JSON: {e}") from e
    header = doc.get("header") if isinstance(doc, dict) else None
    if not isinstance(header, dict) or header.get("format") != "flowopt-checkpoint-v1":
        raise ArtifactIOError(f"{path} is not a flowopt checkpoint")
    arrays = {}
    try:
        for name, shape in header["arrays"].items():
            flat = np.frombuffer(base64.b64decode(doc["data"][name], validate=True), dtype="<f8")
            arrays[name] = flat.reshape(shape).copy()
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError("meta is not a mapping")
    except (KeyError, TypeError, ValueError) as e:
        raise ArtifactIOError(f"{path} is inconsistent with its header: {e!r}") from e
    return arrays, meta


def config_from_dict(cls, doc):
    """A config dataclass from its stored JSON object, as run configs and
    checkpoint headers both store it.

    Keys ``cls`` no longer has are ignored and lists become tuples. A ``doc``
    that is not a mapping, or a value whose type is not that of its field's
    default (an int may stand for a float, and None for anything), raises
    TypeError.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} config is not a mapping: {doc!r}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue
        v = doc[f.name]
        if isinstance(v, list):
            v = tuple(v)
        typed = f.default is not dataclasses.MISSING and f.default is not None
        want = type(f.default)
        if typed and v is not None and not (
                isinstance(v, want) or want is float and isinstance(v, int)):
            raise TypeError(f"{cls.__name__}.{f.name} must be {want.__name__}, not {v!r}")
        kwargs[f.name] = v
    return cls(**kwargs)


def mlp_arrays(prefix: str, mlp: Mlp) -> dict:
    out = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}.w{i}"] = w.data
        out[f"{prefix}.b{i}"] = b.data
    return out


def mlp_from_arrays(prefix: str, arrays: dict, meta: dict) -> Mlp:
    n = len(meta["sizes"]) - 1
    return Mlp(
        weights=[Tensor(arrays[f"{prefix}.w{i}"], requires_grad=True) for i in range(n)],
        biases=[Tensor(arrays[f"{prefix}.b{i}"], requires_grad=True) for i in range(n)],
        activation=meta["activation"],
    )
