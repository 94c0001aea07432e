"""Small feed-forward building blocks on plain arrays.

An ``Mlp`` has one forward and one pullback: ``forward`` and ``backward``
serve inference, flow-matching training and the surrogate's share of
fine-tuning. Also includes the sinusoidal time embedding (geometric
frequencies over [1, 1e4] — recorded in every checkpoint header), an
adaptive-moment optimizer with decoupled weight decay over one flat buffer
per parameter list, global-norm gradient clipping, a self-describing JSON
checkpoint container with bit-exact round-trips, and the one rule by which
stored configs are decoded. Parameters are plain float64 arrays. A
pullback computes the gradients its caller asks for (input, parameters or
both) in the ops and order of the reverse-mode tape in ``tests/tape.py``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactIOError, ContractViolation, NumericFailure
from .rng import Rng

TIME_EMBED_FREQ_RANGE = (1.0, 1.0e4)
GRAD_CLIP_NORM = 5.0  # global gradient-norm bound of every training loop


def time_embed(t, dim: int) -> np.ndarray:
    """Interleaved sin/cos embeddings (B, dim) of a vector of B times in [0, 1].

    Frequencies are geometrically spaced over ``TIME_EMBED_FREQ_RANGE``.
    Deterministic and pure; row b depends on ``t[b]`` alone, and at t=0 all
    sin components are 0 and all cos components are 1.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ContractViolation("time embedding dim must be a positive even integer")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ContractViolation(f"times must be a vector, not shape {t.shape}")
    inside = (t >= 0.0) & (t <= 1.0)  # NaN is outside
    if not inside.all():
        raise ContractViolation(f"time {t[~inside][0]} outside [0, 1]")
    half = dim // 2
    lo, hi = TIME_EMBED_FREQ_RANGE
    if half == 1:
        freqs = np.array([lo])
    else:
        freqs = lo * (hi / lo) ** (np.arange(half) / (half - 1))
    ang = t[:, None] * freqs
    out = np.empty((len(t), dim))
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as the tape's ``sigmoid`` (``tests/tape.py``) computes it,
    ``0.5 * (tanh(0.5 * x) + 1.0)``, in one temporary."""
    s = 0.5 * x
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _tanh_back(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``g * (1.0 - y * y)`` in one temporary (a product's bits do not depend
    on its operands' order)."""
    d = y * y
    np.subtract(1.0, d, out=d)
    d *= g
    return d


# The activations of the tape in ``tests/tape.py``: name -> (forward of the
# pre-activation, which it may overwrite, and pullback of an upstream gradient
# g through the output y). Each is the tape's expression, so the array path
# has its bits.
_ACTIVATIONS = {
    "tanh": (lambda x: np.tanh(x, out=x), _tanh_back),
    "relu": (lambda x: np.where(x > 0, x, 0.0), lambda g, y: g * (y > 0)),
    "sigmoid": (sigmoid, lambda g, y: g * y * (1.0 - y)),
}


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
            weights.append(rng.normal((fan_in, fan_out)) * scale)
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, activation=activation)

    def params(self) -> list:
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def adopt(self, arrays) -> None:
        """Take ``arrays``, in ``params()`` order, as the parameters."""
        self.weights, self.biases = list(arrays[0::2]), list(arrays[1::2])

    def forward(self, x: np.ndarray) -> list:
        """Forward of a (B, in) batch: ``[x, h1, ..., out]``, the input, each
        hidden activation and the linear output, which ``backward`` pulls a
        gradient back through."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ContractViolation(
                f"input shape {x.shape} does not match first layer "
                f"({self.weights[0].shape[0]} features expected)")
        act = _ACTIVATIONS[self.activation][0]
        last = self.weights[-1]
        acts = [x]
        for w, b in zip(self.weights, self.biases):
            x = np.dot(x, w)  # the bits of ``x @ w``, with less overhead
            x += b
            if w is not last:
                x = act(x)
            acts.append(x)
        return acts

    def backward(self, acts: list, g: np.ndarray, wrt_input=True, wrt_params=True) -> tuple:
        """Gradients ``(input, *params())`` of ``sum(g * out)`` through the
        activations ``forward`` returned, in a per-layer tape's ops and order:
        ``acts[i].T @ g``, ``g.sum(axis=0)``, ``g @ w.T``. The input's is None
        unless ``wrt_input``, the parameters' unless ``wrt_params``, and only
        the input's takes the first layer's ``g @ w.T``."""
        back = _ACTIVATIONS[self.activation][1]
        weights = self.weights
        grads = []  # from the last layer's bias back to the first layer's weights
        for i in range(len(weights) - 1, -1, -1):
            if wrt_params:
                grads += g.sum(axis=0), acts[i].T @ g
            if i:
                g = back(g @ weights[i].T, acts[i])
            elif wrt_input:
                g = g @ weights[0].T
        gx = g if wrt_input else None
        if not wrt_params:
            return (gx,) + (None,) * (2 * len(weights))
        grads.reverse()
        return (gx, *grads)


_ALIGN = 8  # float64s per 64 bytes: where each optimizer segment starts


def _aligned_zeros(n: int) -> np.ndarray:
    """A zero float64 vector of n entries that starts on a 64-byte boundary."""
    raw = np.zeros(n + _ALIGN)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + n]


@dataclass
class AdamState:
    """Adaptive-moment state of one parameter list; step count starts at 0.

    The parameters, their gradients and both moments live in flat buffers of
    one layout, a 64-byte aligned segment per parameter, zero in between.
    ``create`` copies each parameter into its segment of ``param``, and the
    model adopts those ``views`` as its parameters, so one elementwise pass
    over the buffers updates every parameter in place. Two more rows of that
    layout hold a step's intermediates, allocated once.
    """

    param: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray  # (2, size): a step's intermediates
    views: list   # each parameter's view into ``param``
    grads: list   # each parameter's view into ``grad``
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def create(cls, params, lr=1e-3, weight_decay=0.0) -> "AdamState":
        offsets, total = [], 0
        for p in params:
            offsets.append(total)
            total += -(-p.size // _ALIGN) * _ALIGN
        buf = _aligned_zeros(6 * total).reshape(6, total)

        def views(row):
            return [row[o:o + p.size].reshape(p.shape) for o, p in zip(offsets, params)]

        state = cls(param=buf[0], grad=buf[1], m=buf[2], v=buf[3], work=buf[4:],
                    views=views(buf[0]), grads=views(buf[1]), lr=lr, weight_decay=weight_decay)
        for p, view in zip(params, state.views):
            view[...] = p
        return state


def optimizer_step(state: AdamState, grads) -> None:
    """Bias-corrected adaptive-moment update with decoupled weight decay.

    Copies ``grads`` into the state's gradient buffer, updates the parameter
    buffer in place and advances the step count. Each entry takes the
    per-array update's elementwise ops in its order, so the bits are those of
    ``p - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p)``.
    """
    if len(grads) != len(state.grads):
        raise ContractViolation("gradient/state length mismatch")
    for dst, g in zip(state.grads, grads):
        if g.shape != dst.shape:
            raise ContractViolation("gradient shape mismatch")
        dst[...] = g
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    g, m, v = state.grad, state.m, state.v
    tmp, upd = state.work
    m *= b1                                        # m = b1 * m + (1 - b1) * g
    m += np.multiply(g, 1 - b1, out=tmp)
    v *= b2                                        # v = b2 * v + (1 - b2) * g * g
    np.multiply(g, 1 - b2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    np.divide(m, 1 - b1**t, out=upd)               # mhat / (sqrt(vhat) + eps)
    np.sqrt(np.divide(v, 1 - b2**t, out=tmp), out=tmp)
    upd /= np.add(tmp, state.eps, out=tmp)
    upd += np.multiply(state.param, state.weight_decay, out=tmp)
    upd *= state.lr
    state.param -= upd


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
    names = [f"{prefix}.{kind}{i}" for i in range(len(mlp.weights)) for kind in "wb"]
    return dict(zip(names, mlp.params()))


def stored_param(arrays: dict, name: str, shape: tuple) -> np.ndarray:
    """The parameter ``arrays[name]`` of a loaded checkpoint. A missing array
    raises KeyError, and one whose shape is not ``shape``, the one its stored
    config gives, ArtifactIOError; the caller names the file."""
    data = arrays[name]
    if data.shape != shape:
        raise ArtifactIOError(f"holds {name!r} of shape {data.shape}, "
                              f"where its config gives {shape}")
    return data


def mlp_from_arrays(prefix: str, arrays: dict, sizes, activation: str) -> Mlp:
    layers = list(enumerate(zip(sizes[:-1], sizes[1:])))
    return Mlp(
        weights=[stored_param(arrays, f"{prefix}.w{i}", (m, n)) for i, (m, n) in layers],
        biases=[stored_param(arrays, f"{prefix}.b{i}", (n,)) for i, (_, n) in layers],
        activation=activation,
    )
