"""Dense float64 tensors with tape-based reverse-mode differentiation.

The graph is implicit: every ``Tensor`` produced by an operation carries a
strictly increasing creation id and closures that push gradient into its
parents. ``backward`` walks the reachable subgraph in decreasing id order,
which is exactly reverse topological order because parents are always created
before children. The tape is rebuilt on every forward pass; nothing is reused.

All storage is 64-bit; there is no broadcasting surprise: elementwise ops
follow numpy broadcasting and gradients are un-broadcast by summation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractViolation, NumericFailure

_ids = itertools.count()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation tape.

    ``requires_grad`` marks leaves that accumulate gradients (parameters and
    inputs); interior nodes propagate whenever any ancestor requires grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id", "op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._id = next(_ids)
        self.op = op

    # -- introspection ----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.shape}, id={self._id})"

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data + other.data, _parents=(self, other), op="add")
        out._backward = lambda g: (
            _unbroadcast(g, self.shape),
            _unbroadcast(g, other.shape),
        )
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data - other.data, _parents=(self, other), op="sub")
        out._backward = lambda g: (
            _unbroadcast(g, self.shape),
            _unbroadcast(-g, other.shape),
        )
        return out

    def __rsub__(self, other):
        return _as_tensor(other) - self

    def __mul__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data * other.data, _parents=(self, other), op="mul")
        out._backward = lambda g: (
            _unbroadcast(g * other.data, self.shape),
            _unbroadcast(g * self.data, other.shape),
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data / other.data, _parents=(self, other), op="div")
        out._backward = lambda g: (
            _unbroadcast(g / other.data, self.shape),
            _unbroadcast(-g * self.data / other.data**2, other.shape),
        )
        return out

    def __neg__(self):
        out = Tensor(-self.data, _parents=(self,), op="neg")
        out._backward = lambda g: (-g,)
        return out

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ContractViolation("matmul is defined for 2-D tensors only")
        out = Tensor(self.data @ other.data, _parents=(self, other), op="matmul")
        out._backward = lambda g: (g @ other.data.T, self.data.T @ g)
        return out

    def __pow__(self, p):
        p = float(p)
        out = Tensor(self.data**p, _parents=(self,), op="pow")
        out._backward = lambda g: (g * p * self.data ** (p - 1),)
        return out

    # -- nonlinearities ---------------------------------------------------
    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, _parents=(self,), op="exp")
        out._backward = lambda g: (g * y,)
        return out

    def log(self):
        out = Tensor(np.log(self.data), _parents=(self,), op="log")
        out._backward = lambda g: (g / self.data,)
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, _parents=(self,), op="tanh")
        out._backward = lambda g: (g * (1.0 - y * y),)
        return out

    def sigmoid(self):
        y = 0.5 * (np.tanh(0.5 * self.data) + 1.0)
        out = Tensor(y, _parents=(self,), op="sigmoid")
        out._backward = lambda g: (g * y * (1.0 - y),)
        return out

    def relu(self):
        mask = self.data > 0
        out = Tensor(np.where(mask, self.data, 0.0), _parents=(self,), op="relu")
        out._backward = lambda g: (g * mask,)
        return out

    def clamp(self, lo, hi):
        """Value clamp; gradient is zero outside [lo, hi] (saturating)."""
        mask = (self.data >= lo) & (self.data <= hi)
        out = Tensor(np.clip(self.data, lo, hi), _parents=(self,), op="clamp")
        out._backward = lambda g: (g * mask,)
        return out

    # -- shape ------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,), op="reshape")
        out._backward = lambda g: (g.reshape(self.shape),)
        return out

    def transpose(self):
        if self.data.ndim != 2:
            raise ContractViolation("transpose is defined for 2-D tensors only")
        out = Tensor(self.data.T, _parents=(self,), op="transpose")
        out._backward = lambda g: (g.T,)
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), op="sum")

        def back(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        out._backward = back
        return out

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 _parents=tuple(tensors), op="concat")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out._backward = lambda g: tuple(np.split(g, splits, axis=axis))
    return out


def embedding(weight: Tensor, indices) -> Tensor:
    """Row gather: ``weight[indices]`` with scatter-add backward."""
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(weight.data[idx], _parents=(weight,), op="embedding")

    def back(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, idx.reshape(-1), g.reshape(-1, weight.data.shape[-1]))
        return (gw,)

    out._backward = back
    return out


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Numerically stable softmax built from primitive ops."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant, no grad
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Mean token cross-entropy, fused for stability.

    ``logits``: (N, V); ``targets``: (N,) int class ids; ``weights``: optional
    (N,) per-position weights (e.g. a padding mask). The mean is taken over
    the total weight.
    """
    if logits.data.ndim != 2:
        raise ContractViolation("logits must be (N, V)")
    tgt = np.asarray(targets, dtype=np.int64)
    n, _ = logits.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    denom = w.sum()
    if denom <= 0:
        raise ContractViolation("total weight must be positive")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    nll = lse - z[np.arange(n), tgt]
    out = Tensor((nll * w).sum() / denom, _parents=(logits,), op="xent")

    def back(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), tgt] -= 1.0
        return (g * p * (w / denom)[:, None],)

    out._backward = back
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss; populates ``.grad`` on leaves.

    Raises ``NumericFailure`` (carrying the node id) if a NaN appears in any
    propagated gradient, and ``ContractViolation`` for a non-scalar loss.
    """
    if loss.data.size != 1:
        raise ContractViolation("backward requires a scalar loss")
    if not np.isfinite(loss.data):
        raise NumericFailure("non-finite loss", where=loss._id)

    # Collect the reachable subgraph; decreasing id order is reverse-topological.
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        for p in node._parents:
            if p.requires_grad and p._id not in seen:
                stack.append(p)

    grads = {loss._id: np.ones_like(loss.data)}
    for nid in sorted(seen, reverse=True):
        node = seen[nid]
        g = grads.pop(nid, None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            if np.isnan(pg).any():
                raise NumericFailure("NaN gradient", where=node._id)
            if parent._id in grads:
                grads[parent._id] = grads[parent._id] + pg
            else:
                grads[parent._id] = pg


def gradients(loss: Tensor, params) -> list:
    """Run backward and return ``[p.grad]`` for each param (zeros if unused)."""
    for p in params:
        p.grad = None
    backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
