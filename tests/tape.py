"""Dense float64 tensors with tape-based reverse-mode differentiation: the
tests' reference.

The program trains and infers on arrays, and ``flowopt.autodiff.Tensor`` only
holds its parameters. The array pullbacks (``SeqVae.backward``,
``Mlp.backward``, the surrogate's and guidance's) take this tape's ops in its
order and so have its bits; the property tests compare them with ``==``.
``conftest.on_tape`` lifts a model's parameters onto leaves of this tape.

The graph is implicit: every ``Tensor`` carries a strictly increasing
creation id, and an operation's output records its parents and a closure that
pushes gradient into them. Only what a grad-requiring leaf feeds is recorded:
an output whose inputs all have ``requires_grad`` off keeps no parents and no
closure, and a closure computes the gradients of its grad-requiring parents
only. So a tape over frozen parameters holds just the path to its
grad-requiring inputs. ``backward`` walks the recorded subgraph in decreasing
id order, which is exactly reverse topological order because parents are
always created before children. The tape is rebuilt on every forward pass;
nothing is reused.

All storage is 64-bit; there is no broadcasting surprise: elementwise ops
follow numpy broadcasting and gradients are un-broadcast by summation.
"""

from __future__ import annotations

import itertools

import numpy as np

from flowopt.errors import ContractViolation, NumericFailure

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
    inputs); interior nodes propagate whenever any ancestor requires grad, and
    only those keep ``_parents`` and ``_backward``. ``_backward(g)`` returns
    one gradient per parent, None for a parent that does not require grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id", "op")

    def __init__(self, data, requires_grad=False, _parents=(), op="leaf", _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        for p in _parents:  # a plain loop: ``any`` over a generator costs more here
            if requires_grad:
                break
            requires_grad = p.requires_grad
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
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
        return Tensor(self.data + other.data, _parents=(self, other), op="add",
                      _backward=lambda g: (
                          _unbroadcast(g, self.shape) if self.requires_grad else None,
                          _unbroadcast(g, other.shape) if other.requires_grad else None))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tensor(other)
        return Tensor(self.data - other.data, _parents=(self, other), op="sub",
                      _backward=lambda g: (
                          _unbroadcast(g, self.shape) if self.requires_grad else None,
                          _unbroadcast(-g, other.shape) if other.requires_grad else None))

    def __rsub__(self, other):
        return _as_tensor(other) - self

    def __mul__(self, other):
        other = _as_tensor(other)
        return Tensor(self.data * other.data, _parents=(self, other), op="mul",
                      _backward=lambda g: (
                          _unbroadcast(g * other.data, self.shape) if self.requires_grad else None,
                          _unbroadcast(g * self.data, other.shape)
                          if other.requires_grad else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        return Tensor(self.data / other.data, _parents=(self, other), op="div",
                      _backward=lambda g: (
                          _unbroadcast(g / other.data, self.shape) if self.requires_grad else None,
                          _unbroadcast(-g * self.data / other.data**2, other.shape)
                          if other.requires_grad else None))

    def __neg__(self):
        return Tensor(-self.data, _parents=(self,), op="neg",
                      _backward=lambda g: (-g,))

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ContractViolation("matmul is defined for 2-D tensors only")
        return Tensor(self.data @ other.data, _parents=(self, other), op="matmul",
                      _backward=lambda g: (g @ other.data.T if self.requires_grad else None,
                                           self.data.T @ g if other.requires_grad else None))

    def __pow__(self, p):
        p = float(p)
        return Tensor(self.data**p, _parents=(self,), op="pow",
                      _backward=lambda g: (g * p * self.data ** (p - 1),))

    # -- nonlinearities ---------------------------------------------------
    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, _parents=(self,), op="exp",
                      _backward=lambda g: (g * y,))

    def log(self):
        return Tensor(np.log(self.data), _parents=(self,), op="log",
                      _backward=lambda g: (g / self.data,))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, _parents=(self,), op="tanh",
                      _backward=lambda g: (g * (1.0 - y * y),))

    def sigmoid(self):
        y = 0.5 * (np.tanh(0.5 * self.data) + 1.0)
        return Tensor(y, _parents=(self,), op="sigmoid",
                      _backward=lambda g: (g * y * (1.0 - y),))

    def relu(self):
        mask = self.data > 0
        return Tensor(np.where(mask, self.data, 0.0), _parents=(self,), op="relu",
                      _backward=lambda g: (g * mask,))

    def clamp(self, lo, hi):
        """Value clamp; gradient is zero outside [lo, hi] (saturating)."""
        mask = (self.data >= lo) & (self.data <= hi)
        return Tensor(np.clip(self.data, lo, hi), _parents=(self,), op="clamp",
                      _backward=lambda g: (g * mask,))

    # -- shape ------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(self.data.reshape(shape), _parents=(self,), op="reshape",
                      _backward=lambda g: (g.reshape(self.shape),))

    def transpose(self):
        if self.data.ndim != 2:
            raise ContractViolation("transpose is defined for 2-D tensors only")
        return Tensor(self.data.T, _parents=(self,), op="transpose",
                      _backward=lambda g: (g.T,))

    def rows(self, start, stop):
        """Rows ``start:stop``; the gradient is zero outside them."""
        def back(g):
            gx = np.zeros_like(self.data)
            gx[start:stop] = g
            return (gx,)

        return Tensor(self.data[start:stop], _parents=(self,), op="rows", _backward=back)

    def sum(self, axis=None, keepdims=False):
        def back(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), op="sum",
                      _backward=back)

    def mean(self, axis=None):
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis) * (1.0 / n)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), op="concat",
                  _backward=lambda g: tuple(part if t.requires_grad else None for t, part
                                            in zip(tensors, np.split(g, splits, axis=axis))))


def embedding(weight: Tensor, indices) -> Tensor:
    """Row gather: ``weight[indices]`` of a (V, D) weight and nonnegative
    indices, with scatter-add backward."""
    idx = np.asarray(indices, dtype=np.int64)

    def back(g):
        # One bincount over the flat bins row * width + col adds each bin's
        # gradients in index order, as np.add.at would, at a fraction of its cost.
        n_rows, width = weight.data.shape
        bins = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        return (np.bincount(bins, weights=g.reshape(-1),
                            minlength=n_rows * width).reshape(n_rows, width),)

    return Tensor(weight.data[idx], _parents=(weight,), op="embedding", _backward=back)


def scatter_rows(x: Tensor, index, n_rows: int) -> Tensor:
    """Rows placed in a zero array: row ``i`` of ``x`` at row ``index[i]`` of
    an ``(n_rows, ...)`` output. ``index`` must hold distinct rows, so the
    backward is the gather ``g[index]``."""
    idx = np.asarray(index, dtype=np.int64)
    out = np.zeros((n_rows,) + x.shape[1:])
    out[idx] = x.data
    return Tensor(out, _parents=(x,), op="scatter_rows", _backward=lambda g: (g[idx],))


def attention_pool(attn: Tensor, h: Tensor) -> Tensor:
    """Attention-weighted sum over positions: (B, L, K) weights and (B, L, H)
    features give the (B, K, H) ``out[b, k] = sum_l attn[b, l, k] * h[b, l]``.

    One tape op of batched matmuls, ``attnᵀ @ h`` forward and ``h @ gᵀ``,
    ``attn @ g`` backward, so neither direction forms the (B, L, K, H)
    product. The matmuls sum in BLAS order, not in the broadcast formula's
    ``(attn[..., None] * h[:, :, None, :]).sum(axis=1)``: the two agree within
    1e-12, not bit for bit.
    """
    a, x = attn.data, h.data
    if a.ndim != 3 or x.ndim != 3 or a.shape[:2] != x.shape[:2]:
        raise ContractViolation("attention_pool takes (B, L, K) weights and (B, L, H) features")
    return Tensor(np.matmul(a.transpose(0, 2, 1), x), _parents=(attn, h), op="attention_pool",
                  _backward=lambda g: (
                      np.matmul(x, g.transpose(0, 2, 1)) if attn.requires_grad else None,
                      np.matmul(a, g) if h.requires_grad else None))


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Numerically stable softmax built from primitive ops."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant, no grad
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean token cross-entropy over the rows, fused for stability.

    ``logits``: (N, V) with N >= 1; ``targets``: (N,) int class ids.
    """
    if logits.data.ndim != 2:
        raise ContractViolation("logits must be (N, V)")
    tgt = np.asarray(targets, dtype=np.int64)
    n, _ = logits.shape
    if n == 0:
        raise ContractViolation("cross-entropy needs at least one row")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    nll = lse - z[np.arange(n), tgt]

    def back(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), tgt] -= 1.0
        return (g * p * (1.0 / n),)

    return Tensor(nll.sum() / n, _parents=(logits,), op="xent", _backward=back)


def _has_nan(a: np.ndarray) -> bool:
    """``np.isnan(a).any()`` without the boolean array: ``min`` propagates
    NaN, and ±inf alone never makes it NaN."""
    return a.size > 0 and bool(np.isnan(a.min()))


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss; populates ``.grad`` on leaves.

    Only grad-requiring nodes are recorded, so the pass visits just the paths
    from ``loss`` to grad-requiring leaves; a leaf whose ``requires_grad`` is
    off gets no gradient, and none is computed for it. Raises
    ``NumericFailure`` (carrying the node id) if a NaN appears in any
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
            if _has_nan(pg):
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
