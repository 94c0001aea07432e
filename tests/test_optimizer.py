"""The flat optimizer step equals clipped AdamW run one array at a time, byte
for byte, and keeps every parameter a view of its buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt.autodiff import Tensor
from flowopt.errors import ContractViolation
from flowopt.nn import AdamState, clip_grad_norm, optimizer_step
from flowopt.rng import Rng


def per_array_adamw(data, grads_by_step, lr, weight_decay, clip):
    """Parameter values after each step of the per-array update the flat
    step replaced, the gradients clipped first when ``clip`` is set."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in data]
    v = [np.zeros_like(p) for p in data]
    after = []
    for t, grads in enumerate(grads_by_step, 1):
        if clip is not None:
            grads, _ = clip_grad_norm(grads, clip)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            data[i] = data[i] - lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * data[i])
        after.append([p.copy() for p in data])
    return after


shapes = st.lists(st.one_of(st.tuples(st.integers(1, 20)),
                            st.tuples(st.integers(1, 9), st.integers(1, 9))),
                  min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(shapes, st.sampled_from([None, 0.5, 5.0]), st.sampled_from([0.0, 1e-5]),
       st.integers(0, 2 ** 16))
def test_flat_step_equals_per_array_adamw(shapes, clip, weight_decay, seed):
    """Over five steps whose gradients grow 10-fold each, so a clip bites on
    some and not on others; a tenth of the entries are exactly zero."""
    r = Rng(seed)
    data = [r.split(("p", i)).normal(s) for i, s in enumerate(shapes)]
    grads_by_step = []
    for t in range(5):
        grads = [r.split(("g", t, i)).normal(s) * 10.0 ** (t - 2) for i, s in enumerate(shapes)]
        for i, g in enumerate(grads):
            g[r.split(("zero", t, i)).uniform(0.0, 1.0, g.shape) < 0.1] = 0.0
        grads_by_step.append(grads)
    want = per_array_adamw([p.copy() for p in data], grads_by_step, 1e-3, weight_decay, clip)
    params = [Tensor(p.copy()) for p in data]
    opt = AdamState.create(params, lr=1e-3, weight_decay=weight_decay)
    assert [p.data.tobytes() for p in params] == [p.tobytes() for p in data]
    for grads, values in zip(grads_by_step, want):
        if clip is not None:
            grads, _ = clip_grad_norm(grads, clip)
        optimizer_step(opt, params, grads)
        assert [p.data.tobytes() for p in params] == [p.tobytes() for p in values]
    assert opt.step == 5
    for p in params:
        assert p.data.ctypes.data % 64 == 0 and np.shares_memory(p.data, opt.data)


def test_step_refuses_a_rebound_parameter_or_a_misshapen_gradient():
    params = [Tensor(np.ones((2, 3))), Tensor(np.ones(4))]
    opt = AdamState.create(params)
    with pytest.raises(ContractViolation, match="gradient shape"):
        optimizer_step(opt, params, [np.ones((3, 2)), np.ones(4)])
    with pytest.raises(ContractViolation, match="length"):
        optimizer_step(opt, params, [np.ones((2, 3))])
    params[1].data = np.ones(4)
    with pytest.raises(ContractViolation, match="rebound"):
        optimizer_step(opt, params, [np.ones((2, 3)), np.ones(4)])
