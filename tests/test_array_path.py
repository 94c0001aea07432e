"""Property tests: the array MLP and frozen inference equal the tape, bit for bit.

``Mlp.forward``/``Mlp.backward``, ``FlowField.velocity``,
``Surrogate.predict`` and ``guidance.objective_gradient`` must each equal,
with ``==``, a reference tape built layer by layer from primitive ``Tensor``
ops (``conftest.tape_mlp``), over batches of 1 to 64 rows. A guard checks
that guided inference builds no tape at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import autodiff as ad, flowmatch
from flowopt.autodiff import Tensor
from flowopt.flowmatch import FlowConfig, FlowField, integrate
from flowopt.guidance import (GuidanceConfig, ObjectiveSpec, gradient_ascent_baseline,
                              guided_integrate, objective_gradient)
from flowopt.nn import Mlp
from flowopt.rng import Rng
from flowopt.seqvae import mean_pool
from flowopt.surrogate import Surrogate, SurrogateConfig

from conftest import tape_mlp, tape_objective_gradient, tape_predict, tape_velocity

rows = st.integers(1, 64)
widths = st.integers(1, 8)
seeds = st.integers(0, 2 ** 16)
activations = st.sampled_from(["tanh", "relu", "sigmoid"])
unit = st.floats(0.0, 3.0, allow_nan=False)
specs = st.one_of(
    st.builds(lambda w, c: ObjectiveSpec(mode="target", weights=w, targets=c),
              st.tuples(unit, unit), st.tuples(unit, unit)),
    st.builds(lambda s: ObjectiveSpec(mode="directional", signs=s),
              st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))))
clips = st.sampled_from([None, 0.05, 5.0])


def jittered_mlp(sizes, activation, seed):
    """An MLP with nonzero biases, so relu units sit on both sides of the kink."""
    r = Rng(seed)
    mlp = Mlp.create(sizes, r.split("init"), activation=activation)
    for i, p in enumerate(mlp.params()):
        p.data = p.data + 0.3 * r.split(("jitter", i)).normal(p.data.shape)
    return mlp


def small_models(seed, K, d, hidden, layers):
    r = Rng(seed)
    field = FlowField(FlowConfig(K=K, d=d, hidden=hidden, layers=layers, time_embed_dim=4),
                      r.split("field"))
    sur = Surrogate(SurrogateConfig(latent_dim=d, hidden=hidden, layers=layers),
                    r.split("sur"))
    return field, sur


@settings(max_examples=80, deadline=None)
@given(rows, st.lists(widths, min_size=2, max_size=5), activations, seeds, st.booleans(),
       st.lists(st.booleans(), min_size=8, max_size=8))
def test_mlp_forward_and_backward_equal_tape(B, sizes, activation, seed, wrt_input, frozen):
    """``backward`` gives the reference tape's input gradient (None unless
    ``wrt_input``) and each trainable parameter's gradient (None for a frozen
    one), and the one-node tape of ``Mlp.__call__`` gives the same."""
    mlp = jittered_mlp(sizes, activation, seed)
    params = mlp.params()
    for p, off in zip(params, frozen):
        p.requires_grad = not off
    trainable = [p for p in params if p.requires_grad]
    x = Rng(seed).split("x").normal((B, sizes[0])) * 2.0
    g = Rng(seed).split("g").normal((B, sizes[-1]))
    xt = Tensor(x, requires_grad=wrt_input)
    out = tape_mlp(mlp, xt)
    want = ad.gradients((out * Tensor(g)).sum(), trainable + [xt])
    acts = mlp.forward(x)
    assert len(acts) == len(sizes)
    assert np.array_equal(acts[-1], out.data)
    gx, *grads = mlp.backward(acts, g, wrt_input=wrt_input)
    assert np.array_equal(gx, want[-1]) if wrt_input else gx is None
    got = [gp for p, gp in zip(params, grads) if p.requires_grad]
    assert all(gp is None for p, gp in zip(params, grads) if not p.requires_grad)
    assert len(got) == len(trainable) and all(map(np.array_equal, got, want))
    node = mlp(xt)
    assert node.op == "mlp" and np.array_equal(node.data, out.data)
    on_node = ad.gradients((node * Tensor(g)).sum(), trainable + [xt])
    assert all(map(np.array_equal, on_node[:-1], want[:-1]))
    assert not wrt_input or np.array_equal(on_node[-1], want[-1])


@settings(max_examples=40, deadline=None)
@given(rows, st.integers(1, 4), widths, seeds, st.sampled_from(["shared", "per-row", "ends"]))
def test_velocity_equals_reference_net(B, K, d, seed, times):
    field, _ = small_models(seed, K, d, 8, 3)
    r = Rng(seed)
    z = r.split("z").normal((B, K, d)) * 2.0
    t = {"shared": 0.37, "per-row": r.split("t").uniform(0.0, 1.0, B),
         "ends": np.resize([0.0, 1.0], B)}[times]
    want = tape_velocity(field, z, t).data
    assert np.array_equal(field.velocity(z, t), want.reshape(B, K, d))


@settings(max_examples=20, deadline=None)
@given(rows, st.integers(1, 4), widths, seeds, st.lists(unit.map(lambda t: t / 3.0),
                                                         min_size=1, max_size=4))
def test_velocity_at_repeated_times_equals_reference_net(B, K, d, seed, times):
    """Scalar times read memoized embedding rows: fields of several embedding
    widths, each asked twice at every time, in one process, equal the
    reference net at the same time as a per-row vector, which bypasses the
    memo."""
    r = Rng(seed)
    z = r.split("z").normal((B, K, d)) * 2.0
    for dim in (2, 4, 6, 16):
        field = FlowField(FlowConfig(K=K, d=d, hidden=8, layers=2, time_embed_dim=dim),
                          r.split(("field", dim)))
        for t in times + times:
            want = tape_velocity(field, z, np.full(B, t)).data
            assert np.array_equal(field.velocity(z, t), want.reshape(B, K, d))


def test_memoized_time_rows_are_read_only():
    row = flowmatch._time_row(0.25, 4)
    assert row.shape == (1, 4) and flowmatch._time_row(0.25, 4) is row
    with pytest.raises(ValueError, match="read-only"):
        row[0, 0] = 1.0


@settings(max_examples=40, deadline=None)
@given(rows, widths, seeds, st.floats(0.1, 30.0))
def test_predict_equals_predict_graph(B, d, seed, scale):
    _, sur = small_models(seed, 1, d, 8, 3)
    pooled = Rng(seed).split("x").normal((B, d)) * scale
    want = tape_predict(sur, Tensor(pooled)).data
    assert np.array_equal(sur.predict(pooled), want)
    assert np.array_equal(sur.predict_graph(Tensor(pooled)).data, want)


@settings(max_examples=60, deadline=None)
@given(rows, st.integers(1, 4), widths, seeds, specs, st.booleans(), clips)
def test_objective_gradient_equals_tape(B, K, d, seed, spec, normalize, clip):
    _, sur = small_models(seed, K, d, 8, 3)
    z = Rng(seed).split("z").normal((B, K, d)) * 2.0
    j, g = objective_gradient(spec, sur, z, normalize=normalize, clip_norm=clip)
    want_j, want_g = tape_objective_gradient(spec, sur, z, normalize, clip)
    assert np.array_equal(j, want_j) and np.array_equal(g, want_g)


def test_frozen_inference_builds_no_tape(monkeypatch):
    """Guided steps, gradient descent, flow integration and prediction stay on arrays."""
    field, sur = small_models(3, 2, 3, 8, 3)
    spec = ObjectiveSpec.maximize_p1_minimize_p2()
    z = Rng(3).normal((5, 2, 3))

    def no_tensor(*args, **kwargs):
        raise AssertionError("frozen inference built an autodiff.Tensor")

    monkeypatch.setattr(Tensor, "__init__", no_tensor)
    for gamma in (0.0, 5.0):
        guided_integrate(field, sur, spec, GuidanceConfig(gamma=gamma, steps=3), z)
    gradient_ascent_baseline(sur, spec, z, 0.3, 3)
    integrate(field, z, 0.0, 3)
    sur.predict(mean_pool(z))
    with pytest.raises(AssertionError, match="autodiff.Tensor"):
        Tensor(np.zeros(1))
