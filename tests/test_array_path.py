"""Property tests: frozen inference on arrays equals the tape, bit for bit.

``Mlp.forward``/``Mlp.input_grad``, ``FlowField.velocity``,
``Surrogate.predict`` and ``guidance.objective_gradient`` run the tape's ops
in the tape's order on plain arrays, so each must equal the tape value it
stands for with ``==``, over batches of 1 to 64 rows. A guard checks that
guided inference builds no tape at all.
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

from conftest import tape_objective_gradient

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


@settings(max_examples=60, deadline=None)
@given(rows, st.lists(widths, min_size=2, max_size=5), activations, seeds)
def test_mlp_forward_and_input_grad_equal_tape(B, sizes, activation, seed):
    mlp = jittered_mlp(sizes, activation, seed)
    x = Rng(seed).split("x").normal((B, sizes[0])) * 2.0
    g = Rng(seed).split("g").normal((B, sizes[-1]))
    xt = Tensor(x, requires_grad=True)
    out = mlp(xt)
    (want,) = ad.gradients((out * Tensor(g)).sum(), [xt])
    acts = mlp.forward(x)
    assert len(acts) == len(sizes)
    assert np.array_equal(acts[-1], out.data)
    assert np.array_equal(mlp.input_grad(acts, g), want)


@settings(max_examples=40, deadline=None)
@given(rows, st.integers(1, 4), widths, seeds, st.sampled_from(["shared", "per-row", "ends"]))
def test_velocity_equals_velocity_graph(B, K, d, seed, times):
    field, _ = small_models(seed, K, d, 8, 3)
    r = Rng(seed)
    z = r.split("z").normal((B, K, d)) * 2.0
    t = {"shared": 0.37, "per-row": r.split("t").uniform(0.0, 1.0, B),
         "ends": np.resize([0.0, 1.0], B)}[times]
    want = field.velocity_graph(Tensor(z.reshape(B, K * d)), t).data
    assert np.array_equal(field.velocity(z, t), want.reshape(B, K, d))


@settings(max_examples=20, deadline=None)
@given(rows, st.integers(1, 4), widths, seeds, st.lists(unit.map(lambda t: t / 3.0),
                                                         min_size=1, max_size=4))
def test_velocity_at_repeated_times_equals_velocity_graph(B, K, d, seed, times):
    """Scalar times read memoized embedding rows: fields of several embedding
    widths, each asked twice at every time, in one process, equal
    ``velocity_graph`` at the same time as a per-row vector, which bypasses
    the memo."""
    r = Rng(seed)
    z = r.split("z").normal((B, K, d)) * 2.0
    for dim in (2, 4, 6, 16):
        field = FlowField(FlowConfig(K=K, d=d, hidden=8, layers=2, time_embed_dim=dim),
                          r.split(("field", dim)))
        for t in times + times:
            want = field.velocity_graph(Tensor(z.reshape(B, K * d)), np.full(B, t)).data
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
    assert np.array_equal(sur.predict(pooled), sur.predict_graph(Tensor(pooled)).data)


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
