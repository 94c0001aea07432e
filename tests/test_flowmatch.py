import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt.errors import ContractViolation, NumericFailure
from flowopt.flowmatch import (FlowConfig, FlowField, fm_loss, integrate, interpolate,
                               sample_prior, train_flow)
from flowopt.nn import load_checkpoint, save_checkpoint
from flowopt.rng import Rng

from conftest import tape_fm_loss


def small_config(**kw):
    base = dict(K=2, d=3, hidden=16, layers=2, time_embed_dim=4,
                batch_size=16, steps=20, sample_steps=10)
    base.update(kw)
    return FlowConfig(**base)


@pytest.fixture
def field(rng):
    return FlowField(small_config(), rng.split("field"))


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1, allow_nan=False))
def test_interpolate_endpoints_and_linearity(t):
    rng = Rng(8)
    z0, z1 = rng.normal((4, 6)), rng.normal((4, 6))
    zt, target = interpolate(z0, z1, t)
    assert np.allclose(zt, (1 - t) * z0 + t * z1)
    assert np.array_equal(target, z1 - z0)


def test_interpolate_exact_endpoints(rng):
    z0, z1 = rng.normal((2, 3)), rng.normal((2, 3))
    assert np.array_equal(interpolate(z0, z1, 0.0)[0], z0)
    assert np.array_equal(interpolate(z0, z1, 1.0)[0], z1)


def test_interpolate_contracts(rng):
    z0, z1 = rng.normal((2, 3)), rng.normal((2, 4))
    with pytest.raises(ContractViolation):
        interpolate(z0, z1, 0.5)
    with pytest.raises(ContractViolation):
        interpolate(z0[:, :3], z0[:, :3], 1.5)


def test_interpolate_per_sample_times(rng):
    z0, z1 = rng.normal((3, 2, 4)), rng.normal((3, 2, 4))
    t = np.array([0.0, 0.5, 1.0])
    zt, _ = interpolate(z0, z1, t)
    assert np.array_equal(zt[0], z0[0])
    assert np.array_equal(zt[2], z1[2])
    assert np.allclose(zt[1], 0.5 * (z0[1] + z1[1]))


def test_velocity_shapes(field, rng):
    c = field.config
    for B in (1, 3):
        v = field.velocity(rng.normal((B, c.K, c.d)), 0.3)
        assert v.shape == (B, c.K, c.d)
        assert np.isfinite(v).all()


def test_fm_loss_nonnegative(field, rng):
    c = field.config
    z0 = rng.normal((5, c.K, c.d))
    z1 = rng.normal((5, c.K, c.d))
    t = rng.uniform(0, 1, (5,))
    loss, grads = fm_loss(field, z0, z1, t)
    assert isinstance(loss, float) and loss >= 0.0
    assert [g.shape for g in grads] == [p.data.shape for p in field.params()]


def test_fm_loss_empty_batch(field):
    with pytest.raises(ContractViolation):
        fm_loss(field, np.zeros((0, 2, 3)), np.zeros((0, 2, 3)), np.zeros(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 16))
def test_fm_loss_equals_tape(B, K, d, layers, seed):
    """Loss and every parameter's gradient equal a tape over the reference
    net bit for bit."""
    r = Rng(seed)
    field = FlowField(small_config(K=K, d=d, layers=layers), r.split("field"))
    for i, p in enumerate(field.params()):
        p.data = p.data + 0.3 * r.split(("jitter", i)).normal(p.data.shape)
    z0, z1 = r.split("z0").normal((B, K, d)), r.split("z1").normal((B, K, d)) * 2.0
    t = r.split("t").uniform(0.0, 1.0, (B,))
    loss, grads = fm_loss(field, z0, z1, t)
    want_loss, want = tape_fm_loss(field, z0, z1, t)
    assert loss == want_loss
    assert len(grads) == len(want) == len(field.params())
    assert all(map(np.array_equal, grads, want))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_flow_non_finite_latents_raise(rng, bad):
    cfg = small_config(steps=3)
    field = FlowField(cfg, rng.split("f"))

    def sampler(r, n):
        z = r.normal((n, cfg.K, cfg.d))
        z[0, 0, 0] = bad
        return z

    with pytest.raises(NumericFailure, match="non-finite flow-matching loss"):
        train_flow(field, sampler, rng.split("t"))


def test_train_flow_reduces_loss_on_point_mass(rng, monkeypatch):
    """A constant target makes the regression exactly solvable."""
    monkeypatch.setattr("flowopt.flowmatch.LR", 5e-3)  # converge in few steps
    cfg = small_config(steps=150)
    field = FlowField(cfg, rng.split("f"))
    target = rng.normal((cfg.K, cfg.d)) * 2.0

    def sampler(r, n):
        return np.repeat(target[None], n, axis=0)

    hist = train_flow(field, sampler, rng.split("t"))
    assert np.mean(hist[-10:]) < np.mean(hist[:10])


def test_sample_prior_deterministic(field):
    a = sample_prior(field, [Rng(4), Rng(5)])
    b = sample_prior(field, [Rng(4), Rng(5)])
    assert np.array_equal(a, b)
    assert a.shape == (2, field.config.K, field.config.d)


def test_sample_prior_contracts(field, rng):
    with pytest.raises(ContractViolation):
        sample_prior(field, [rng], steps=0)
    with pytest.raises(ContractViolation):
        integrate(field, rng.normal((1, 2, 3)), 1.0, 5)
    with pytest.raises(ContractViolation):
        integrate(field, rng.normal((1, 2, 3)), 0.5, 0)


def test_integrate_from_partial_time(field, rng):
    c = field.config
    z = rng.normal((1, c.K, c.d))
    out = integrate(field, z, 0.5, 5)
    assert out.shape == (1, c.K, c.d) and not np.array_equal(out, z)
    # sample_prior integrates each row's own noise from t=0
    assert np.array_equal(sample_prior(field, [Rng(3)], steps=5),
                          integrate(field, Rng(3).normal((1, c.K, c.d)), 0.0, 5))


def test_train_flow_deterministic():
    cfg = small_config(steps=10)
    outs = []
    for _ in range(2):
        rng = Rng(21)
        field = FlowField(cfg, rng.split("f"))
        train_flow(field, lambda r, n: r.normal((n, cfg.K, cfg.d)), rng.split("t"))
        outs.append([p.data.copy() for p in field.params()])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_checkpoint_round_trip(field, tmp_path, rng):
    path = tmp_path / "flow.ckpt"
    save_checkpoint(path, field.arrays(), field.meta())
    arrays, meta = load_checkpoint(path)
    back = FlowField.from_checkpoint(arrays, meta)
    c = field.config
    z = rng.normal((3, c.K, c.d))
    assert np.array_equal(field.velocity(z, 0.7), back.velocity(z, 0.7))
