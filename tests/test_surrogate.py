import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowopt.autodiff as ad
from flowopt.autodiff import Tensor
from flowopt.errors import ContractViolation
from flowopt.nn import load_checkpoint, save_checkpoint
from flowopt.rng import Rng
from flowopt.surrogate import (P1_BOUNDS, P2_BOUNDS, Surrogate, SurrogateConfig,
                               FidelityReport, fidelity, fit_surrogate, prop_loss)

from conftest import finite_difference, rel_err


def small_config(**kw):
    base = dict(latent_dim=4, hidden=16, layers=2, epochs=5, batch_size=16)
    base.update(kw)
    return SurrogateConfig(**base)


@pytest.fixture
def model(rng):
    return Surrogate(small_config(), rng.split("sur"))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-1e3, 1e3, allow_nan=False))
def test_predictions_bounded_for_any_input(seed, scale):
    rng = Rng(seed)
    model = Surrogate(small_config(), rng.split("m"))
    x = rng.normal((3, 4)) * scale
    pred = model.predict(x)
    assert (pred[:, 0] >= P1_BOUNDS[0]).all() and (pred[:, 0] <= P1_BOUNDS[1]).all()
    assert (pred[:, 1] >= P2_BOUNDS[0]).all() and (pred[:, 1] <= P2_BOUNDS[1]).all()


def test_predict_single_vector_shape(model, rng):
    out = model.predict(rng.normal((1, 4)))
    assert out.shape == (1, 2)
    # one pooled vector is a batch of one; a bare (d,) vector is rejected
    with pytest.raises(ContractViolation):
        model.predict(rng.normal(4))


def test_predict_rejects_nonfinite(model):
    with pytest.raises(ContractViolation):
        model.predict(np.array([[np.nan, 0.0, 0.0, 0.0]]))


def test_prop_loss_symmetric_nonnegative(rng):
    a, b = rng.normal((5, 2)), rng.normal((5, 2))
    la = prop_loss(a, b).item()
    lb = prop_loss(b, a).item()
    assert la == lb >= 0.0
    assert prop_loss(a, a).item() == 0.0


def test_prop_loss_shape_mismatch(rng):
    with pytest.raises(ContractViolation):
        prop_loss(rng.normal((3, 2)), rng.normal((4, 2)))


def test_predict_graph_gradient_matches_fd(model, rng):
    x = rng.normal((1, 4))

    def f(xv):
        return float(model.predict(xv)[0, 0])

    xt = Tensor(x.copy(), requires_grad=True)
    pred = model.predict_graph(xt)
    (g,) = ad.gradients((pred * Tensor(np.array([[1.0, 0.0]]))).sum(), [xt])
    assert rel_err(g, finite_difference(f, x.copy())) < 1e-5


def test_fidelity_perfect_prediction():
    y = np.array([[0.1, 2.0], [0.6, 5.0], [0.9, 8.0]])
    mse, r2 = fidelity(y, y)
    assert mse == [0.0, 0.0]
    assert r2 == [1.0, 1.0]


def test_fidelity_mean_predictor_r2_zero():
    y = np.array([[0.0, 1.0], [1.0, 3.0]])
    pred = np.repeat(y.mean(axis=0, keepdims=True), 2, axis=0)
    _, r2 = fidelity(pred, y)
    assert np.allclose(r2, 0.0)


def test_fidelity_degenerate_targets():
    y = np.full((4, 2), 0.5)
    _, r2 = fidelity(y + 0.1, y)
    assert r2 == [0.0, 0.0]


def test_fit_surrogate_learns_linear_map(rng):
    # targets within the head bounds, linear in the latent
    x = rng.normal((400, 4))
    w = np.array([0.2, -0.1, 0.15, 0.05])
    y = np.stack([0.5 + x @ w * 0.3, 5.0 + x @ w], axis=1)
    y[:, 0] = np.clip(y[:, 0], 0.05, 0.95)
    y[:, 1] = np.clip(y[:, 1], 1.2, 9.8)
    model, report = fit_surrogate(x, y, small_config(epochs=30), rng.split("fit"))
    assert isinstance(report, FidelityReport)
    assert report.n_train + report.n_holdout == 400
    assert min(report.r2) > 0.5


def test_fit_surrogate_deterministic(rng):
    x = Rng(3).normal((50, 4))
    y = np.stack([np.clip(x[:, 0] * 0.1 + 0.5, 0, 1),
                  np.clip(x[:, 1] + 5, 1, 10)], axis=1)
    m1, r1 = fit_surrogate(x, y, small_config(), Rng(9))
    m2, r2 = fit_surrogate(x, y, small_config(), Rng(9))
    for p1, p2 in zip(m1.params(), m2.params()):
        assert np.array_equal(p1.data, p2.data)
    assert r1.mse == r2.mse


def test_fit_surrogate_empty_rejected(rng):
    with pytest.raises(ContractViolation):
        fit_surrogate(np.zeros((0, 4)), np.zeros((0, 2)), small_config(), rng)


def test_checkpoint_round_trip(model, tmp_path, rng):
    path = tmp_path / "sur.ckpt"
    save_checkpoint(path, model.arrays(), model.meta())
    arrays, meta = load_checkpoint(path)
    back = Surrogate.from_checkpoint(arrays, meta)
    x = rng.normal((5, 4))
    assert np.array_equal(model.predict(x), back.predict(x))
