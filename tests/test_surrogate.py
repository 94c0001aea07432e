import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt.errors import ContractViolation
from flowopt.nn import load_checkpoint, save_checkpoint
from flowopt.rng import Rng
from flowopt.surrogate import Surrogate, SurrogateConfig, fidelity
from flowopt.toyset import P1_BOUNDS, P2_BOUNDS

from conftest import finite_difference, rel_err


def small_config():
    return SurrogateConfig(latent_dim=4, hidden=16, layers=2)


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


def test_predict_vjp_gradient_matches_fd(model, rng):
    x = rng.normal((1, 4))

    def f(xv):
        return float(model.predict(xv)[0, 0])

    g = model.predict_vjp(x.copy())[1](np.array([[1.0, 0.0]]))[0]
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
    """All-equal target columns have zero variance and R² 0, also where the
    mean rounds (0.1 * 3 and 0.7 over 7 rows) and leaves ss_tot at rounding
    residue, not 0."""
    for y, shift in ((np.full((4, 2), 0.5), 0.1), (np.tile([0.1 * 3, 0.7], (7, 1)), 0.05)):
        _, r2 = fidelity(y + shift, y)
        assert r2 == [0.0, 0.0]


def test_checkpoint_round_trip(model, tmp_path, rng):
    path = tmp_path / "sur.ckpt"
    save_checkpoint(path, model.arrays(), model.meta())
    arrays, meta = load_checkpoint(path)
    back = Surrogate.from_checkpoint(arrays, meta)
    x = rng.normal((5, 4))
    assert np.array_equal(model.predict(x), back.predict(x))
