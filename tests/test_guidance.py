import numpy as np
import pytest

from flowopt.errors import ContractViolation, NumericFailure
from flowopt.flowmatch import FlowConfig, FlowField, integrate, sample_prior
from flowopt.guidance import (CLIP_NORM, GuidanceConfig, ObjectiveSpec,
                              gradient_ascent_baseline, guided_integrate, guided_steps,
                              objective_gradient, objective_value, prepare_optimization)
from flowopt.rng import Rng
from flowopt.seqvae import PosteriorParams, SeqVae, VaeConfig, mean_pool, reparameterize
from flowopt.surrogate import Surrogate, SurrogateConfig

from conftest import finite_difference, guided_rows, rel_err

K, D = 2, 3


class LinearSurrogate:
    """Exact linear head: pred = pooled @ W + b; J is then analytic."""

    def __init__(self, w, b=(0.0, 0.0)):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    def predict(self, x):
        return x @ self.w + self.b

    def predict_vjp(self, x, wrt_params=True):
        # It has no parameters, so the pullback gives the input's gradient alone.
        return self.predict(x), lambda g: (g @ self.w.T,)


@pytest.fixture
def field(rng):
    cfg = FlowConfig(K=K, d=D, hidden=16, layers=2, time_embed_dim=4,
                     batch_size=8, steps=5, sample_steps=10)
    return FlowField(cfg, rng.split("field"))


@pytest.fixture
def surrogate(rng):
    return Surrogate(SurrogateConfig(latent_dim=D, hidden=16, layers=2), rng.split("sur"))


# -- objective specs ------------------------------------------------------

def test_objective_spec_validation():
    with pytest.raises(ContractViolation):
        ObjectiveSpec(mode="nope")
    with pytest.raises(ContractViolation):
        ObjectiveSpec(mode="target")  # targets missing
    with pytest.raises(ContractViolation):
        ObjectiveSpec(mode="target", targets=(0.5, 5.0), weights=(-1.0, 1.0))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", ["weights", "targets"])
def test_objective_spec_needs_one_entry_per_property(name, n):
    """A vector of the wrong length is refused, not broadcast over the properties."""
    good = {"weights": (1.0, 1.0), "targets": (0.5, 3.0)}
    bad = {"weights": (1.0,) * n, "targets": (0.5,) * n}[name]
    for mode in ("target", "directional"):
        with pytest.raises(ContractViolation, match=f"{name} needs one entry per property"):
            ObjectiveSpec(mode=mode, **{**good, name: bad})


def test_objective_value_target_mode_analytic():
    spec = ObjectiveSpec(mode="target", weights=(2.0, 0.5), targets=(0.5, 3.0))
    assert objective_value(spec, [0.5, 3.0]) == 0.0
    assert objective_value(spec, [1.5, 1.0]) == pytest.approx(2.0 * 1.0 + 0.5 * 4.0)


def test_objective_value_directional_analytic():
    spec = ObjectiveSpec(mode="directional")
    # improving p1 lowers J, improving (lowering) p2 lowers J
    assert objective_value(spec, [0.9, 2.0]) < objective_value(spec, [0.1, 2.0])
    assert objective_value(spec, [0.5, 2.0]) < objective_value(spec, [0.5, 8.0])


# -- objective gradient ---------------------------------------------------

def test_gradient_matches_fd_both_modes(rng):
    specs = [ObjectiveSpec(mode="target", weights=(1.0, 0.5), targets=(0.8, 2.5)),
             ObjectiveSpec(mode="directional")]
    for case in range(50):
        r = rng.split(case)
        model = Surrogate(SurrogateConfig(latent_dim=D, hidden=12, layers=2),
                          r.split("m"))
        z = r.normal((1, K, D))
        spec = specs[case % 2]

        def f(zv):
            return objective_value(spec, model.predict(mean_pool(zv)))

        _, g = objective_gradient(spec, model, z)
        assert rel_err(g, finite_difference(f, z.copy())) < 1e-5


def test_gradient_linear_surrogate_exact():
    w = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2]])
    model = LinearSurrogate(w)
    spec = ObjectiveSpec(mode="directional")
    z = Rng(3).normal((1, K, D))
    # J = -(pred1 - pred2) => dJ/dpooled = -(w[:,0] - w[:,1]); pooling averages
    expected = np.tile(-(w[:, 0] - w[:, 1]) / K, (1, K, 1))
    _, g = objective_gradient(spec, model, z)
    assert np.allclose(g, expected, atol=1e-12)


def test_gradient_normalize_or_clip():
    """The integrator scales each raw row to unit norm, or clips it to
    ``CLIP_NORM``: a normalized row is never clipped, and either keeps its
    direction."""
    w = np.array([[30.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    _, raw = objective_gradient(ObjectiveSpec(mode="directional"), LinearSurrogate(w),
                                Rng(5).normal((1, K, D)))
    raw = raw.reshape(1, -1)
    assert np.linalg.norm(raw) > CLIP_NORM
    unit, clipped = guided_rows(raw, normalize=True), guided_rows(raw, normalize=False)
    assert np.linalg.norm(unit) == pytest.approx(1.0)
    assert np.linalg.norm(clipped) == pytest.approx(CLIP_NORM)
    for g in (unit, clipped):
        assert np.allclose(g / np.linalg.norm(g), raw / np.linalg.norm(raw))
    # a raw row inside the clip keeps its bits
    small = raw * (0.5 / np.linalg.norm(raw))
    assert np.array_equal(guided_rows(small, normalize=False), small)


def test_gradient_zero_stays_zero_under_normalize():
    assert np.array_equal(guided_rows(np.zeros((1, K * D)), normalize=True), np.zeros((1, K * D)))


def test_normalize_tiny_rows_gives_unit_norm():
    """Rows whose squares underflow (norms down to subnormal entries) are
    rescaled by a power of two first, so each comes out with unit norm."""
    r = Rng(7)
    scales = 10.0 ** r.uniform(-320, -140, (200,))
    rows = r.normal((200, 64)) * scales[:, None]
    g = guided_rows(rows, normalize=True)
    norms = np.array([np.linalg.norm(row) for row in g])
    assert np.all(np.abs(norms - 1.0) <= 8 * np.finfo(float).eps), norms
    assert np.array_equal(np.sign(g), np.sign(rows))
    # A row whose every square underflows no longer keeps its raw values.
    g = guided_rows(np.full((1, 64), 1e-170), normalize=True)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-15)


def test_normalize_rows_above_floor_keep_their_bits():
    """Rows at or above the rescale floor are divided by their own norm, as
    before; a zero row next to them stays zero."""
    r = Rng(8)
    rows = r.normal((41, 64)) * (10.0 ** np.linspace(-150, 150, 41))[:, None]
    rows[0] = 2.0 ** -500 / 8.0  # 64 equal entries: a norm at the floor itself
    rows[20] = 0.0
    norm = np.array([np.linalg.norm(row) for row in rows])
    assert np.array_equal(guided_rows(rows, normalize=True),
                          rows / np.where(norm > 0, norm, 1.0)[:, None])


def test_gradient_nonfinite_raises():
    model = LinearSurrogate(np.full((D, 2), np.inf))
    spec = ObjectiveSpec(mode="directional")
    with pytest.raises(NumericFailure):
        objective_gradient(spec, model, Rng(1).normal((1, K, D)))


# -- guidance config ------------------------------------------------------

def test_guidance_config_validation():
    with pytest.raises(ContractViolation):
        GuidanceConfig(gamma=-1.0)
    with pytest.raises(ContractViolation):
        GuidanceConfig(steps=0)
    with pytest.raises(ContractViolation):
        GuidanceConfig(t_start=1.0)


@pytest.mark.parametrize("build", [
    lambda bad: GuidanceConfig(gamma=bad),
    lambda bad: GuidanceConfig(sigma=bad),
    lambda bad: ObjectiveSpec(mode="target", targets=(0.5, bad)),
], ids=["gamma", "sigma", "targets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_guidance_values_rejected(build, bad):
    with pytest.raises(ContractViolation, match=str(bad)):
        build(bad)


# -- guided integration ---------------------------------------------------

def test_gamma_zero_bit_identical_to_unconditional(field, surrogate):
    spec = ObjectiveSpec(mode="directional")
    cfg = GuidanceConfig(gamma=0.0, sigma=0.0, steps=7, t_start=0.3)
    z0 = Rng(11).normal((1, K, D))
    out = guided_integrate(field, surrogate, spec, cfg, z0.copy())
    ref = integrate(field, z0.copy(), cfg.t_start, cfg.steps)
    assert np.array_equal(out, ref)


def test_guided_trajectory_records(field, surrogate):
    spec = ObjectiveSpec(mode="directional")
    cfg = GuidanceConfig(gamma=2.0, sigma=0.0, steps=6, t_start=0.4,
                         normalize_gradient=True)
    z0 = Rng(2).normal((3, K, D))
    yields = list(guided_steps(field, surrogate, spec, cfg, z0))
    t = np.array([y[0] for y in yields])
    assert t.shape == (cfg.steps,) and t[-1] == pytest.approx(1.0)
    assert np.all(np.diff(t) > 0)
    for _, z, v, g in yields:
        for x in (z, v, g):
            assert x.shape == z0.shape and np.isfinite(x).all()
        # normalized gradients have unit norm
        np.testing.assert_allclose([np.linalg.norm(row) for row in g], 1.0, rtol=1e-12)
    # guided_integrate returns the last state
    assert np.array_equal(guided_integrate(field, surrogate, spec, cfg, z0), yields[-1][1])


def test_guided_gamma_changes_trajectory(field, surrogate):
    spec = ObjectiveSpec(mode="directional")
    z0 = Rng(4).normal((1, K, D))
    outs = []
    for gamma in (0.0, 5.0):
        cfg = GuidanceConfig(gamma=gamma, sigma=0.0, steps=5, t_start=0.5)
        out = guided_integrate(field, surrogate, spec, cfg, z0.copy())
        outs.append(out)
    assert not np.array_equal(outs[0], outs[1])


# -- preparation ----------------------------------------------------------

def test_prepare_optimization_noise_once(rng):
    vae = SeqVae(VaeConfig(K=K, d=D, embed_dim=8, enc_hidden=16, dec_hidden=16),
                 rng.split("vae"))
    mu = vae.encode_batch([("A", "B", "R")]).mu
    clean = prepare_optimization(mu, 0.0, [Rng(1)])
    assert np.array_equal(clean, mu)
    noisy = prepare_optimization(mu, 0.5, [Rng(1)])
    assert not np.array_equal(noisy, clean)
    # the one noise draw is exactly the row's own stream
    assert np.array_equal(noisy, mu + 0.5 * Rng(1).normal((K, D)))
    with pytest.raises(ContractViolation):
        prepare_optimization(mu, -0.1, [Rng(1)])
    with pytest.raises(ContractViolation):
        prepare_optimization(mu, 0.5, [Rng(1), Rng(2)])


# -- gradient-ascent baseline --------------------------------------------

def test_gradient_ascent_descends_convex_objective():
    # linear surrogate + target mode => J is an exactly convex quadratic
    w = np.array([[0.3, -0.1], [0.2, 0.4], [-0.2, 0.3]])
    model = LinearSurrogate(w, b=(0.4, 4.0))
    spec = ObjectiveSpec(mode="target", weights=(1.0, 1.0), targets=(0.6, 3.0))
    z0 = Rng(6).normal((1, K, D)) * 3.0
    j0 = objective_value(spec, model.predict(mean_pool(z0))[0])
    out = gradient_ascent_baseline(model, spec, z0, eta=0.5, steps=200)
    j1 = objective_value(spec, model.predict(mean_pool(out))[0])
    assert j1 < j0
    assert j1 < 1e-6  # quadratic minimum is zero along the pooled direction


def test_gradient_ascent_deterministic_and_contracts(surrogate):
    spec = ObjectiveSpec(mode="directional")
    z0 = Rng(8).normal((1, K, D))
    a = gradient_ascent_baseline(surrogate, spec, z0, 0.3, 5)
    b = gradient_ascent_baseline(surrogate, spec, z0, 0.3, 5)
    assert np.array_equal(a, b)
    with pytest.raises(ContractViolation):
        gradient_ascent_baseline(surrogate, spec, z0, 0.0, 5)


# -- the latent API -------------------------------------------------------

def test_latent_routines_return_arrays(field, surrogate):
    """Every latent routine takes and returns a plain (B, K, d) array."""
    B = 3
    mu = Rng(5).normal((B, K, D))
    rngs = [Rng(5).split(i) for i in range(B)]
    cfg = GuidanceConfig(gamma=1.0, sigma=0.3, steps=2, t_start=0.5)
    spec = ObjectiveSpec(mode="directional")
    outs = {
        "reparameterize": reparameterize(PosteriorParams(mu=mu, log_sigma=mu * 0.1), Rng(1)),
        "sample_prior": sample_prior(field, rngs, steps=2),
        "integrate": integrate(field, mu, 0.5, 2),
        "prepare_optimization": prepare_optimization(mu, 0.3, rngs),
        "guided_integrate": guided_integrate(field, surrogate, spec, cfg, mu),
        "gradient_ascent_baseline": gradient_ascent_baseline(surrogate, spec, mu, 0.3, 2),
    }
    for name, z in outs.items():
        assert type(z) is np.ndarray and z.shape == (B, K, D), name
