"""Property tests: the array MLP, the array VAE and frozen inference equal
the tape, bit for bit.

``Mlp.forward``/``Mlp.backward``, ``FlowField.velocity``,
``Surrogate.predict`` and ``guidance.objective_gradient`` must each equal,
with ``==``, a reference tape built layer by layer from primitive ``Tensor``
ops (``conftest.tape_mlp``), over batches of 1 to 64 rows. The VAE's loss
and every gradient of ``SeqVae.forward``/``backward``, in both training
stages, and ``encode_batch`` must equal the tape VAE of ``conftest``, byte
for byte, so signed zeros count. ``conftest.on_tape`` lifts each model onto
the tape on its own arrays. Guards check that guided inference and training
build no tape node at all.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowopt import flowmatch, seqvae, toyset
from flowopt.flowmatch import FlowConfig, FlowField, integrate
from flowopt.guidance import (GuidanceConfig, ObjectiveSpec, gradient_ascent_baseline,
                              guided_integrate, objective_gradient)
from flowopt.nn import Mlp
from flowopt.rng import Rng
from flowopt.seqvae import ENCODE_CHUNK, SeqVae, VaeConfig, mean_pool
from flowopt.surrogate import Surrogate, SurrogateConfig

import tape as ad
from conftest import (guided_rows, loop_postprocess, mlp_node, on_tape, tape_elbo_loss,
                      tape_encode, tape_mlp, tape_objective_gradient, tape_predict,
                      tape_velocity)
from tape import Tensor

rows = st.integers(1, 64)
widths = st.integers(1, 8)
seeds = st.integers(0, 2 ** 16)
activations = st.sampled_from(["tanh", "relu", "sigmoid"])
unit = st.floats(0.0, 3.0, allow_nan=False)
specs = st.one_of(
    st.builds(lambda w, c: ObjectiveSpec(mode="target", weights=w, targets=c),
              st.tuples(unit, unit), st.tuples(unit, unit)),
    st.just(ObjectiveSpec(mode="directional")))


def jittered_mlp(sizes, activation, seed):
    """An MLP with nonzero biases, so relu units sit on both sides of the kink."""
    r = Rng(seed)
    mlp = Mlp.create(sizes, r.split("init"), activation=activation)
    for i, p in enumerate(mlp.params()):
        p[...] = p + 0.3 * r.split(("jitter", i)).normal(p.shape)
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
       st.booleans())
def test_mlp_forward_and_backward_equal_tape(B, sizes, activation, seed, wrt_input, wrt_params):
    """``backward`` gives the reference tape's input gradient (None unless
    ``wrt_input``) and every parameter's gradient (each None unless
    ``wrt_params``), and a one-node tape over ``forward``/``backward`` gives
    the same."""
    mlp = jittered_mlp(sizes, activation, seed)
    lifted = on_tape(mlp)
    x = Rng(seed).split("x").normal((B, sizes[0])) * 2.0
    g = Rng(seed).split("g").normal((B, sizes[-1]))
    xt = Tensor(x, requires_grad=wrt_input)
    out = tape_mlp(lifted, xt)
    want = ad.gradients((out * Tensor(g)).sum(), lifted.params() + [xt])
    acts = mlp.forward(x)
    assert len(acts) == len(sizes)
    assert np.array_equal(acts[-1], out.data)
    gx, *grads = mlp.backward(acts, g, wrt_input=wrt_input, wrt_params=wrt_params)
    assert np.array_equal(gx, want[-1]) if wrt_input else gx is None
    assert len(grads) == len(mlp.params())
    if wrt_params:
        assert all(map(np.array_equal, grads, want))
    else:
        assert all(gp is None for gp in grads)
    node = mlp_node(lifted, xt)
    assert node.op == "mlp" and np.array_equal(node.data, out.data)
    on_node = ad.gradients((node * Tensor(g)).sum(), lifted.params() + [xt])
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
def test_predict_vjp_equals_tape(B, d, seed, scale):
    """``predict`` and ``predict_vjp``'s prediction equal the reference tape,
    and its pullback the tape's gradients of the input and every parameter."""
    _, sur = small_models(seed, 1, d, 8, 3)
    r = Rng(seed)
    pooled = r.split("x").normal((B, d)) * scale
    g = r.split("g").normal((B, 2))
    xt = Tensor(pooled, requires_grad=True)
    lifted = on_tape(sur)
    out = tape_predict(lifted, xt)
    want = ad.gradients((out * Tensor(g)).sum(), [xt] + lifted.params())
    assert np.array_equal(sur.predict(pooled), out.data)
    pred, pullback = sur.predict_vjp(pooled)
    assert np.array_equal(pred, out.data)
    assert [a.tobytes() for a in pullback(g)] == [w.tobytes() for w in want]
    pred, pullback = sur.predict_vjp(pooled, wrt_params=False)
    gx, *grads = pullback(g)
    assert np.array_equal(pred, out.data) and gx.tobytes() == want[0].tobytes()
    assert len(grads) == len(sur.params()) and all(gp is None for gp in grads)


@settings(max_examples=60, deadline=None)
@given(rows, st.integers(1, 4), widths, seeds, specs, st.booleans())
# A subnormal weight: the latent's gradient row has a norm whose square underflows.
@example(1, 1, 1, 0, ObjectiveSpec(mode="target", weights=(0.0, 2.225073858507e-311),
                                   targets=(0.0, 0.0)), True)
def test_objective_gradient_equals_tape(B, K, d, seed, spec, normalize):
    """The raw gradient equals the tape's, and the rows the integrator steps
    along equal the per-row loop's post-processing of the tape's."""
    _, sur = small_models(seed, K, d, 8, 3)
    z = Rng(seed).split("z").normal((B, K, d)) * 2.0
    j, g = objective_gradient(spec, sur, z)
    want_j, want_g = tape_objective_gradient(spec, sur, z)
    assert np.array_equal(j, want_j) and np.array_equal(g, want_g)
    assert np.array_equal(guided_rows(g.reshape(B, -1), normalize),
                          loop_postprocess(want_g, normalize).reshape(B, -1))


def test_objective_gradient_takes_no_parameter_gradient(monkeypatch):
    """Guidance pulls back through the surrogate for the latent's gradient
    alone: the net's pullback is asked for no parameter gradient."""
    _, sur = small_models(3, 2, 3, 8, 3)
    backward, pulled = Mlp.backward, []

    def spy(self, acts, g, **kwargs):
        pulled.append(backward(self, acts, g, **kwargs))
        return pulled[-1]

    monkeypatch.setattr(Mlp, "backward", spy)
    objective_gradient(ObjectiveSpec(mode="directional"), sur, Rng(3).normal((5, 2, 3)))
    assert len(pulled) == 1 and pulled[0][0].shape == (5, 3)
    assert len(pulled[0]) == 1 + len(sur.params()) and all(gp is None for gp in pulled[0][1:])


def test_frozen_inference_builds_no_tape(monkeypatch):
    """Guided steps, gradient descent, flow integration and prediction stay on arrays."""
    field, sur = small_models(3, 2, 3, 8, 3)
    spec = ObjectiveSpec(mode="directional")
    z = Rng(3).normal((5, 2, 3))

    def no_tensor(*args, **kwargs):
        raise AssertionError("frozen inference built a tape Tensor")

    monkeypatch.setattr(Tensor, "__init__", no_tensor)
    for gamma in (0.0, 5.0):
        guided_integrate(field, sur, spec, GuidanceConfig(gamma=gamma, steps=3), z)
    gradient_ascent_baseline(sur, spec, z, 0.3, 3)
    integrate(field, z, 0.0, 3)
    sur.predict(mean_pool(z))
    with pytest.raises(AssertionError, match="tape Tensor"):
        Tensor(np.zeros(1))


PLAIN = [t for t in toyset.VOCAB if t not in (toyset.PAD, toyset.BOS, toyset.EOS)]
# Rows of 0 to MAX_LEN + 2 tokens: empty structures, and rows prepare_batch
# truncates to MAX_LEN - 1 tokens.
VAE_ROW = st.lists(st.sampled_from(PLAIN), max_size=toyset.MAX_LEN + 2).map(tuple)
VAE_BATCHES = st.one_of(st.lists(VAE_ROW, min_size=1, max_size=6),
                        st.integers(1, 4).map(lambda b: [()] * b))


def small_vae(seed, scale=1.0):
    """A small VAE with every parameter jittered and then scaled: at scale
    30 the tanh layers saturate and the log-sigma clamp bites."""
    r = Rng(seed)
    vae = SeqVae(VaeConfig(K=2, d=3, embed_dim=5, enc_hidden=7, dec_hidden=6), r.split("init"))
    for i, p in enumerate(vae.params()):
        p[...] = (p + 0.3 * r.split(("jitter", i)).normal(p.shape)) * scale
    return vae


@settings(max_examples=60, deadline=None)
@given(VAE_BATCHES, st.booleans(), st.sampled_from([0.0, 0.04, 0.1]),
       st.sampled_from([1.0, 30.0]), seeds)
@example([(PLAIN[0],)], False, 0.1, 1.0, 0)  # B = 1, one token
@example([()], True, 0.0, 1.0, 1)  # B = 1, empty: a one-position grid
@example([tuple(PLAIN[:3]) * 30, ()], True, 0.04, 30.0, 2)  # truncated and empty rows
def test_vae_forward_and_backward_equal_tape(seqs, joint, beta, scale, seed):
    """The loss and the gradients of all 13 VAE parameters, and in
    fine-tuning of every surrogate parameter, are the tape VAE's bytes."""
    vae = small_vae(seed, scale)
    r = Rng(seed)
    sur = Surrogate(SurrogateConfig(latent_dim=3, hidden=5, layers=3), r.split("sur")) if joint \
        else None
    y = r.split("y").normal((len(seqs), 2)) if joint else None
    lifted_vae, lifted_sur = on_tape(vae), on_tape(sur) if joint else None
    params = lifted_vae.params() + (lifted_sur.params() if joint else [])
    loss, _, _ = tape_elbo_loss(lifted_vae, seqs, r.split("eps"), beta, lifted_sur, y)
    want = [loss.data] + ad.gradients(loss, params)
    loss, acts = vae.forward(seqs, r.split("eps"), beta, sur, y)
    got = [np.float64(loss)] + vae.backward(acts)
    assert [g.shape for g in got] == [w.shape for w in want]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@settings(max_examples=3, deadline=None)
@given(seeds)
def test_encode_batch_equals_tape_encoder_across_chunks(seed):
    """At 255, 256 and 257 rows, ``encode_batch`` is the reference encoder's
    bytes on each ``ENCODE_CHUNK`` slice."""
    vae = small_vae(seed)
    r = Rng(seed)
    lengths = r.split("len").integers(0, 20, ENCODE_CHUNK + 1)
    pick = r.split("tok").integers(0, len(PLAIN), (ENCODE_CHUNK + 1, 20))
    seqs = [tuple(PLAIN[i] for i in row[:n]) for row, n in zip(pick, lengths)]
    for rows in (ENCODE_CHUNK - 1, ENCODE_CHUNK, ENCODE_CHUNK + 1):
        post = vae.encode_batch(seqs[:rows])
        want = []
        for i in range(0, rows, ENCODE_CHUNK):
            enc, _, _, valid = vae.prepare_batch(seqs[i:min(i + ENCODE_CHUNK, rows)])
            want.append([t.data for t in tape_encode(vae, enc, valid)])
        assert post.mu.tobytes() == np.concatenate([mu for mu, _ in want]).tobytes()
        assert post.log_sigma.tobytes() == np.concatenate([ls for _, ls in want]).tobytes()


def test_training_builds_no_tape(monkeypatch):
    """Pretraining, fine-tuning and flow training stay on arrays."""
    ds = toyset.generate_dataset(5, 40, min_len=2, max_len=8)
    cfg = VaeConfig(K=2, d=3, embed_dim=5, enc_hidden=7, dec_hidden=6, batch_size=8,
                    pretrain_epochs=1, finetune_epochs=1)
    vae = SeqVae(cfg, Rng(0))
    sur = Surrogate(SurrogateConfig(latent_dim=3, hidden=5, layers=2), Rng(1))
    field, _ = small_models(2, 2, 3, 8, 2)
    field.config.steps, field.config.batch_size = 2, 4

    def no_tensor(*args, **kwargs):
        raise AssertionError("training built a tape Tensor")

    monkeypatch.setattr(Tensor, "__init__", no_tensor)
    seqvae.train_vae(vae, ds, Rng(3))
    seqvae.finetune(vae, sur, ds, Rng(4))
    flowmatch.train_flow(field, lambda r, n: r.normal((n, 2, 3)), Rng(5))


def test_on_tape_lifts_onto_the_models_own_arrays():
    """``on_tape`` of each model kind gives trainable leaves on the model's own
    arrays, and the same leaves when lifted again; a parameter changed
    in place through the model shows up in the reference. A copying lift would
    pass every ``==`` test above, since a copy has equal values."""
    field, sur = small_models(0, 2, 3, 8, 3)
    vae = small_vae(0)
    seqs = [tuple(PLAIN[:3]), (), (PLAIN[4],)]
    enc, _, _, valid = vae.prepare_batch(seqs)
    x = Rng(0).split("x").normal((4, 6))
    models = {  # model, program output, reference output of its lift
        "mlp": (jittered_mlp([6, 5, 2], "relu", 0), lambda m: m.forward(x)[-1],
                lambda lifted: tape_mlp(lifted, Tensor(x)).data),
        "surrogate": (sur, lambda m: m.predict(x[:, :3]),
                      lambda lifted: tape_predict(lifted, Tensor(x[:, :3])).data),
        "flow": (field, lambda m: m.velocity(x.reshape(4, 2, 3), 0.3).reshape(4, 6),
                 lambda lifted: tape_velocity(lifted, x, 0.3).data),
        "vae": (vae, lambda m: m.encode_batch(seqs).mu,
                lambda lifted: tape_encode(lifted, enc, valid)[0].data),
    }
    for name, (model, program, reference) in models.items():
        lifted = on_tape(model)
        pairs = list(zip(model.params(), lifted.params()))
        assert len(pairs) == len(model.params()) > 1, name
        assert all(isinstance(q, Tensor) and q.data is p and q.requires_grad
                   for p, q in pairs), name
        assert all(a is b for a, b in zip(on_tape(lifted).params(), lifted.params())), name
        for p in model.params():
            p *= 1.5
        assert np.array_equal(program(model), reference(lifted)), name
