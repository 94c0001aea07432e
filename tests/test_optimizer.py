"""The flat optimizer step equals clipped AdamW run one array at a time, byte
for byte, and every training loop trains its models' parameters as views of
its optimizer's buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowopt import flowmatch, seqvae, toyset
from flowopt.errors import ContractViolation
from flowopt.flowmatch import FlowConfig, FlowField
from flowopt.nn import AdamState, clip_grad_norm, optimizer_step
from flowopt.rng import Rng
from flowopt.seqvae import SeqVae, VaeConfig
from flowopt.surrogate import Surrogate, SurrogateConfig


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
    params = [p.copy() for p in data]
    opt = AdamState.create(params, lr=1e-3, weight_decay=weight_decay)
    assert not any(np.shares_memory(p, opt.param) for p in params)  # copied in
    params = opt.views  # as a model adopts them
    assert [p.tobytes() for p in params] == [p.tobytes() for p in data]
    for grads, values in zip(grads_by_step, want):
        if clip is not None:
            grads, _ = clip_grad_norm(grads, clip)
        optimizer_step(opt, grads)
        assert [p.tobytes() for p in params] == [p.tobytes() for p in values]
    assert opt.step == 5
    for p in params:
        assert p.ctypes.data % 64 == 0 and np.shares_memory(p, opt.param)


def test_step_refuses_a_misshapen_gradient():
    opt = AdamState.create([np.ones((2, 3)), np.ones(4)])
    with pytest.raises(ContractViolation, match="gradient shape"):
        optimizer_step(opt, [np.ones((3, 2)), np.ones(4)])
    with pytest.raises(ContractViolation, match="length"):
        optimizer_step(opt, [np.ones((2, 3))])


def optimizers_made(monkeypatch) -> list:
    """The ``AdamState`` of each ``create`` call from here on, in call order."""
    create, made = AdamState.create.__func__, []

    def spy(cls, *args, **kwargs):
        made.append(create(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(AdamState, "create", classmethod(spy))
    return made


def assert_trains_views(params, opt):
    """Each parameter is an ndarray, the optimizer's view of it, in order."""
    assert len(params) == len(opt.views)
    assert all(type(p) is np.ndarray and p is view and np.shares_memory(p, opt.param)
               for p, view in zip(params, opt.views))


TINY_VAE = VaeConfig(K=2, d=3, embed_dim=5, enc_hidden=7, dec_hidden=6, batch_size=8,
                     pretrain_epochs=3, finetune_epochs=3)


def test_vae_and_surrogate_train_views_of_one_buffer(monkeypatch):
    """After pretraining and after joint fine-tuning, with the best epoch
    restored, the VAE's and then the surrogate's parameters are the views of
    that stage's buffer."""
    ds = toyset.generate_dataset(5, 40, min_len=2, max_len=8)
    vae = SeqVae(TINY_VAE, Rng(0))
    sur = Surrogate(SurrogateConfig(latent_dim=3, hidden=5, layers=2), Rng(1))
    made = optimizers_made(monkeypatch)
    seqvae.train_vae(vae, ds, Rng(3))
    assert_trains_views(vae.params(), made[0])
    seqvae.finetune(vae, sur, ds, Rng(4))
    assert_trains_views(vae.params() + sur.params(), made[1])
    assert len(made) == 2 and made[1].step == 3 * 4  # 31 train rows, batches of 8


def test_flow_trains_views_of_one_buffer(monkeypatch):
    field = FlowField(FlowConfig(K=2, d=3, hidden=8, layers=2, time_embed_dim=4, batch_size=4,
                                 steps=3), Rng(2))
    made = optimizers_made(monkeypatch)
    flowmatch.train_flow(field, lambda r, n: r.normal((n, 2, 3)), Rng(5))
    assert len(made) == 1 and made[0].step == 3
    assert_trains_views(field.params(), made[0])
