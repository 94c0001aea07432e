import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from flowopt.errors import ContractViolation, NumericFailure
from flowopt.nn import Mlp
from flowopt.rng import Rng

import tape as ad
from conftest import finite_difference, mlp_node, on_tape, rel_err
from tape import Tensor


def scalar_arrays(shape=(3, 4)):
    return st.lists(st.floats(-3, 3, allow_nan=False), min_size=np.prod(shape),
                    max_size=np.prod(shape)).map(
        lambda v: np.array(v).reshape(shape))


def test_add_mul_grads_match_fd(rng):
    x = rng.normal((3, 4))
    y = rng.normal((3, 4))

    def f(xv):
        return float(((xv * y + xv) ** 2).sum())

    xt = Tensor(x.copy(), requires_grad=True)
    loss = ((xt * Tensor(y) + xt) ** 2).sum()
    (g,) = ad.gradients(loss, [xt])
    assert rel_err(g, finite_difference(f, x.copy())) < 1e-6


def test_broadcast_gradient_shapes(rng):
    x = Tensor(rng.normal((5, 3)), requires_grad=True)
    b = Tensor(rng.normal((3,)), requires_grad=True)
    loss = ((x + b) * (x + b)).sum()
    gx, gb = ad.gradients(loss, [x, b])
    assert gx.shape == (5, 3)
    assert gb.shape == (3,)
    assert np.allclose(gb, gx.sum(axis=0))


def test_matmul_gradient(rng):
    a = rng.normal((4, 3))
    w = rng.normal((3, 2))

    def f(wv):
        return float((a @ wv).sum())

    wt = Tensor(w.copy(), requires_grad=True)
    loss = (Tensor(a) @ wt).sum()
    (g,) = ad.gradients(loss, [wt])
    assert rel_err(g, finite_difference(f, w.copy())) < 1e-6


def test_matmul_rejects_non_2d(rng):
    with pytest.raises(ContractViolation):
        _ = Tensor(rng.normal((2, 3, 4))) @ Tensor(rng.normal((4, 2)))


def test_clamp_saturating_gradient():
    x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    loss = x.clamp(-1.0, 1.0).sum()
    (g,) = ad.gradients(loss, [x])
    assert np.array_equal(g, np.array([0.0, 1.0, 0.0]))


def test_softmax_rows_normalize(rng):
    x = Tensor(rng.normal((6, 5)))
    s = ad.softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert (s > 0).all()


def test_softmax_cross_entropy_matches_manual(rng):
    logits = rng.normal((4, 7))
    targets = np.array([0, 3, 6, 2])
    lt = Tensor(logits.copy(), requires_grad=True)
    loss = ad.softmax_cross_entropy(lt, targets)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(4), targets].mean()
    assert abs(loss.item() - expected) < 1e-12

    def f(lv):
        sh = lv - lv.max(axis=1, keepdims=True)
        lp = sh - np.log(np.exp(sh).sum(axis=1, keepdims=True))
        return float(-lp[np.arange(4), targets].mean())

    (g,) = ad.gradients(loss, [lt])
    assert rel_err(g, finite_difference(f, logits.copy())) < 1e-6


def test_softmax_cross_entropy_rejects_empty_rows():
    with pytest.raises(ContractViolation):
        ad.softmax_cross_entropy(Tensor(np.zeros((0, 4))), [])


def test_embedding_gradient_scatter(rng):
    w = Tensor(rng.normal((10, 4)), requires_grad=True)
    idx = np.array([[1, 1], [3, 9]])
    loss = ad.embedding(w, idx).sum()
    (g,) = ad.gradients(loss, [w])
    expected = np.zeros((10, 4))
    expected[1] = 2.0
    expected[3] = 1.0
    expected[9] = 1.0
    assert np.array_equal(g, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 3), st.integers(1, 40),
       st.integers(0, 2 ** 16))
def test_embedding_backward_equals_add_at(vocab, width, lead, n, seed):
    """The per-column bincount scatter is ``==`` to ``np.add.at``, repeated
    indices (a small vocabulary) and multi-axis index arrays included."""
    r = Rng(seed)
    w = Tensor(r.split("w").normal((vocab, width)), requires_grad=True)
    idx = r.split("idx").gen.integers(0, vocab, (lead, n))
    g = r.split("g").normal((lead, n, width))
    (gw,) = ad.embedding(w, idx)._backward(g)
    expected = np.zeros((vocab, width))
    np.add.at(expected, idx.reshape(-1), g.reshape(-1, width))
    assert np.array_equal(gw, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 12), st.integers(1, 6), st.integers(1, 3),
       st.integers(1, 40), st.integers(0, 2 ** 16))
def test_embedding_backward_equals_column_loop(used, unused, width, lead, n, seed):
    """The flat-bin bincount is ``==`` to one bincount per column: indices
    repeat (a few used rows) and some rows are never indexed."""
    r = Rng(seed)
    vocab = used + unused
    w = Tensor(r.split("w").normal((vocab, width)), requires_grad=True)
    idx = r.split("idx").gen.integers(0, used, (lead, n))
    g = r.split("g").normal((lead, n, width))
    (gw,) = ad.embedding(w, idx)._backward(g)
    rows, cols = idx.reshape(-1), g.reshape(-1, width).T
    expected = np.empty((vocab, width))
    for j in range(width):
        expected[:, j] = np.bincount(rows, weights=cols[j], minlength=vocab)
    assert gw.tobytes() == expected.tobytes()


def test_rows_gradient_is_zero_outside_the_rows(rng):
    w = Tensor(rng.normal((5, 3)), requires_grad=True)
    up = rng.normal((2, 3))
    (g,) = ad.gradients((w.rows(1, 3) * Tensor(up)).sum(), [w])
    expected = np.zeros((5, 3))
    expected[1:3] = up
    assert np.array_equal(w.rows(1, 3).data, w.data[1:3])
    assert np.array_equal(g, expected)
    assert w.rows(3, None).shape == (2, 3)
    frozen = Tensor(w.data).rows(0, 2)
    assert frozen._parents == () and frozen._backward is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 6), st.integers(0, 2 ** 16))
def test_scatter_rows_equals_gather_of_padded_rows(n, extra, width, seed):
    """Forward and gradient are ``==`` to the formula the encoder could use
    instead: a gather from the rows with one zero row appended, which every
    cell outside ``index`` reads."""
    r = Rng(seed)
    index = np.sort(r.split("idx").gen.permutation(n + extra)[:n])
    x = Tensor(r.split("x").normal((n, width)), requires_grad=True)
    upstream = Tensor(r.split("g").normal((n + extra, width)))
    slot = np.full(n + extra, n)
    slot[index] = np.arange(n)
    runs = []
    for out in (ad.scatter_rows(x, index, n + extra),
                ad.embedding(ad.concat([x, np.zeros((1, width))]), slot)):
        runs.append([out.data] + ad.gradients((out * upstream).sum(), [x]))
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def broadcast_attention_pool(attn: Tensor, h: Tensor) -> Tensor:
    """The (B, L, K, H) broadcast-multiply-sum ``ad.attention_pool`` replaced."""
    (B, L, K), H = attn.shape, h.shape[2]
    return (attn.reshape(B, L, K, 1) * h.reshape(B, L, 1, H)).sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 33), st.integers(1, 5), st.integers(1, 40),
       st.sampled_from([None, 0, 1]), st.integers(0, 2 ** 16))
def test_attention_pool_equals_broadcast_formula(B, L, K, H, frozen, seed):
    """Forward and both gradients agree with the broadcast formula on the
    tape within 1e-12 (the batched matmuls sum in another order). Trailing
    positions carry exactly 0 weight, as padded ones do after the softmax,
    and either input may be frozen."""
    r = Rng(seed)
    a = r.split("a").uniform(shape=(B, L, K))
    a[:, int(r.split("pad").integers(1, L + 1)):] = 0.0
    x = r.split("h").normal((B, L, H))
    upstream = Tensor(r.split("g").normal((B, K, H)))
    runs = []
    for pool in (ad.attention_pool, broadcast_attention_pool):
        ts = [Tensor(v, requires_grad=i != frozen) for i, v in enumerate((a, x))]
        out = pool(*ts)
        trainable = [t for t in ts if t.requires_grad]
        runs.append([out.data] + ad.gradients((out * upstream).sum(), trainable))
    for got, want in zip(*runs):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_attention_pool_gradient_matches_fd(rng):
    a = np.exp(rng.split("a").normal((2, 5, 3)))
    x = rng.split("h").normal((2, 5, 4))
    w = rng.split("w").normal((2, 3, 4))

    def f(av, xv):
        return float((np.tanh(np.einsum("blk,blh->bkh", av, xv)) * w).sum())

    ts = [Tensor(a.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)]
    ga, gh = ad.gradients((ad.attention_pool(*ts).tanh() * Tensor(w)).sum(), ts)
    assert rel_err(ga, finite_difference(lambda v: f(v, x), a.copy())) < 1e-6
    assert rel_err(gh, finite_difference(lambda v: f(a, v), x.copy())) < 1e-6


def test_attention_pool_rejects_mismatched_shapes(rng):
    with pytest.raises(ContractViolation):
        ad.attention_pool(Tensor(rng.normal((2, 5, 3))), Tensor(rng.normal((2, 4, 6))))
    with pytest.raises(ContractViolation):
        ad.attention_pool(Tensor(rng.normal((10, 3))), Tensor(rng.normal((10, 6))))


def test_gradients_unused_param_is_zero(rng):
    x = Tensor(rng.normal((2, 2)), requires_grad=True)
    unused = Tensor(rng.normal((3,)), requires_grad=True)
    gx, gu = ad.gradients((x * x).sum(), [x, unused])
    assert np.array_equal(gu, np.zeros(3))
    assert gx.shape == (2, 2)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.normal((2, 2)), requires_grad=True)
    with pytest.raises(ContractViolation):
        ad.backward(x * x)


def test_nan_gradient_raises(rng):
    x = Tensor(np.array([0.0]), requires_grad=True)
    loss = (x.log()).sum()  # log(0) = -inf; gradient 1/0 is non-finite
    with pytest.raises(NumericFailure):
        ad.backward(loss)


def test_interior_nan_gradient_names_its_node():
    """A NaN first made inside the graph (0 * inf in the backward of
    ``x ** 0.5`` at 0) raises at the node whose closure made it."""
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    root = x ** 0.5
    loss = (root * 0.0).sum()
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericFailure) as info:
        ad.backward(loss)
    assert info.value.where == root._id


special_floats = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                  elements=st.one_of(st.floats(-1e300, 1e300), special_floats)))
def test_nan_check_agrees_with_isnan_any(a):
    """NaN, ±inf, both or neither, size 0 included: the min-based check is
    ``np.isnan(a).any()``."""
    assert ad._has_nan(a) == bool(np.isnan(a).any())


def relu_kink_margin(mlp, x):
    """The smallest |pre-activation| of a hidden unit of a relu ``mlp`` on x."""
    margin = np.inf
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        pre = x @ w + b
        margin = min(margin, np.abs(pre).min())
        x = np.maximum(pre, 0.0)
    return margin


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(752)
def test_mlp_gradient_matches_fd_random_configs(seed):
    rng = Rng(seed)
    gen = rng.gen
    depth = int(gen.integers(1, 4))
    sizes = [int(gen.integers(1, 6)) for _ in range(depth + 1)]
    activation = ["tanh", "relu", "sigmoid"][int(gen.integers(0, 3))]
    mlp = Mlp.create(sizes, rng.split("init"), activation=activation)
    x = rng.normal((2, sizes[0]))
    # zero-initialized biases can park relu pre-activations exactly on the
    # kink, where central differences are undefined; random offsets keep
    # every sampled configuration at a generic differentiable point
    for pi, p in enumerate(mlp.params()):
        p[...] = p + 0.05 + 0.1 * rng.split(("jitter", pi)).normal(p.shape)
    # the jitter can still leave a relu pre-activation within a step of the
    # kink (seed 752: 8.7e-6 against eps 1e-5), where the central difference
    # straddles it and is no reference for the gradient
    assume(activation != "relu" or relu_kink_margin(mlp, x) > 1e-3)
    mlp = on_tape(mlp)
    params = mlp.params()

    def run():
        return (mlp_node(mlp, Tensor(x)) ** 2).sum()

    grads = ad.gradients(run(), params)
    for p, g in zip(params, grads):
        def f(v):
            old = p.data
            p.data = v
            out = run().item()
            p.data = old
            return out

        fd = finite_difference(f, p.data.copy())
        assert rel_err(g, fd) < 1e-5


def test_sum_mean_axis_keepdims(rng):
    x = rng.normal((3, 4, 5))
    xt = Tensor(x, requires_grad=True)
    s = xt.sum(axis=1, keepdims=True)
    assert s.shape == (3, 1, 5)
    m = xt.mean(axis=(0, 2))
    assert m.shape == (4,)
    assert np.allclose(m.data, x.mean(axis=(0, 2)))
    (g,) = ad.gradients(m.sum(), [xt])
    assert np.allclose(g, np.full_like(x, 1.0 / (3 * 5)))


def test_concat_gradient_splits(rng):
    a = Tensor(rng.normal((2, 3)), requires_grad=True)
    b = Tensor(rng.normal((2, 2)), requires_grad=True)
    cat = ad.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    scale = np.arange(10.0).reshape(2, 5)
    ga, gb = ad.gradients((cat * Tensor(scale)).sum(), [a, b])
    assert np.array_equal(ga, scale[:, :3])
    assert np.array_equal(gb, scale[:, 3:])


# -- frozen inputs ----------------------------------------------------------
#
# Only what a grad-requiring leaf feeds is recorded. A frozen input changes
# no gradient of a trainable one, bit for bit, and the closures compute no
# gradient for it.

BINARY_OPS = {
    "add": (lambda a, b: a + b, (3, 4), (4,)),
    "sub": (lambda a, b: a - b, (3, 4), (3, 1)),
    "mul": (lambda a, b: a * b, (3, 4), (1, 4)),
    "div": (lambda a, b: a / b, (3, 4), (3, 4)),
    "matmul": (lambda a, b: a @ b, (3, 4), (4, 2)),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), (3, 2), (3, 3)),
    "attention_pool": (ad.attention_pool, (2, 5, 3), (2, 5, 4)),
}


def _operands(seed, op, trainable):
    fn, shape_a, shape_b = BINARY_OPS[op]
    rng = Rng(seed)
    a = rng.split("a").normal(shape_a)
    b = np.exp(rng.split("b").normal(shape_b))  # away from 0 for div
    return fn, [Tensor(x, requires_grad=t) for x, t in zip((a, b), trainable)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(BINARY_OPS)), st.integers(0, 1), st.integers(0, 2 ** 16))
def test_frozen_input_leaves_other_gradient_unchanged(op, frozen, seed):
    fn, both = _operands(seed, op, (True, True))
    out = fn(*both)
    upstream = Rng(seed).split("g").normal(out.shape)
    want = ad.gradients((out.tanh() * Tensor(upstream)).sum(), both)[1 - frozen]
    trainable = [True, True]
    trainable[frozen] = False
    fn, xs = _operands(seed, op, trainable)
    out = fn(*xs)
    (got,) = ad.gradients((out.tanh() * Tensor(upstream)).sum(), [xs[1 - frozen]])
    assert np.array_equal(got, want)
    assert xs[frozen].grad is None
    assert out._backward(np.ones(out.shape))[frozen] is None


FROZEN_OPS = {
    "neg": lambda x: -x,
    "pow": lambda x: x ** 3,
    "exp": Tensor.exp,
    "log": Tensor.log,
    "tanh": Tensor.tanh,
    "sigmoid": Tensor.sigmoid,
    "relu": Tensor.relu,
    "clamp": lambda x: x.clamp(0.5, 1.5),
    "reshape": lambda x: x.reshape(4, 3),
    "transpose": Tensor.transpose,
    "sum": lambda x: x.sum(axis=0),
    "mean": lambda x: x.mean(axis=1),
    "embedding": lambda x: ad.embedding(x, [2, 0, 2]),
    "scatter_rows": lambda x: ad.scatter_rows(x, [4, 0, 2], 5),
    "softmax": lambda x: ad.softmax(x, axis=1),
    "xent": lambda x: ad.softmax_cross_entropy(x, [0, 3, 1]),
    **{op: (lambda x, fn=fn, op=op: fn(x, x.transpose() if op == "matmul" else x))
       for op, (fn, _, _) in BINARY_OPS.items() if op != "attention_pool"},
    "attention_pool": lambda x: ad.attention_pool(x.reshape(1, 3, 4), x.reshape(1, 3, 4)),
}


@pytest.mark.parametrize("op", sorted(FROZEN_OPS))
def test_output_of_frozen_inputs_is_not_recorded(op, rng):
    x = Tensor(np.exp(rng.normal((3, 4))))
    out = FROZEN_OPS[op](x)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
