"""Splittable streams: a Generator is built on the first draw only."""

import numpy as np
from hypothesis import given, settings, strategies as st

from flowopt.rng import Rng


def eager_generator(seed, keys):
    """The Generator of ``Rng(seed).split(k1)...split(kn)``, built eagerly at every level."""
    rng = Rng(seed)
    gen = np.random.default_rng(rng._seq)
    for key in keys:
        rng = rng.split(key)
        gen = np.random.default_rng(rng._seq)
    return gen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.one_of(st.integers(0, 99), st.text(max_size=4)), max_size=4))
def test_lazy_chain_draws_equal_eager(seed, keys):
    rng = Rng(seed)
    for key in keys:
        rng = rng.split(key)
    gen = eager_generator(seed, keys)
    assert np.array_equal(rng.normal((3, 2)), gen.standard_normal((3, 2)))
    assert np.array_equal(rng.uniform(0.0, 2.0, 4), gen.uniform(0.0, 2.0, 4))
    # Scalar draws take the Generator's scalar path and hold what a 0-d draw holds.
    assert rng.integers(0, 7) == gen.integers(0, 7, size=())
    assert rng.integers(3, 2 ** 40) == gen.integers(3, 2 ** 40, size=())
    assert rng.uniform() == gen.uniform(0.0, 1.0, ())
    assert rng.uniform(-1.0, 3.0) == gen.uniform(-1.0, 3.0, ())
    assert rng.gen.random() == gen.uniform(0.0, 1.0, ())
    assert rng.integers(0, 8) == gen.choice(8)


def test_split_only_chain_builds_no_generator(monkeypatch):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
    chain = [Rng(5)]
    for step in range(4):
        chain.append(chain[-1].split(("step", step)))
    assert not built and all("gen" not in vars(r) for r in chain)
    chain[-1].normal(2)
    assert len(built) == 1 and "gen" in vars(chain[-1])
    assert all("gen" not in vars(r) for r in chain[:-1])
    chain[-1].normal(2)
    assert len(built) == 1
