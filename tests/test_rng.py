"""Splittable streams: a stream costs only its draws, and every draw is NumPy's.

A stream is ``default_rng(SeedSequence(seed, spawn_key=words))`` with one
blake2b word per split key; the references below build that Generator with
NumPy alone.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowopt.rng import Rng, _sibling_gens, normal_rows


def key_word(key) -> int:
    return int.from_bytes(hashlib.blake2b(str(key).encode(), digest_size=8).digest(), "little")


def numpy_generator(seed, spawn_key):
    """NumPy's own Generator of a stream: its SeedSequence, built eagerly."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(spawn_key)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.one_of(st.integers(0, 99), st.text(max_size=4)), max_size=4))
def test_lazy_chain_draws_equal_eager(seed, keys):
    rng = Rng(seed)
    for key in keys:
        rng = rng.split(key)
    gen = numpy_generator(seed, [key_word(k) for k in keys])
    assert np.array_equal(rng.normal((3, 2)), gen.standard_normal((3, 2)))
    assert np.array_equal(rng.uniform(0.0, 2.0, 4), gen.uniform(0.0, 2.0, 4))
    # Scalar draws take the Generator's scalar path and hold what a 0-d draw holds.
    assert rng.integers(0, 7) == gen.integers(0, 7, size=())
    assert rng.integers(3, 2 ** 40) == gen.integers(3, 2 ** 40, size=())
    assert rng.uniform() == gen.uniform(0.0, 1.0, ())
    assert rng.uniform(-1.0, 3.0) == gen.uniform(-1.0, 3.0, ())
    assert rng.gen.random() == gen.uniform(0.0, 1.0, ())
    assert rng.integers(0, 8) == gen.choice(8)


def count_builds(monkeypatch) -> list:
    """Record each SeedSequence and default_rng that NumPy builds from now on."""
    built = []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *a, **k: built.append("seq") or seed_sequence(*a, **k))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: built.append("gen") or default_rng(*a))
    return built


def test_split_only_chain_builds_no_generator(monkeypatch):
    built = count_builds(monkeypatch)
    chain = [Rng(5)]
    for step in range(4):
        chain.append(chain[-1].split(("step", step)))
    assert not built and all("gen" not in vars(r) for r in chain)
    chain[-1].normal(2)
    assert built == ["seq", "gen"] and "gen" in vars(chain[-1])
    assert all("gen" not in vars(r) for r in chain[:-1])
    chain[-1].normal(2)
    assert built == ["seq", "gen"]


def draws(gen, ops) -> list:
    """Scalar ``integers`` and ``random`` draws interleaved as the grammar walk
    draws them (small bounded integers use the 32-bit buffer), and normal rows."""
    out = []
    for op in ops:
        if op == "integers":
            out.append(gen.integers(0, 8))
        elif op == "integers-wide":
            out.append(gen.integers(3, 2 ** 40))
        elif op == "random":
            out.append(gen.random())
        else:
            out.append(gen.standard_normal((2, 3)).tolist())
    return out


entropies = st.one_of(st.integers(0, 2 ** 32), st.integers(0, 2 ** 130))
spawn_words = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1))
draw_ops = st.lists(st.sampled_from(["integers", "integers-wide", "random", "normal"]),
                    min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(entropies, st.lists(spawn_words, max_size=3), st.lists(spawn_words, max_size=6),
       draw_ops)
def test_bulk_siblings_draw_what_numpy_draws(entropy, parent_key, words, ops):
    """The explicit-word entry point: words below 2**32 (one uint32 word, as 0
    is) and up to 2**64, entropy past 2**128 (more than the pool's four words),
    parents 0 to 3 deep. Each re-stated Generator starts with an empty 32-bit
    buffer, so scalar integers after the previous sibling's draws match too."""
    gens = _sibling_gens(entropy, tuple(parent_key), words)
    for word, gen in zip(words, gens):
        assert draws(gen, ops) == draws(numpy_generator(entropy, parent_key + [word]), ops)


@settings(max_examples=100, deadline=None)
@given(entropies, st.lists(spawn_words, max_size=2), st.lists(spawn_words, max_size=6),
       st.lists(spawn_words, max_size=2), draw_ops)
@example(2 ** 40, [7], [0, 2 ** 32 - 1, 2 ** 32, 5, 2 ** 64 - 1], [2 ** 63, 3], ["normal"])
def test_bulk_streams_with_a_key_suffix_draw_what_numpy_draws(entropy, prefix, words, suffix,
                                                               ops):
    """Streams whose keys differ in one word and share the 0 to 2 words after
    it. A varying word below 2**32 is one uint32 limb, so the suffix enters
    the pool one hash earlier than after a two-limb word."""
    gens = _sibling_gens(entropy, tuple(prefix), words, tuple(suffix))
    for word, gen in zip(words, gens):
        assert draws(gen, ops) == draws(numpy_generator(entropy, prefix + [word] + suffix), ops)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.one_of(st.integers(0, 99), st.text(max_size=4)), max_size=3),
       st.lists(st.one_of(st.integers(-5, 10 ** 6), st.text(max_size=4)), max_size=6),
       draw_ops)
def test_sibling_gens_draw_what_split_draws(seed, path, keys, ops):
    parent = Rng(seed)
    for key in path:
        parent = parent.split(key)
    prefix = [key_word(k) for k in path]
    for key, gen in zip(keys, parent.sibling_gens(keys)):
        assert draws(gen, ops) == draws(numpy_generator(seed, prefix + [key_word(key)]), ops)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.integers(0, 2),
       st.sampled_from([(), (3,), (2, 4)]))
def test_normal_rows_in_bulk_equal_one_call_per_row(seed, n, depth, shape):
    """Streams whose keys differ in one word followed by ``depth`` shared
    words (a budgeted step's ``propose``/``noise`` stream has two)."""
    def stream(i):
        r = Rng(seed).split("cells").split(("cand", i))
        for j in range(depth):
            r = r.split(("below", j))
        return r

    rows, solo = [stream(i) for i in range(n)], [stream(i) for i in range(n)]
    assert np.array_equal(normal_rows(rows, shape), np.stack([r.normal(shape) for r in solo]))
    # Each stream moves on as its own normal() call moved it.
    for r, s in zip(rows, solo):
        assert r.integers(0, 8) == s.integers(0, 8)
        assert np.array_equal(r.normal(shape), s.normal(shape))


def test_normal_rows_in_bulk_builds_no_seed_sequence(monkeypatch):
    parent = Rng(3).split("generate")
    rows = [parent.split(i) for i in range(16)]
    built = count_builds(monkeypatch)
    normal_rows(rows, (4, 2))
    steps = Rng(3).split(("budgeted", "random"))
    normal_rows([steps.split(("step", k)).split("propose").split("noise") for k in range(16)],
                (4, 2))
    assert built == []
    normal_rows([parent.split("noise")], (4, 2))  # one row: NumPy's own seeding
    assert built == ["seq", "gen"]


@pytest.mark.parametrize("case", ["drawn", "cousins", "two-words", "roots", "repeated"])
def test_normal_rows_of_non_siblings_draws_each_stream(case):
    """Streams that are not fresh siblings draw what one call per stream
    draws, each from where it stands: cousins, whose keys differ in their
    first word only, in bulk; the others (one has drawn, their keys differ in
    two words, they are roots of other seeds, or one stream comes twice) one
    by one."""
    def streams():
        a, b = Rng(1).split("a"), Rng(1).split("b")
        if case == "drawn":
            rows = [a.split(0), a.split(1)]
            rows[1].normal(2)
        elif case == "cousins":
            rows = [a.split(0), b.split(0)]
        elif case == "two-words":
            rows = [a.split(0), b.split(1)]
        elif case == "roots":
            rows = [Rng(4), Rng(5)]
        else:
            rows = [a.split(0)] * 2
        return rows

    rows, solo = streams(), streams()
    assert np.array_equal(normal_rows(rows, (2,)), np.stack([r.normal((2,)) for r in solo]))
