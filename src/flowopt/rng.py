"""Splittable, explicitly threaded random number generation.

Every stochastic operation in the package takes an ``Rng`` argument; there is
no global generator. Splitting is hierarchical and deterministic: a parent
seeded with the same value always produces the same children, and children
split with distinct keys are statistically independent.

A stream is NumPy's ``default_rng(SeedSequence(seed, spawn_key=keys))``,
with one blake2b word per split key, and it costs only its draws:

- ``split`` keeps the entropy and the spawn key, and the ``SeedSequence`` and
  Generator are built on the first draw, so a stream that is only split costs
  one blake2b.
- Many streams whose keys differ in one word draw through one Generator,
  re-stated per stream: one parent's siblings (``Rng.sibling_gens``), and
  ``normal_rows`` on fresh streams such as a sweep cell's candidates or each
  budgeted step's proposal noise. Their PCG64 states are derived in one
  vectorized pass of the published algorithms NumPy seeds with:
  ``SeedSequence``'s uint32 hashmix pool, ``generate_state(4, uint64)`` and
  PCG64's two-step ``srandom``. A re-stated Generator draws exactly what the
  stream's own Generator would.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

import numpy as np

from .errors import ContractViolation


class Rng:
    """Thin wrapper over ``numpy.random.Generator`` with keyed splitting.

    The Generator is built on the first draw, so a stream that is only split
    never pays for one; its draws are those of an eagerly built Generator.
    """

    _state = None  # PCG64 state to resume from, set when ``normal_rows`` drew in bulk

    def __init__(self, seed):
        if int(seed) < 0:
            raise ContractViolation(f"seed must be a non-negative integer, not {seed!r}")
        self._entropy = int(seed)
        self._spawn_key = ()

    @cached_property
    def gen(self) -> np.random.Generator:
        if self._state is None:
            return np.random.default_rng(
                np.random.SeedSequence(self._entropy, spawn_key=self._spawn_key))
        gen = np.random.Generator(np.random.PCG64(0))
        gen.bit_generator.state = self._state
        return gen

    def split(self, key) -> "Rng":
        """Derive an independent child generator from a string or int key."""
        child = Rng.__new__(Rng)
        child._entropy = self._entropy
        child._spawn_key = self._spawn_key + (_key_word(key),)
        return child

    def sibling_gens(self, keys):
        """Yield, for each key in turn, a Generator that draws exactly what
        ``self.split(key)`` would draw.

        It is one Generator, re-stated per key: finish a key's draws before
        taking the next, and keep none of them.
        """
        return _sibling_gens(self._entropy, self._spawn_key, [_key_word(k) for k in keys])

    # Convenience passthroughs; they return float64 / int64 arrays, except
    # that ``uniform`` and ``integers`` with ``shape=()`` take the Generator's
    # cheaper scalar path, which returns the value a 0-d draw would hold.
    def normal(self, shape=()):
        return self.gen.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, shape=()):
        return self.gen.uniform(low, high, _size(shape))

    def integers(self, low, high, shape=()):
        return self.gen.integers(low, high, size=_size(shape))

    def permutation(self, n):
        return self.gen.permutation(n)


def _size(shape):
    return None if isinstance(shape, tuple) and not shape else shape


def _key_word(key) -> int:
    return int.from_bytes(hashlib.blake2b(str(key).encode(), digest_size=8).digest(), "little")


def normal_rows(rngs, shape) -> np.ndarray:
    """One N(0, I) draw of ``shape`` from each stream, stacked as rows.

    Row i is exactly ``rngs[i].normal(shape)``, and each stream moves on as
    that call would move it, so a batch built from per-row streams draws the
    same noise as one call per row. Two or more distinct fresh streams (none
    drawn yet) whose keys differ in one word only, such as one parent's
    children or each budgeted step's ``propose``/``noise`` stream, draw in
    bulk; one row keeps NumPy's own seeding, which is cheaper for one.
    """
    at = _varying_word(rngs) if len(rngs) > 1 else None
    if at is not None:
        first, rows = rngs[0], []
        key = first._spawn_key
        gens = _sibling_gens(first._entropy, key[:at], [r._spawn_key[at] for r in rngs],
                             key[at + 1:])
        for r, gen in zip(rngs, gens):
            rows.append(gen.standard_normal(shape))
            r._state = gen.bit_generator.state
        return np.stack(rows)
    return np.stack([r.normal(shape) for r in rngs])


def _varying_word(rngs):
    """The position of the one spawn-key word the streams differ in (the last
    if none differs), or None unless they are distinct, none has drawn, and
    they share their entropy and every other key word."""
    first = rngs[0]
    key = first._spawn_key
    if not key or len(set(map(id, rngs))) < len(rngs) or any(
            r._entropy != first._entropy or len(r._spawn_key) != len(key)
            or r._state is not None or "gen" in vars(r) for r in rngs):
        return None
    differ = {i for r in rngs for i, (a, b) in enumerate(zip(r._spawn_key, key)) if a != b}
    if len(differ) > 1:
        return None
    return differ.pop() if differ else len(key) - 1


# -- bulk seeding ------------------------------------------------------------
# NumPy's SeedSequence (pool of four uint32 words, hashmix and mix) and PCG64's
# seeding, as published with NumPy 1.17 and PCG (O'Neill, 2014).

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _uint32_words(n: int) -> list:
    """``n`` as little-endian uint32 words, as SeedSequence reads an int (0 is one word)."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash_consts(start: int, mult: int, count: int) -> list:
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return consts


# generate_state's hash constants for eight uint32 words (four uint64).
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


# Both work on an int below 2**32 or on a uint32 array, which wraps by itself.
def _hash(value, h, h_next):
    value = (value ^ h) * h_next & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _sibling_states(entropy: int, prefix: tuple, words, suffix=()) -> list:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence(entropy,
    spawn_key=prefix + (w,) + suffix))`` for each word ``w`` below 2**64.

    The streams share their entropy words up to their own key word: the run
    entropy, padded to the pool's four words (a child has a spawn key), fills
    and mixes the pool, then each prefix key word is mixed in. That is done
    once; each stream's word, then the suffix's words, are mixed in by uint32
    array ops over all of them.
    """
    run = _uint32_words(entropy)
    shared = run + [0] * (4 - len(run)) + [x for k in prefix for x in _uint32_words(k)]
    after = [x for k in suffix for x in _uint32_words(k)]
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * (len(shared) + len(after)) + 8)
    calls = zip(consts, consts[1:])

    def hashmix(value):
        return _hash(value, *next(calls))

    pool = [hashmix(x) for x in shared[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for x in shared[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(x))
    # A stream's entropy words past the shared ones: its word's low uint32
    # limb, its high limb if the word is 2**32 or more, then the suffix's. A
    # one-limb stream has one word fewer, so its last column is not mixed.
    w = np.array(words, dtype=np.uint64)
    two = w > _M32
    tail = np.empty((len(w), len(after) + 2), dtype=np.uint32)
    tail[:, 0] = w & _M32
    tail[:, 1:-1] = after
    tail[two, 1] = w[two] >> 32
    tail[two, 2:] = after
    pool = [np.full(len(w), p, dtype=np.uint32) for p in pool]
    for col, limb in enumerate(tail.T):
        rows = two if col == len(after) + 1 else slice(None)
        limb = limb[rows]
        for dst in range(4):
            pool[dst][rows] = _mix(pool[dst][rows], hashmix(limb))
    # generate_state(4, uint64): eight words hashed from the pool cycled twice,
    # read as little-endian pairs: the seed's high and low halves, then inc's.
    out = [_hash(pool[i % 4], _STATE_CONSTS[i], _STATE_CONSTS[i + 1]).astype(np.uint64)
           for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[2 * k] | out[2 * k + 1] << 32).tolist()
                                        for k in range(4))
    # PCG64's srandom: inc = 2 initseq + 1; from state 0, step, add the seed, step.
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _M128, inc))
    return states


def _sibling_gens(entropy: int, prefix: tuple, words, suffix=()):
    """Yield one Generator, re-stated with an empty 32-bit buffer to each
    stream's derived state in turn (see ``Rng.sibling_gens``)."""
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    for state, inc in _sibling_states(entropy, prefix, words, suffix):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield gen
