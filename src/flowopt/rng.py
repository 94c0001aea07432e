"""Splittable, explicitly threaded random number generation.

Every stochastic operation in the package takes an ``Rng`` argument; there is
no global generator. Splitting is hierarchical and deterministic: a parent
seeded with the same value always produces the same children, and children
split with distinct keys are statistically independent.
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

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        elif int(seed) < 0:
            raise ContractViolation(f"seed must be a non-negative integer, not {seed!r}")
        else:
            self._seq = np.random.SeedSequence(int(seed))

    @cached_property
    def gen(self) -> np.random.Generator:
        return np.random.default_rng(self._seq)

    def split(self, key) -> "Rng":
        """Derive an independent child generator from a string or int key."""
        digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
        child = np.random.SeedSequence(
            entropy=self._seq.entropy,
            spawn_key=self._seq.spawn_key + (int.from_bytes(digest, "little"),),
        )
        return Rng(child)

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


def normal_rows(rngs, shape) -> np.ndarray:
    """One N(0, I) draw of ``shape`` from each stream, stacked as rows.

    Row i is exactly ``rngs[i].normal(shape)``, so a batch built from
    per-row streams draws the same noise as one call per row.
    """
    return np.stack([r.normal(shape) for r in rngs])
