"""The parameter holder.

The program trains and infers on arrays. ``Tensor`` holds one parameter
array, ``data``; which gradients a pullback computes is its caller's
argument, not a flag on the parameter. ``AdamState.create`` rebinds ``data``
to the parameter's view of the optimizer's flat buffer.

The pullbacks take the ops, in the order, of the reverse-mode tape in the
tests' ``tests/tape.py``, which the property tests compare them against.
"""

import numpy as np


class Tensor:
    """One float64 parameter array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
