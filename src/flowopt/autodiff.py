"""The parameter holder.

The program trains and infers on arrays. ``Tensor`` holds one parameter
array, ``data``, and the ``requires_grad`` flag that freezes it: the
pullbacks give a frozen parameter no gradient. ``AdamState.create`` rebinds
``data`` to the parameter's view of the optimizer's flat buffer.

The pullbacks take the ops, in the order, of the reverse-mode tape in the
tests' ``tests/tape.py``, which the property tests compare them against.
"""

import numpy as np


class Tensor:
    """One float64 parameter array, trainable until ``requires_grad`` is
    turned off."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = True
