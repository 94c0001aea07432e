"""A retired parameter holder, imported by nothing in ``flowopt``.

Model parameters are plain float64 arrays. ``Tensor`` stays only because the
benchmark's tracer (``bench/tracer.py``) and its smoke test import this module
and patch ``Tensor.__init__`` for the ``autodiff.tensors`` count, which now
reads 0; the module goes when that metric retires. The reverse-mode tape the
array pullbacks are compared against is the tests' ``tests/tape.py``.
"""

import numpy as np


class Tensor:
    """One float64 parameter array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
