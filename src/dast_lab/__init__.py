"""Desk-scale disease-aware report generation lab.

Two-stage training over synthetic chest studies: disease-token representation
learning, then retrieval-augmented report decoding with a frozen backbone.
"""

import os

# One BLAS thread unless the user says otherwise, set before numpy first loads
# it: multi-threaded OpenBLAS rounds some larger products differently, so
# checkpoints would depend on the machine's core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"

from .tensor import Tensor, backward, grad_check  # noqa: E402, F401
