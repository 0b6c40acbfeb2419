"""Numeric core: differentiable ops on plain float64 arrays, optimizer, RNG, gradient checks.

Importing it pins OpenBLAS to one thread (see :mod:`.blas`).
"""

from .blas import pin_one_thread
from .matrix import (
    Matrix,
    affine,
    elementwise_activation,
    masked_cross_entropy,
    max_over_time,
    xavier_init,
)
from .optim import (
    Parameters,
    adam_step,
    add_rows_at,
    check_finite,
    check_schedule,
    clip_global_norm,
    zero_grads,
)
from .rng import Lockstep, Rng

pin_one_thread()
