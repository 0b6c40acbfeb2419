"""Numeric core: matrices, differentiable ops, optimizer, gradient checks.

Importing it pins OpenBLAS to one thread (see :mod:`.blas`).
"""

from .blas import pin_one_thread
from .gradcheck import gradient_check
from .matrix import (
    Matrix,
    affine,
    elementwise_activation,
    masked_cross_entropy,
    max_over_time,
    xavier_init,
)
from .optim import (
    Parameter,
    adam_step,
    add_rows_at,
    check_finite,
    check_schedule,
    clip_global_norm,
    zero_grads,
)
from .rng import Lockstep, Rng

pin_one_thread()

__all__ = [
    "Lockstep",
    "Matrix",
    "Parameter",
    "Rng",
    "adam_step",
    "add_rows_at",
    "check_finite",
    "check_schedule",
    "affine",
    "clip_global_norm",
    "elementwise_activation",
    "gradient_check",
    "masked_cross_entropy",
    "max_over_time",
    "xavier_init",
    "zero_grads",
]
