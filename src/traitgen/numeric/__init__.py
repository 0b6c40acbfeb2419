"""Numeric core: matrices, differentiable ops, optimizer, gradient checks."""

from .gradcheck import GradCheckReport, gradient_check
from .matrix import (
    Matrix,
    affine,
    elementwise_activation,
    masked_cross_entropy,
    max_over_time,
    xavier_init,
)
from .optim import Parameter, adam_step, clip_global_norm, zero_grads
from .rng import Rng

__all__ = [
    "GradCheckReport",
    "Matrix",
    "Parameter",
    "Rng",
    "adam_step",
    "affine",
    "clip_global_norm",
    "elementwise_activation",
    "gradient_check",
    "masked_cross_entropy",
    "max_over_time",
    "xavier_init",
    "zero_grads",
]
