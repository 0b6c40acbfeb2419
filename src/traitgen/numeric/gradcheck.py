"""Finite-difference verification of analytic gradients.

Compares every parameter coordinate's analytic gradient against a
central difference of the loss. The check returns each parameter's largest
relative error and passes no verdict: one pass covers every parameter of a
model, and each caller holds the errors to its own tolerance.
"""

from __future__ import annotations

from typing import Callable

from .optim import Parameters, zero_grads


def gradient_check(
    loss_fn: Callable[[], float],
    grad_fn: Callable[[], float],
    model: Parameters,
    *,
    h: float = 1e-5,
) -> dict[str, float]:
    """Each parameter's largest relative error against central differences.

    ``loss_fn`` runs the forward pass only; ``grad_fn`` runs forward plus
    backward, accumulating into the gradients of ``model``. Both must be
    deterministic functions of its parameter values.
    """
    zero_grads(model)
    grad_fn()
    analytic = {p.name: p.grad.copy() for p in model.params}

    errors = {}
    for p in model.params:
        flat_value = p.value.reshape(-1)  # a view of the model's flat buffer
        worst = 0.0
        flat_analytic = analytic[p.name].reshape(-1)
        for idx in range(flat_value.size):
            original = flat_value[idx]
            flat_value[idx] = original + h
            plus = loss_fn()
            flat_value[idx] = original - h
            minus = loss_fn()
            flat_value[idx] = original
            numeric = (plus - minus) / (2.0 * h)
            a = flat_analytic[idx]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        errors[p.name] = worst
    return errors
