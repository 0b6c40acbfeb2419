"""Finite-difference verification of analytic gradients.

Compares each sampled parameter coordinate's analytic gradient against a
central difference of the loss. The check returns each parameter's largest
relative error and passes no verdict: one pass covers every parameter of a
model, and each caller holds the errors to its own tolerance.
"""

from __future__ import annotations

from typing import Callable

from .optim import Parameters, zero_grads
from .rng import Rng


def gradient_check(
    loss_fn: Callable[[], float],
    grad_fn: Callable[[], float],
    model: Parameters,
    *,
    h: float = 1e-5,
    rng: Rng | None = None,
    max_coords_per_param: int | None = None,
) -> dict[str, float]:
    """Each parameter's largest relative error against central differences.

    ``loss_fn`` runs the forward pass only; ``grad_fn`` runs forward plus
    backward, accumulating into the gradients of ``model``. Both must be
    deterministic functions of its parameter values. When
    ``max_coords_per_param`` is given, that many coordinates are sampled per
    parameter using ``rng``; otherwise every coordinate is checked.
    """
    zero_grads(model)
    grad_fn()
    analytic = {p.name: p.grad.copy() for p in model.params}

    errors = {}
    for p in model.params:
        flat_value = p.value.reshape(-1)  # a view of the model's flat buffer
        n = flat_value.size
        if max_coords_per_param is None or max_coords_per_param >= n:
            coords = range(n)
        else:
            if rng is None:
                raise ValueError("sampling coordinates requires an rng")
            coords = sorted({rng.randint(n) for _ in range(max_coords_per_param)})
        worst = 0.0
        flat_analytic = analytic[p.name].reshape(-1)
        for idx in coords:
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
