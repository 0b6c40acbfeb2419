from __future__ import annotations

import numpy as np

from traitgen.numeric import Parameters, Rng, affine
from traitgen.numeric.gradcheck import gradient_check


def test_affine_mse_toy_passes_tightly() -> None:
    # linear model + squared error: central differences are exact up to rounding
    rng = Rng(31)
    model = Parameters({"w": (3, 2), "b": (1, 2)})
    w, b = model.params
    w.value[...] = [[2.0 * rng.random() - 1.0 for _ in range(2)] for _ in range(3)]
    b.value[...] = [[2.0 * rng.random() - 1.0 for _ in range(2)]]
    x = np.array([[2.0 * rng.random() - 1.0 for _ in range(3)] for _ in range(4)])
    y = np.array([[2.0 * rng.random() - 1.0 for _ in range(2)] for _ in range(4)])

    def loss_fn() -> float:
        out, _ = affine(x, w.value, b.value)
        return float(((out - y) ** 2).mean())

    def grad_fn() -> float:
        out, back = affine(x, w.value, b.value)
        diff = out - y
        _, dw, db = back(2.0 * diff / diff.size)
        w.grad += dw
        b.grad += db
        return float((diff ** 2).mean())

    errors = gradient_check(loss_fn, grad_fn, model, h=1e-5)
    assert max(errors.values()) < 1e-7, errors


def test_errors_name_every_parameter() -> None:
    model = Parameters({"solo": (1, 1)})
    p = model.params[0]
    p.value[0, 0] = 0.5

    def loss_fn() -> float:
        return float(p.value[0, 0] ** 2)

    def grad_fn() -> float:
        p.grad[0, 0] += 2.0 * p.value[0, 0]
        return loss_fn()

    errors = gradient_check(loss_fn, grad_fn, model)
    assert list(errors) == ["solo"]
    assert errors["solo"] < 1e-6


def test_failure_is_reported_not_raised() -> None:
    model = Parameters({"bad": (1, 1)})
    p = model.params[0]
    p.value[0, 0] = 1.0

    def loss_fn() -> float:
        return float(p.value[0, 0] ** 2)

    def grad_fn() -> float:
        p.grad[0, 0] += 100.0  # wrong on purpose
        return loss_fn()

    errors = gradient_check(loss_fn, grad_fn, model)
    assert not max(errors.values()) < 1e-4
