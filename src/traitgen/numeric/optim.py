"""Trainable parameters, the Adam update, and global gradient clipping."""

from __future__ import annotations

from dataclasses import make_dataclass

import numpy as np

from ..errors import TraitgenError

# the one training recipe of both networks
CLIP_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# most weights one model may hold: far above any real configuration (the CLI
# defaults at the largest vocabulary hold about 3.3 million)
MAX_WEIGHTS = 10 ** 8


# one named weight matrix: (rows, cols) views of its store's value and grad
Parameter = make_dataclass("Parameter", ["name", "value", "grad"], slots=True)


class Parameters:
    """The weights of a ``{name: (rows, cols)}`` table, back to back in flat buffers.

    ``value``, ``grad``, ``opt_m`` and ``opt_v`` are 1-D float64 buffers
    in table order, each one ``np.zeros``: at model sizes that is fresh
    pages, unfaulted until written, so a model that is only loaded never
    makes its gradient and moments resident. ``params`` holds one
    :class:`Parameter` per entry. Buffers are only written in place, so
    the views stay live; updates need exclusive access.
    """

    def __init__(self, shapes: dict[str, tuple[int, int]]) -> None:
        sizes = [rows * cols for rows, cols in shapes.values()]
        if sum(sizes) > MAX_WEIGHTS:
            raise TraitgenError(f"model has {sum(sizes)} weights, more than {MAX_WEIGHTS}")
        self.value, self.grad, self.opt_m, self.opt_v = (np.zeros(sum(sizes)) for _ in range(4))
        self.scratch = np.empty((2, sum(sizes)))  # for adam_step
        self.step_count = 0
        cuts = np.cumsum(sizes)[:-1]
        views = zip(np.split(self.value, cuts), np.split(self.grad, cuts))
        self.params = [Parameter(name, value.reshape(shape), grad.reshape(shape))
                       for (name, shape), (value, grad) in zip(shapes.items(), views)]


def check_schedule(epochs: int, batch_size: int, learning_rate: float) -> None:
    """Reject a training schedule no trainer can run."""
    if epochs < 0:
        raise TraitgenError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise TraitgenError(f"batch_size must be >= 1, got {batch_size}")
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise TraitgenError(f"learning_rate must be a finite number > 0, got {learning_rate}")


def zero_grads(model: Parameters) -> None:
    model.grad.fill(0.0)


def _require_finite(model: Parameters, field: str, what: str) -> None:
    """Raise naming the first parameter, in table order, whose ``field`` is not all finite."""
    if not np.isfinite(getattr(model, field)).all():
        name = next(p.name for p in model.params if not np.isfinite(getattr(p, field)).all())
        raise TraitgenError(f"non-finite {what} in parameter {name!r}")


def check_finite(model: Parameters) -> None:
    """Raise :class:`TraitgenError` naming the first parameter with a non-finite value."""
    _require_finite(model, "value", "value")


def adam_step(model: Parameters, lr: float) -> None:
    """One Adam update with bias correction, over every weight of ``model`` at once.

    Increments ``step_count`` and updates ``value`` in place; the gradient
    buffer is left intact until :func:`zero_grads` clears it. Evaluates
    ``value -= lr * m_hat / (sqrt(v_hat) + eps)`` operation by operation
    in ``model.scratch``, so the bits are those of the textbook expression
    without its temporaries.
    """
    _require_finite(model, "grad", "gradient")
    model.step_count += 1
    t = model.step_count
    g, m, v = model.grad, model.opt_m, model.opt_v
    a, b = model.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(g, g, out=a)
    v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=a)  # m_hat
    a *= lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    model.value -= a


def add_rows_at(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(out, ids, rows)`` for a C-contiguous 2-D ``out``, bit for bit.

    Entry ``(u, j)`` receives ``rows[i, j]`` for each ``i`` with
    ``ids[i] == u``, in increasing ``i``. One ``np.add.at`` on the flat
    view of ``out``, at indices ``ids[i] * k + j``, adds in that order and
    takes numpy's fast path for 1-D indices.
    """
    k = out.shape[1]
    np.add.at(out.reshape(-1), (ids[:, None] * k + np.arange(k)).reshape(-1), rows.reshape(-1))


def clip_global_norm(model: Parameters) -> float:
    """Scale all gradients so their joint L2 norm is at most :data:`CLIP_NORM`.

    Returns the scale that was applied (1.0 when no clipping happened).
    """
    total = 0.0
    for p in model.params:  # each parameter's own sum, added in table order
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm <= CLIP_NORM:
        return 1.0
    scale = CLIP_NORM / norm
    model.grad *= scale
    return scale
