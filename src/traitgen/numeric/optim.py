"""Trainable parameters, the Adam update, and global gradient clipping."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import TraitgenError

# the one training recipe of both networks
CLIP_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Parameter:
    """A weight matrix with its gradient and Adam state.

    ``value``, ``grad``, ``opt_m`` and ``opt_v`` are 2-D, C-contiguous
    float64 arrays of one shape, owned by the parameter and only ever
    written in place, so a view of any of them stays live. ``grad``,
    ``opt_m`` and ``opt_v`` come from ``np.zeros``, which asks the
    allocator for zeroed memory and, at the sizes of weight matrices, gets
    fresh pages that stay unfaulted until written, so a model that is only
    loaded never makes them resident. ``scratch`` holds two more arrays
    of that shape in which :func:`adam_step` works; the first update
    allocates it. Updates require exclusive access; everything else is
    read-only safe.
    """

    __slots__ = ("name", "value", "grad", "opt_m", "opt_v", "scratch", "step_count")

    def __init__(self, name: str, value: np.typing.ArrayLike) -> None:
        a = np.array(value, dtype=np.float64, order="C")  # always a copy
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise TraitgenError(f"parameter {name!r} must be a 2-D array of at least 1x1, "
                                f"got shape {a.shape}")
        self.name = name
        self.value = a
        self.grad = np.zeros(a.shape)
        self.opt_m = np.zeros(a.shape)
        self.opt_v = np.zeros(a.shape)
        self.scratch = None
        self.step_count = 0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, {self.value.shape[0]}x{self.value.shape[1]})"


def check_schedule(epochs: int, batch_size: int, learning_rate: float) -> None:
    """Reject a training schedule no trainer can run."""
    if epochs < 0:
        raise TraitgenError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise TraitgenError(f"batch_size must be >= 1, got {batch_size}")
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise TraitgenError(f"learning_rate must be a finite number > 0, got {learning_rate}")


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad.fill(0.0)


def check_finite(params: Iterable[Parameter]) -> None:
    """Raise :class:`TraitgenError` naming the first parameter with a non-finite value."""
    for p in params:
        if not np.isfinite(p.value).all():
            raise TraitgenError(f"non-finite value in parameter {p.name!r}")


def adam_step(param: Parameter, lr: float) -> None:
    """One Adam update with bias correction.

    Increments ``step_count`` and updates ``value`` in place; the gradient
    buffer is left intact until :func:`zero_grads` clears it. Evaluates
    ``value -= lr * m_hat / (sqrt(v_hat) + eps)`` operation by operation
    in ``param.scratch``, so the bits are those of the textbook expression
    without its temporaries.
    """
    g = param.grad
    if not np.isfinite(g).all():
        raise TraitgenError(f"non-finite gradient in parameter {param.name!r}")
    param.step_count += 1
    t = param.step_count
    m, v = param.opt_m, param.opt_v
    if param.scratch is None:
        param.scratch = np.empty((2,) + g.shape)
    a, b = param.scratch
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
    param.value -= a


def add_rows_at(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(out, ids, rows)`` for a C-contiguous 2-D ``out``, bit for bit.

    Entry ``(u, j)`` receives ``rows[i, j]`` for each ``i`` with
    ``ids[i] == u``, in increasing ``i``. One ``np.add.at`` on the flat
    view of ``out``, at indices ``ids[i] * k + j``, adds in that order and
    takes numpy's fast path for 1-D indices.
    """
    k = out.shape[1]
    np.add.at(out.reshape(-1), (ids[:, None] * k + np.arange(k)).reshape(-1), rows.reshape(-1))


def clip_global_norm(params: Iterable[Parameter]) -> float:
    """Scale all gradients so their joint L2 norm is at most :data:`CLIP_NORM`.

    Returns the scale that was applied (1.0 when no clipping happened).
    """
    params = list(params)
    total = 0.0
    for p in params:
        g = p.grad
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm <= CLIP_NORM or norm == 0.0:
        return 1.0
    scale = CLIP_NORM / norm
    for p in params:
        p.grad *= scale
    return scale
