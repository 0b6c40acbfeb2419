"""The differentiable operations of the classifier and the generator's loss.

Each op takes and returns plain float64 numpy arrays. ``affine``,
``elementwise_activation`` and ``max_over_time`` return ``(output,
backward)``, where ``backward`` maps the upstream gradient to gradients of
the inputs, computed analytically; ``masked_cross_entropy`` returns
``(loss, dlogits)``. Gradients are plain values; accumulation into
:class:`~traitgen.numeric.optim.Parameter` buffers is the caller's job.

All arithmetic is float64. Operations are pure functions of their inputs,
so repeated calls are bit-identical and arrays can be shared read-only
across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TraitgenError
from .rng import Rng, _splitmix_range


class Matrix:
    """The logits argument of :func:`masked_cross_entropy`, held in ``.a``.

    Only its ``rows`` is read, by ``perfbench/spans.py``'s cross-entropy
    counter (``args[0].rows``); it goes once that counter reads the
    array's shape.
    """

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]


def xavier_init(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Uniform Xavier/Glorot init on [-a, a], a = sqrt(6 / (rows + cols)).

    Counter-based: takes one 64-bit key from ``rng``; entry j (row-major)
    is ``-a + 2a * u`` with ``u`` the top 53 bits of splitmix64 output
    j + 1 of that key, scaled to [0, 1). The result is a pure function of
    (rows, cols, rng state), and successive calls on one stream differ.
    """
    if rows < 1 or cols < 1:
        raise TraitgenError(f"xavier_init needs positive dimensions, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / (rows + cols))
    u = (_splitmix_range(rng.next_uint64(), rows * cols) >> np.uint64(11)) * 2.0 ** -53
    return (-bound + 2.0 * bound * u).reshape(rows, cols)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x @ w + b with b broadcast over rows.

    Returns (out, backward); backward(d) -> (dx, dw, db).
    """
    if x.shape[1] != w.shape[0]:
        raise TraitgenError(f"affine inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.shape[0] != 1 or b.shape[1] != w.shape[1]:
        raise TraitgenError(f"affine bias must be 1x{w.shape[1]}, got {b.shape}")
    out = x @ w + b

    def backward(d: np.ndarray):
        if d.shape != out.shape:
            raise TraitgenError(f"upstream gradient shape {d.shape} != output {out.shape}")
        return d @ w.T, x.T @ d, d.sum(axis=0, keepdims=True)

    return out, backward


def elementwise_activation(x: np.ndarray):
    """relu entrywise.

    Returns (out, backward); backward(d) passes d where the input was
    positive and zero elsewhere.
    """
    if not np.isfinite(x).all():
        raise TraitgenError("activation input contains non-finite entries")

    def backward(d: np.ndarray):
        return d * (x > 0.0)

    return np.maximum(x, 0.0), backward


def masked_cross_entropy(logits: Matrix, targets: Sequence[int], mask: Sequence[int]):
    """Mean negative log-likelihood over unmasked positions, and its gradient.

    ``logits.a`` is T x V; ``targets`` and ``mask`` have length T. Position
    t contributes ``-log softmax(logits[t])[targets[t]]`` when ``mask[t]``
    is 1 and nothing otherwise. Returns (loss, dlogits), dlogits being
    ``(softmax - onehot) * mask / (sum of mask)``. The logits are left
    unchanged, and the loss is the log-softmax expression ``shifted -
    log(sum(exp(shifted)))`` at the target, ``shifted`` being each row
    minus its maximum.
    """
    la = logits.a
    t_arr = np.asarray(targets, dtype=np.int64)
    m_arr = np.asarray(mask, dtype=np.float64)
    if t_arr.ndim != 1 or m_arr.ndim != 1 or t_arr.size != la.shape[0] or m_arr.size != la.shape[0]:
        raise TraitgenError(
            f"targets/mask of lengths {t_arr.size}/{m_arr.size} do not match {la.shape[0]} logit rows"
        )
    if t_arr.size and (t_arr.min() < 0 or t_arr.max() >= la.shape[1]):
        raise TraitgenError(f"target ids must lie in [0, {la.shape[1]}), got range "
                            f"[{t_arr.min()}, {t_arr.max()}]")
    denom = m_arr.sum()
    if denom <= 0.0:
        raise TraitgenError("mask selects no positions")

    rows = np.arange(la.shape[0])
    shifted = la - la.max(axis=1, keepdims=True)
    picked = shifted[rows, t_arr]
    grad = np.exp(shifted, out=shifted)  # the one exp; it becomes the gradient in place
    sums = grad.sum(axis=1, keepdims=True)
    picked -= np.log(sums)[:, 0]
    loss = float(-(m_arr * picked).sum() / denom)
    grad /= sums
    grad[rows, t_arr] -= 1.0
    grad *= (1.0 / denom) * m_arr[:, None]
    return loss, grad


def max_over_time(features: np.ndarray):
    """Column-wise maximum over positions (rows).

    Ties break toward the lowest row index. Returns (out, backward); ``out``
    is 1 x F, and backward routes the upstream gradient only to each
    column's winning row.
    """
    if features.shape[0] < 1:
        raise TraitgenError("max_over_time needs at least one position")
    arg = features.argmax(axis=0)  # numpy argmax returns the first (lowest) index on ties
    cols = np.arange(features.shape[1])
    out = features[arg, cols][None, :]

    def backward(d: np.ndarray):
        if d.shape != (1, features.shape[1]):
            raise TraitgenError(f"upstream gradient must be 1x{features.shape[1]}, got {d.shape}")
        grad = np.zeros_like(features)
        grad[arg, cols] = d[0]
        return grad

    return out, backward
