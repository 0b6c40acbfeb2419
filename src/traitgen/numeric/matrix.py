"""Dense 64-bit matrices and the differentiable operations built on them.

Every operation that participates in training returns ``(output, backward)``
where ``backward`` maps the upstream gradient to gradients of the inputs,
computed analytically (the loss's backward takes no argument). Gradients
are plain values; accumulation into :class:`~traitgen.numeric.optim.Parameter`
buffers is the caller's job.

All arithmetic is float64. Operations are pure functions of their inputs,
so repeated calls are bit-identical and matrices can be shared read-only
across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TraitgenError
from .rng import Rng, _splitmix_range


class Matrix:
    """A rows x cols float64 argument or result of the differentiable ops.

    Wraps a 2-D numpy array (``.a``). The wrapper pins the dtype and
    dimensionality at the op boundary; model state lives in plain arrays
    (see :class:`~traitgen.numeric.optim.Parameter`).
    """

    __slots__ = ("a",)

    def __init__(self, data):
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 2:
            raise TraitgenError(f"matrix data must be 2-D, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise TraitgenError(f"matrix dimensions must be at least 1x1, got {a.shape}")
        self.a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        # internal fast path: trusted 2-D float64 array, no copy
        m = object.__new__(cls)
        m.a = a
        return m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


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


def affine(x: Matrix, w: Matrix, b: Matrix):
    """x @ w + b with b broadcast over rows.

    Returns (out, backward); backward(d) -> (dx, dw, db).
    """
    if x.cols != w.rows:
        raise TraitgenError(f"affine inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise TraitgenError(f"affine bias must be 1x{w.cols}, got {b.shape}")
    xa, wa = x.a, w.a
    out = xa @ wa + b.a

    def backward(d: Matrix):
        da = d.a
        if da.shape != out.shape:
            raise TraitgenError(f"upstream gradient shape {da.shape} != output {out.shape}")
        dx = da @ wa.T
        dw = xa.T @ da
        db = da.sum(axis=0, keepdims=True)
        return Matrix._wrap(dx), Matrix._wrap(dw), Matrix._wrap(db)

    return Matrix._wrap(out), backward


def elementwise_activation(x: Matrix):
    """relu entrywise.

    Returns (out, backward); backward(d) passes d where the input was
    positive and zero elsewhere.
    """
    xa = x.a
    if not np.isfinite(xa).all():
        raise TraitgenError("activation input contains non-finite entries")

    def backward(d: Matrix):
        return Matrix._wrap(d.a * (xa > 0.0))

    return Matrix._wrap(np.maximum(xa, 0.0)), backward


def masked_cross_entropy(logits: Matrix, targets: Sequence[int], mask: Sequence[int]):
    """Mean negative log-likelihood over unmasked positions.

    ``logits`` is T x V; ``targets`` and ``mask`` have length T. Position t
    contributes ``-log softmax(logits[t])[targets[t]]`` when ``mask[t]`` is 1
    and nothing otherwise. Returns (loss, backward); backward() -> dlogits.
    ``logits`` is left unchanged, and the loss is the log-softmax
    expression ``shifted - log(sum(exp(shifted)))`` at the target,
    ``shifted`` being each row minus its maximum.
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
    exp = np.exp(shifted, out=shifted)  # the one exp; backward turns it into the gradient
    sums = exp.sum(axis=1, keepdims=True)
    picked -= np.log(sums)[:, 0]
    loss = float(-(m_arr * picked).sum() / denom)

    def backward():
        """dlogits = (softmax - onehot) * mask / denom, written into the exp buffer.

        Call it at most once: it consumes that buffer.
        """
        grad = exp
        grad /= sums
        grad[rows, t_arr] -= 1.0
        grad *= (1.0 / denom) * m_arr[:, None]
        return Matrix._wrap(grad)

    return loss, backward


def max_over_time(features: Matrix):
    """Column-wise maximum over positions (rows).

    Ties break toward the lowest row index. Returns (out, backward); ``out``
    is 1 x F, and backward routes the upstream gradient only to each
    column's winning row.
    """
    fa = features.a
    if fa.shape[0] < 1:
        raise TraitgenError("max_over_time needs at least one position")
    arg = fa.argmax(axis=0)  # numpy argmax returns the first (lowest) index on ties
    cols = np.arange(fa.shape[1])
    out = fa[arg, cols][None, :]

    def backward(d: Matrix):
        da = d.a
        if da.shape != (1, fa.shape[1]):
            raise TraitgenError(f"upstream gradient must be 1x{fa.shape[1]}, got {da.shape}")
        grad = np.zeros_like(fa)
        grad[arg, cols] = da[0]
        return Matrix._wrap(grad)

    return Matrix._wrap(out), backward
