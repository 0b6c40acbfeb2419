"""Dense 64-bit matrices and the differentiable operations built on them.

Every operation that participates in training returns ``(output, backward)``
where ``backward`` maps the upstream gradient to gradients of the inputs,
computed analytically. Gradients are plain values; accumulation into
:class:`~traitgen.numeric.optim.Parameter` buffers is the caller's job.

All arithmetic is float64. Operations are pure functions of their inputs,
so repeated calls are bit-identical and matrices can be shared read-only
across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DegenerateMaskError, EmptyInputError, InvalidIdError, ShapeError
from .rng import Rng


class Matrix:
    """A rows x cols matrix of float64 values, row-major.

    Wraps a 2-D numpy array (``.a``). The wrapper exists to pin the dtype
    and dimensionality at module boundaries; package-internal code works
    on ``.a`` directly.
    """

    __slots__ = ("a",)

    def __init__(self, data):
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"matrix data must be 2-D, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be at least 1x1, got {a.shape}")
        self.a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        # internal fast path: trusted 2-D float64 array, no copy
        m = object.__new__(cls)
        m.a = a
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be at least 1x1, got ({rows}, {cols})")
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def from_flat(cls, rows: int, cols: int, flat: Sequence[float]) -> "Matrix":
        data = np.asarray(flat, dtype=np.float64)
        if data.ndim != 1 or data.size != rows * cols:
            raise ShapeError(
                f"flat data of length {data.size} does not fill a {rows}x{cols} matrix"
            )
        return cls._wrap(data.reshape(rows, cols).copy())

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def flat(self) -> np.ndarray:
        """Entries as a flat row-major vector (copy if non-contiguous)."""
        return np.ascontiguousarray(self.a).reshape(-1)

    def tolist(self) -> list[list[float]]:
        return self.a.tolist()

    def copy(self) -> "Matrix":
        return Matrix._wrap(self.a.copy())

    def __getitem__(self, idx):
        return self.a[idx]

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def xavier_init(rows: int, cols: int, rng: Rng) -> Matrix:
    """Uniform Xavier/Glorot init on [-a, a], a = sqrt(6 / (rows + cols)).

    Entries are drawn row-major from ``rng``, one uniform per entry, so the
    result is a pure function of (rows, cols, rng state).
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"xavier_init needs positive dimensions, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / (rows + cols))
    out = np.empty(rows * cols)
    for i in range(rows * cols):
        out[i] = rng.uniform(-bound, bound)
    return Matrix._wrap(out.reshape(rows, cols))


def affine(x: Matrix, w: Matrix, b: Matrix):
    """x @ w + b with b broadcast over rows.

    Returns (out, backward); backward(d) -> (dx, dw, db).
    """
    if x.cols != w.rows:
        raise ShapeError(f"affine inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeError(f"affine bias must be 1x{w.cols}, got {b.shape}")
    xa, wa = x.a, w.a
    out = xa @ wa + b.a

    def backward(d: Matrix):
        da = d.a
        if da.shape != out.shape:
            raise ShapeError(f"upstream gradient shape {da.shape} != output {out.shape}")
        dx = da @ wa.T
        dw = xa.T @ da
        db = da.sum(axis=0, keepdims=True)
        return Matrix._wrap(dx), Matrix._wrap(dw), Matrix._wrap(db)

    return Matrix._wrap(out), backward


_ACTIVATIONS = ("relu", "sigmoid", "tanh")


def elementwise_activation(kind: str, x: Matrix):
    """Apply relu, sigmoid, or tanh entrywise.

    Returns (out, backward); backward(d) multiplies by the analytic
    derivative evaluated where the forward ran.
    """
    if kind not in _ACTIVATIONS:
        raise ShapeError(f"unknown activation {kind!r}, expected one of {_ACTIVATIONS}")
    xa = x.a
    if not np.isfinite(xa).all():
        raise ShapeError("activation input contains non-finite entries")
    if kind == "relu":
        out = np.maximum(xa, 0.0)

        def backward(d: Matrix):
            return Matrix._wrap(d.a * (xa > 0.0))

    elif kind == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-xa))

        def backward(d: Matrix):
            return Matrix._wrap(d.a * out * (1.0 - out))

    else:  # tanh
        out = np.tanh(xa)

        def backward(d: Matrix):
            return Matrix._wrap(d.a * (1.0 - out * out))

    return Matrix._wrap(out), backward


def masked_cross_entropy(logits: Matrix, targets: Sequence[int], mask: Sequence[int]):
    """Mean negative log-likelihood over unmasked positions.

    ``logits`` is T x V; ``targets`` and ``mask`` have length T. Position t
    contributes ``-log softmax(logits[t])[targets[t]]`` when ``mask[t]`` is 1
    and nothing otherwise. Returns (loss, backward); backward(upstream=1.0)
    -> dlogits.
    """
    la = logits.a
    t_arr = np.asarray(targets, dtype=np.int64)
    m_arr = np.asarray(mask, dtype=np.float64)
    if t_arr.ndim != 1 or m_arr.ndim != 1 or t_arr.size != la.shape[0] or m_arr.size != la.shape[0]:
        raise ShapeError(
            f"targets/mask of lengths {t_arr.size}/{m_arr.size} do not match {la.shape[0]} logit rows"
        )
    if t_arr.size and (t_arr.min() < 0 or t_arr.max() >= la.shape[1]):
        raise InvalidIdError(f"target ids must lie in [0, {la.shape[1]}), got range "
                             f"[{t_arr.min()}, {t_arr.max()}]")
    denom = m_arr.sum()
    if denom <= 0.0:
        raise DegenerateMaskError("mask selects no positions")

    shifted = la - la.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(la.shape[0])
    picked = log_probs[rows, t_arr]
    loss = float(-(m_arr * picked).sum() / denom)

    def backward(upstream: float = 1.0):
        probs = np.exp(log_probs)
        grad = probs.copy()
        grad[rows, t_arr] -= 1.0
        grad *= (upstream / denom) * m_arr[:, None]
        return Matrix._wrap(grad)

    return loss, backward


def max_over_time(features: Matrix):
    """Column-wise maximum over positions (rows).

    Ties break toward the lowest row index. Returns (out, argmax, backward);
    ``out`` is 1 x F, ``argmax`` lists the winning row per column, and
    backward routes the upstream gradient only to the winning positions.
    """
    fa = features.a
    if fa.shape[0] < 1:
        raise EmptyInputError("max_over_time needs at least one position")
    arg = fa.argmax(axis=0)  # numpy argmax returns the first (lowest) index on ties
    cols = np.arange(fa.shape[1])
    out = fa[arg, cols][None, :]

    def backward(d: Matrix):
        da = d.a
        if da.shape != (1, fa.shape[1]):
            raise ShapeError(f"upstream gradient must be 1x{fa.shape[1]}, got {da.shape}")
        grad = np.zeros_like(fa)
        grad[arg, cols] = da[0]
        return Matrix._wrap(grad)

    return Matrix._wrap(out), arg.tolist(), backward
