from __future__ import annotations

import math

import numpy as np
import pytest

from traitgen.errors import (
    DegenerateMaskError,
    EmptyInputError,
    InvalidIdError,
    ShapeError,
)
from traitgen.numeric import (
    Matrix,
    Rng,
    affine,
    elementwise_activation,
    masked_cross_entropy,
    max_over_time,
    xavier_init,
)


def rand_matrix(rows: int, cols: int, rng: Rng, scale: float = 1.0) -> Matrix:
    return Matrix([[rng.uniform(-scale, scale) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------- Matrix type


def test_matrix_requires_2d() -> None:
    with pytest.raises(ShapeError):
        Matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        Matrix.zeros(0, 3)


def test_matrix_flat_is_row_major() -> None:
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.flat.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert m.rows == 2 and m.cols == 2
    assert Matrix.from_flat(2, 2, [1, 2, 3, 4]).tolist() == m.tolist()


def test_from_flat_checks_size() -> None:
    with pytest.raises(ShapeError):
        Matrix.from_flat(2, 2, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- xavier_init


def test_xavier_single_cell_is_within_forced_bound() -> None:
    for seed in (0, 1, 2, 99):
        m = xavier_init(1, 1, Rng(seed))
        assert abs(m[0, 0]) <= math.sqrt(3.0)


def test_xavier_is_deterministic() -> None:
    a = xavier_init(5, 7, Rng(123))
    b = xavier_init(5, 7, Rng(123))
    assert a.tolist() == b.tolist()


def test_xavier_sample_mean_near_zero() -> None:
    # statistical oracle: mean of n uniform(-a, a) draws has sd = a / sqrt(3 n)
    m = xavier_init(64, 64, Rng(42))
    a = math.sqrt(6.0 / 128.0)
    sigma = a / math.sqrt(3.0 * 64 * 64)
    assert abs(float(m.a.mean())) < 3.0 * sigma


def test_xavier_rejects_zero_dimension() -> None:
    with pytest.raises(ShapeError):
        xavier_init(0, 4, Rng(0))


# --------------------------------------------------------------------- affine


def test_affine_identity_weight_is_identity() -> None:
    x = rand_matrix(3, 4, Rng(1))
    w = Matrix(np.eye(4))
    b = Matrix.zeros(1, 4)
    out, _ = affine(x, w, b)
    assert out.tolist() == x.tolist()


def test_affine_zero_input_broadcasts_bias() -> None:
    x = Matrix.zeros(3, 4)
    w = rand_matrix(4, 2, Rng(2))
    b = Matrix([[0.5, -1.5]])
    out, _ = affine(x, w, b)
    assert out.tolist() == [[0.5, -1.5]] * 3


def test_affine_matches_naive_triple_loop() -> None:
    rng = Rng(3)
    x, w, b = rand_matrix(3, 4, rng), rand_matrix(4, 2, rng), rand_matrix(1, 2, rng)
    out, _ = affine(x, w, b)
    for r in range(3):
        for c in range(2):
            acc = b[0, c]
            for i in range(4):
                acc += x[r, i] * w[i, c]
            assert out[r, c] == pytest.approx(acc, abs=1e-12)


def test_affine_shape_mismatch() -> None:
    with pytest.raises(ShapeError):
        affine(Matrix.zeros(2, 3), Matrix.zeros(4, 2), Matrix.zeros(1, 2))
    with pytest.raises(ShapeError):
        affine(Matrix.zeros(2, 3), Matrix.zeros(3, 2), Matrix.zeros(2, 2))


def test_affine_backward_matches_finite_differences() -> None:
    rng = Rng(4)
    x, w, b = rand_matrix(2, 3, rng), rand_matrix(3, 2, rng), rand_matrix(1, 2, rng)
    d = rand_matrix(2, 2, rng)

    def loss() -> float:
        out, _ = affine(x, w, b)
        return float((out.a * d.a).sum())

    _, back = affine(x, w, b)
    dx, dw, db = back(d)
    h = 1e-6
    for mat, grad in ((x, dx), (w, dw), (b, db)):
        flat = mat.a.reshape(-1)
        gflat = grad.a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss()
            flat[i] = orig - h
            minus = loss()
            flat[i] = orig
            assert gflat[i] == pytest.approx((plus - minus) / (2 * h), rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------- activations


def test_relu_values() -> None:
    out, _ = elementwise_activation("relu", Matrix([[-1.0, 0.0, 2.0]]))
    assert out.tolist() == [[0.0, 0.0, 2.0]]


def test_sigmoid_and_tanh_at_zero() -> None:
    out, _ = elementwise_activation("sigmoid", Matrix([[0.0]]))
    assert out[0, 0] == 0.5
    out, _ = elementwise_activation("tanh", Matrix([[0.0]]))
    assert out[0, 0] == 0.0


def test_unknown_activation_rejected() -> None:
    with pytest.raises(ShapeError):
        elementwise_activation("gelu", Matrix.zeros(1, 1))


def test_nonfinite_activation_input_rejected() -> None:
    with pytest.raises(ShapeError):
        elementwise_activation("relu", Matrix([[float("nan")]]))


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
def test_activation_gradient_matches_central_differences(kind: str) -> None:
    rng = Rng(10)
    # keep relu inputs at least 1e-3 away from the kink
    vals = []
    while len(vals) < 12:
        v = rng.uniform(-2.0, 2.0)
        if kind != "relu" or abs(v) > 1e-3:
            vals.append(v)
    x = Matrix([vals[:6], vals[6:]])
    d = rand_matrix(2, 6, rng)
    _, back = elementwise_activation(kind, x)
    dx = back(d)
    h = 1e-5
    for r in range(2):
        for c in range(6):
            orig = x.a[r, c]
            x.a[r, c] = orig + h
            plus = float((elementwise_activation(kind, x)[0].a * d.a).sum())
            x.a[r, c] = orig - h
            minus = float((elementwise_activation(kind, x)[0].a * d.a).sum())
            x.a[r, c] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(dx[r, c]), abs(numeric), 1e-8)
            assert abs(dx[r, c] - numeric) / denom < 1e-4


# -------------------------------------------------------- masked cross-entropy


def test_cross_entropy_of_certain_predictions_is_zero() -> None:
    big = 50.0
    logits = Matrix([[big, 0.0, 0.0], [0.0, big, 0.0]])
    loss, _ = masked_cross_entropy(logits, [0, 1], [1, 1])
    assert loss == pytest.approx(0.0, abs=1e-11)


def test_cross_entropy_uniform_logits_is_log_vocab() -> None:
    logits = Matrix.zeros(4, 1000)
    loss, _ = masked_cross_entropy(logits, [1, 2, 3, 4], [1, 1, 1, 1])
    assert loss == pytest.approx(math.log(1000.0), abs=1e-12)


def test_cross_entropy_matches_per_position_oracle() -> None:
    rng = Rng(13)
    logits = rand_matrix(5, 7, rng, scale=3.0)
    targets = [rng.randint(7) for _ in range(5)]
    mask = [1, 0, 1, 1, 0]
    loss, _ = masked_cross_entropy(logits, targets, mask)
    total = 0.0
    for t in range(5):
        if mask[t] == 0:
            continue
        row = logits.a[t]
        z = sum(math.exp(v) for v in row)
        total += -math.log(math.exp(row[targets[t]]) / z)
    assert loss == pytest.approx(total / 3.0, abs=1e-12)


def test_cross_entropy_masked_positions_get_zero_gradient() -> None:
    rng = Rng(14)
    logits = rand_matrix(4, 5, rng)
    loss, back = masked_cross_entropy(logits, [0, 1, 2, 3], [1, 0, 1, 0])
    grad = back()
    assert loss >= 0.0
    assert np.abs(grad.a[1]).max() == 0.0
    assert np.abs(grad.a[3]).max() == 0.0
    assert np.abs(grad.a[0]).max() > 0.0


def test_cross_entropy_degenerate_mask_raises() -> None:
    with pytest.raises(DegenerateMaskError):
        masked_cross_entropy(Matrix.zeros(2, 3), [0, 1], [0, 0])


def test_cross_entropy_rejects_out_of_range_targets() -> None:
    with pytest.raises(InvalidIdError):
        masked_cross_entropy(Matrix.zeros(2, 3), [0, 3], [1, 1])


def test_cross_entropy_backward_matches_finite_differences() -> None:
    rng = Rng(15)
    logits = rand_matrix(3, 4, rng, scale=2.0)
    targets = [2, 0, 3]
    mask = [1, 1, 0]
    _, back = masked_cross_entropy(logits, targets, mask)
    grad = back()
    h = 1e-6
    for r in range(3):
        for c in range(4):
            orig = logits.a[r, c]
            logits.a[r, c] = orig + h
            plus, _ = masked_cross_entropy(logits, targets, mask)
            logits.a[r, c] = orig - h
            minus, _ = masked_cross_entropy(logits, targets, mask)
            logits.a[r, c] = orig
            assert grad[r, c] == pytest.approx((plus - minus) / (2 * h), rel=1e-4, abs=1e-9)


# -------------------------------------------------------------- max_over_time


def test_max_over_time_single_position_is_identity() -> None:
    f = Matrix([[1.0, -2.0, 3.0]])
    out, arg, _ = max_over_time(f)
    assert out.tolist() == [[1.0, -2.0, 3.0]]
    assert arg == [0, 0, 0]


def test_max_over_time_tie_breaks_to_lowest_index() -> None:
    f = Matrix([[5.0], [5.0], [5.0]])
    out, arg, _ = max_over_time(f)
    assert out[0, 0] == 5.0
    assert arg == [0]


def test_max_over_time_matches_linear_scan() -> None:
    rng = Rng(16)
    f = rand_matrix(7, 3, rng)
    out, arg, _ = max_over_time(f)
    for c in range(3):
        best_val, best_pos = f[0, c], 0
        for p in range(1, 7):
            if f[p, c] > best_val:
                best_val, best_pos = f[p, c], p
        assert out[0, c] == best_val
        assert arg[c] == best_pos


def test_max_over_time_backward_routes_to_argmax_only() -> None:
    rng = Rng(17)
    f = rand_matrix(6, 4, rng)
    out, arg, back = max_over_time(f)
    d = rand_matrix(1, 4, rng)
    grad = back(d)
    # total deposited per feature equals the upstream gradient
    assert grad.a.sum(axis=0) == pytest.approx(d.a[0].tolist())
    for c in range(4):
        nonzero = np.nonzero(grad.a[:, c])[0]
        assert nonzero.tolist() in ([arg[c]], [])  # empty only when upstream is 0


def test_max_over_time_rejects_empty() -> None:
    # the public constructor already refuses zero rows; the internal path
    # still reports the degenerate reduction explicitly
    with pytest.raises(ShapeError):
        Matrix(np.zeros((0, 3)))
    with pytest.raises(EmptyInputError):
        max_over_time(Matrix._wrap(np.zeros((0, 3))))
