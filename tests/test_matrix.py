from __future__ import annotations

import math

import numpy as np
import pytest

from traitgen.errors import TraitgenError
from traitgen.numeric import (
    Matrix,
    Rng,
    affine,
    elementwise_activation,
    masked_cross_entropy,
    max_over_time,
    xavier_init,
)
from traitgen.numeric.rng import _splitmix_at


def rand_matrix(rows: int, cols: int, rng: Rng, scale: float = 1.0) -> np.ndarray:
    return np.array([[2.0 * scale * rng.random() - scale for _ in range(cols)]
                     for _ in range(rows)])


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
    assert abs(float(m.mean())) < 3.0 * sigma


def test_xavier_stays_within_its_bound_and_is_a_pure_function_of_the_stream() -> None:
    for rows, cols in ((1, 1), (3, 5), (165, 512)):
        bound = math.sqrt(6.0 / (rows + cols))
        a, b = Rng(7), Rng(7)
        first = xavier_init(rows, cols, a)
        assert first.shape == (rows, cols)
        assert np.abs(first).max() <= bound
        assert first.tobytes() == xavier_init(rows, cols, b).tobytes()
        # each call takes one key, so successive calls differ and the streams stay in step
        second = xavier_init(rows, cols, a)
        assert not np.array_equal(first, second)
        assert second.tobytes() == xavier_init(rows, cols, b).tobytes()
        assert a.next_uint64() == b.next_uint64()


def test_xavier_entry_j_is_splitmix_output_j_plus_1_of_one_key() -> None:
    key = Rng(5).next_uint64()
    m = xavier_init(4, 6, Rng(5))
    bound = math.sqrt(6.0 / 10)
    expected = [-bound + 2.0 * bound * ((_splitmix_at(key, j) >> 11) * 2.0 ** -53)
                for j in range(24)]
    assert m.reshape(-1).tolist() == expected


def test_xavier_rejects_zero_dimension() -> None:
    with pytest.raises(TraitgenError, match="xavier_init needs positive dimensions"):
        xavier_init(0, 4, Rng(0))


# --------------------------------------------------------------------- affine


def test_affine_identity_weight_is_identity() -> None:
    x = rand_matrix(3, 4, Rng(1))
    w = np.eye(4)
    b = np.zeros((1, 4))
    out, _ = affine(x, w, b)
    assert out.tolist() == x.tolist()


def test_affine_zero_input_broadcasts_bias() -> None:
    x = np.zeros((3, 4))
    w = rand_matrix(4, 2, Rng(2))
    b = np.array([[0.5, -1.5]])
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
    with pytest.raises(TraitgenError, match="affine inner dimensions disagree"):
        affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((1, 2)))
    with pytest.raises(TraitgenError, match="affine bias must be 1x2"):
        affine(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 2)))


def test_affine_backward_matches_finite_differences() -> None:
    rng = Rng(4)
    x, w, b = rand_matrix(2, 3, rng), rand_matrix(3, 2, rng), rand_matrix(1, 2, rng)
    d = rand_matrix(2, 2, rng)

    def loss() -> float:
        out, _ = affine(x, w, b)
        return float((out * d).sum())

    _, back = affine(x, w, b)
    dx, dw, db = back(d)
    h = 1e-6
    for mat, grad in ((x, dx), (w, dw), (b, db)):
        flat = mat.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss()
            flat[i] = orig - h
            minus = loss()
            flat[i] = orig
            assert gflat[i] == pytest.approx((plus - minus) / (2 * h), rel=1e-5, abs=1e-7)


# ------------------------------------------------------------------ relu


def test_relu_values() -> None:
    out, _ = elementwise_activation(np.array([[-1.0, 0.0, 2.0]]))
    assert out.tolist() == [[0.0, 0.0, 2.0]]


def test_nonfinite_activation_input_rejected() -> None:
    with pytest.raises(TraitgenError, match="activation input contains non-finite entries"):
        elementwise_activation(np.array([[float("nan")]]))


def test_activation_gradient_matches_central_differences() -> None:
    rng = Rng(10)
    # keep inputs at least 1e-3 away from the kink
    vals = []
    while len(vals) < 12:
        v = 4.0 * rng.random() - 2.0
        if abs(v) > 1e-3:
            vals.append(v)
    x = np.array([vals[:6], vals[6:]])
    d = rand_matrix(2, 6, rng)
    _, back = elementwise_activation(x)
    dx = back(d)
    h = 1e-5
    for r in range(2):
        for c in range(6):
            orig = x[r, c]
            x[r, c] = orig + h
            plus = float((elementwise_activation(x)[0] * d).sum())
            x[r, c] = orig - h
            minus = float((elementwise_activation(x)[0] * d).sum())
            x[r, c] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(dx[r, c]), abs(numeric), 1e-8)
            assert abs(dx[r, c] - numeric) / denom < 1e-4


# -------------------------------------------------------- masked cross-entropy


def test_cross_entropy_of_certain_predictions_is_zero() -> None:
    big = 50.0
    logits = Matrix(np.array([[big, 0.0, 0.0], [0.0, big, 0.0]]))
    loss, _ = masked_cross_entropy(logits, [0, 1], [1, 1])
    assert loss == pytest.approx(0.0, abs=1e-11)


def test_cross_entropy_uniform_logits_is_log_vocab() -> None:
    logits = Matrix(np.zeros((4, 1000)))
    loss, _ = masked_cross_entropy(logits, [1, 2, 3, 4], [1, 1, 1, 1])
    assert loss == pytest.approx(math.log(1000.0), abs=1e-12)


def test_cross_entropy_matches_per_position_oracle() -> None:
    rng = Rng(13)
    logits = rand_matrix(5, 7, rng, scale=3.0)
    targets = [rng.randint(7) for _ in range(5)]
    mask = [1, 0, 1, 1, 0]
    loss, _ = masked_cross_entropy(Matrix(logits), targets, mask)
    total = 0.0
    for t in range(5):
        if mask[t] == 0:
            continue
        row = logits[t]
        z = sum(math.exp(v) for v in row)
        total += -math.log(math.exp(row[targets[t]]) / z)
    assert loss == pytest.approx(total / 3.0, abs=1e-12)


def test_cross_entropy_masked_positions_get_zero_gradient() -> None:
    rng = Rng(14)
    logits = rand_matrix(4, 5, rng)
    loss, grad = masked_cross_entropy(Matrix(logits), [0, 1, 2, 3], [1, 0, 1, 0])
    assert loss >= 0.0
    assert np.abs(grad[1]).max() == 0.0
    assert np.abs(grad[3]).max() == 0.0
    assert np.abs(grad[0]).max() > 0.0


def test_cross_entropy_loss_is_the_log_softmax_expression_and_leaves_logits_alone() -> None:
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=4.0, size=(37, 23))
    before = logits.copy()
    targets = rng.integers(0, 23, size=37)
    mask = (rng.random(37) < 0.7).astype(np.float64)
    loss, grad = masked_cross_entropy(Matrix(logits), targets, mask)
    shifted = before - before.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(37), targets]
    assert loss == float(-(mask * picked).sum() / mask.sum())
    assert logits.tobytes() == before.tobytes()
    onehot = np.zeros_like(before)
    onehot[np.arange(37), targets] = 1.0
    reference = (np.exp(log_probs) - onehot) * (mask / mask.sum())[:, None]
    np.testing.assert_allclose(grad, reference, rtol=1e-12, atol=1e-15)


def test_cross_entropy_degenerate_mask_raises() -> None:
    with pytest.raises(TraitgenError, match="mask selects no positions"):
        masked_cross_entropy(Matrix(np.zeros((2, 3))), [0, 1], [0, 0])


def test_cross_entropy_rejects_out_of_range_targets() -> None:
    with pytest.raises(TraitgenError, match="target ids must lie in"):
        masked_cross_entropy(Matrix(np.zeros((2, 3))), [0, 3], [1, 1])


def test_cross_entropy_backward_matches_finite_differences() -> None:
    rng = Rng(15)
    logits = rand_matrix(3, 4, rng, scale=2.0)
    targets = [2, 0, 3]
    mask = [1, 1, 0]
    _, grad = masked_cross_entropy(Matrix(logits), targets, mask)
    h = 1e-6
    for r in range(3):
        for c in range(4):
            orig = logits[r, c]
            logits[r, c] = orig + h
            plus, _ = masked_cross_entropy(Matrix(logits), targets, mask)
            logits[r, c] = orig - h
            minus, _ = masked_cross_entropy(Matrix(logits), targets, mask)
            logits[r, c] = orig
            assert grad[r, c] == pytest.approx((plus - minus) / (2 * h), rel=1e-4, abs=1e-9)


# -------------------------------------------------------------- max_over_time


def _winners(back, features: np.ndarray) -> list[int]:
    """The row each column's gradient reaches under a backward of all ones."""
    grad = back(np.ones((1, features.shape[1])))
    assert (np.count_nonzero(grad, axis=0) == 1).all()
    return np.argmax(grad != 0.0, axis=0).tolist()


def test_max_over_time_single_position_is_identity() -> None:
    f = np.array([[1.0, -2.0, 3.0]])
    out, back = max_over_time(f)
    assert out.tolist() == [[1.0, -2.0, 3.0]]
    assert _winners(back, f) == [0, 0, 0]


def test_max_over_time_tie_breaks_to_lowest_index() -> None:
    f = np.array([[5.0, 1.0], [5.0, 7.0], [5.0, 7.0]])
    out, back = max_over_time(f)
    assert out.tolist() == [[5.0, 7.0]]
    assert _winners(back, f) == [0, 1]  # the lowest row among the tied maxima


def test_max_over_time_matches_linear_scan() -> None:
    rng = Rng(16)
    f = rand_matrix(7, 3, rng)
    out, back = max_over_time(f)
    winners = _winners(back, f)
    for c in range(3):
        best_val, best_pos = f[0, c], 0
        for p in range(1, 7):
            if f[p, c] > best_val:
                best_val, best_pos = f[p, c], p
        assert out[0, c] == best_val
        assert winners[c] == best_pos


def test_max_over_time_backward_routes_to_argmax_only() -> None:
    rng = Rng(17)
    f = rand_matrix(6, 4, rng)
    out, back = max_over_time(f)
    winners = _winners(back, f)
    d = rand_matrix(1, 4, rng)
    grad = back(d)
    # total deposited per feature equals the upstream gradient
    assert grad.sum(axis=0) == pytest.approx(d[0].tolist())
    for c in range(4):
        nonzero = np.nonzero(grad[:, c])[0]
        assert nonzero.tolist() in ([winners[c]], [])  # empty only when upstream is 0


def test_max_over_time_rejects_empty() -> None:
    with pytest.raises(TraitgenError, match="max_over_time needs at least one position"):
        max_over_time(np.zeros((0, 3)))
