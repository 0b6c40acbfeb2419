from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from traitgen.checkpoint import load_model
from traitgen.classifier import CnnConfig, CnnModel, train_classifier
from traitgen.classifier import _backward as cnn_backward
from traitgen.classifier import _forward as cnn_forward
from traitgen.errors import TraitgenError
from traitgen.generator import LstmConfig, LstmModel, _train_batch
from traitgen.numeric import (
    Parameter,
    Rng,
    adam_step,
    add_rows_at,
    check_finite,
    clip_global_norm,
    zero_grads,
)
from traitgen.numeric.optim import CLIP_NORM
from traitgen.textproc import Document, Vocabulary, encode
from traitgen.traits import TRAITS

from lstm_helpers import batch_workspace


def make_param(values, name="p") -> Parameter:
    return Parameter(name, values)


def test_parameter_starts_with_zero_state() -> None:
    p = make_param(np.asfortranarray([[1, 2, 3], [4, 5, 6]]))
    for state in (p.grad, p.opt_m, p.opt_v):
        assert state.tolist() == [[0.0] * 3] * 2
        assert state.dtype == np.float64 and state.shape == p.value.shape
        assert state.flags.c_contiguous and state.flags.owndata
        assert not np.shares_memory(state, p.value)
    assert p.step_count == 0


def test_zero_grad_clears_gradient() -> None:
    p = make_param([[1.0]])
    p.grad[0, 0] = 3.0
    zero_grads([p])
    assert p.grad[0, 0] == 0.0


def test_parameter_requires_nonempty_2d() -> None:
    for bad in ([1.0, 2.0], [[[1.0]]], np.zeros((0, 3)), np.zeros((3, 0))):
        with pytest.raises(TraitgenError, match="must be a 2-D array of at least 1x1"):
            make_param(bad)


def test_adam_zero_gradient_leaves_value_unchanged() -> None:
    p = make_param([[1.5, -2.5]])
    adam_step(p, lr=1e-3)
    assert p.value.tolist() == [[1.5, -2.5]]
    assert p.step_count == 1


def test_adam_first_step_matches_hand_formula() -> None:
    # first step with grad 1: bias-corrected m_hat = 1, v_hat = 1,
    # delta = -lr / (1 + eps)
    p = make_param([[0.0]])
    p.grad[0, 0] = 1.0
    adam_step(p, lr=1e-3)
    expected = -1e-3 / (1.0 + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, abs=1e-15)
    assert p.value[0, 0] == pytest.approx(-9.99999e-4, abs=1e-9)
    # grad left intact until an explicit zero
    assert p.grad[0, 0] == 1.0


def test_adam_is_deterministic_across_identical_states() -> None:
    def run() -> list[list[float]]:
        p = make_param([[0.3, -0.7], [0.1, 0.9]])
        rng = Rng(21)
        for _ in range(25):
            p.grad[:] = [[2.0 * rng.random() - 1.0 for _ in range(2)] for _ in range(2)]
            adam_step(p, lr=3e-3)
        return p.value.tolist()

    assert run() == run()


def test_adam_rejects_nonfinite_gradient() -> None:
    p = make_param([[0.0]])
    p.grad[0, 0] = float("inf")
    with pytest.raises(TraitgenError, match="non-finite gradient"):
        adam_step(p, lr=1e-3)


def test_check_finite_names_the_first_bad_parameter() -> None:
    good, bad = make_param([[1.0, 2.0]], "good"), make_param([[0.0, 0.0]], "bad")
    check_finite([good, bad])
    for value in (float("nan"), float("inf"), float("-inf")):
        bad.value[0, 1] = value
        with pytest.raises(TraitgenError, match="'bad'"):
            check_finite([good, bad])


def test_clip_below_threshold_is_identity() -> None:
    p = make_param([[1.0, 1.0]])
    p.grad[:] = [[0.06 * CLIP_NORM, 0.08 * CLIP_NORM]]  # norm CLIP_NORM / 10
    scale = clip_global_norm([p])
    assert scale == 1.0
    assert p.grad.tolist() == [[0.06 * CLIP_NORM, 0.08 * CLIP_NORM]]


def test_clip_scales_to_max_norm() -> None:
    p = make_param([[0.0, 0.0]])
    p.grad[:] = [[1.2 * CLIP_NORM, 1.6 * CLIP_NORM]]  # norm 2 * CLIP_NORM
    scale = clip_global_norm([p])
    assert scale == pytest.approx(0.5)
    assert p.grad.tolist() == [[0.6 * CLIP_NORM, 0.8 * CLIP_NORM]]


def test_clip_post_norm_equals_min_of_norm_and_max() -> None:
    rng = Rng(22)
    for factor in (0.1, 0.4, 20.0):  # gradient norms from far below to far above the cut
        params = [make_param([[2.0 * rng.random() - 1.0 for _ in range(3)]], name=f"p{i}")
                  for i in range(4)]
        for p in params:
            p.grad[:] = [[factor * CLIP_NORM * (4.0 * rng.random() - 2.0) for _ in range(3)]]
        before = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        clip_global_norm(params)
        after = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert after == pytest.approx(min(before, CLIP_NORM), abs=1e-9)
        assert after <= before + 1e-12


def test_clip_handles_all_zero_gradients() -> None:
    p = make_param([[1.0]])
    assert clip_global_norm([p]) == 1.0
    assert p.grad[0, 0] == 0.0


# ------------------------------------------------------- parameter contract

_ARRAYS = ("value", "grad", "opt_m", "opt_v")


def test_parameter_arrays_are_owned_and_written_in_place(tmp_path, monkeypatch) -> None:
    built: dict[Parameter, list[np.ndarray]] = {}
    construct = Parameter.__init__

    def recording_init(self, name, value) -> None:
        construct(self, name, value)
        built[self] = [getattr(self, attr) for attr in _ARRAYS]

    monkeypatch.setattr(Parameter, "__init__", recording_init)

    def check(model) -> None:
        for p in model.params():
            for attr, original in zip(_ARRAYS, built[p]):
                a = getattr(p, attr)
                assert a is original, (p.name, attr)
                assert type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 2
                assert a.flags.c_contiguous and a.flags.owndata, (p.name, attr)

    rng = Rng(61)
    words = ["a", "b", "c", "d"]
    docs = []
    for _ in range(12):
        tokens = [words[rng.randint(len(words))] for _ in range(5)]
        docs.append(Document(" ".join(tokens), tokens, labels={t: rng.coin() for t in TRAITS}))
    vocab = Vocabulary.build([d.tokens for d in docs] * 2)
    cnn = CnnModel.init(CnnConfig(vocab_size=len(vocab), embed_dim=3, window=2, num_filters=2,
                                  max_len=8), vocab, Rng(1))
    lstm = LstmModel.init(LstmConfig(vocab_size=len(vocab), embed_dim=3, hidden_dim=4,
                                     max_len=8), vocab, Rng(2))
    for model in (cnn, lstm):
        check(model)
        path = tmp_path / f"{model.kind}.json"
        model.save(path)
        check(load_model(path, model.kind))

    ids, lengths = encode([d.tokens for d in docs[:4]], vocab, 8)
    labels = np.array([[d.labels[t] for t in TRAITS] for d in docs[:4]], dtype=np.float64)
    zero_grads(cnn.params())
    probs, cache = cnn_forward(cnn, ids, lengths)
    cnn_backward(cnn, probs, cache, labels, 0.25)
    zero_grads(lstm.params())
    _train_batch(lstm, ids, lengths, labels, batch_workspace(lstm, ids))
    for model in (cnn, lstm):
        for p in model.params():  # puts the joint norm well past the cut
            p.grad += CLIP_NORM
        assert clip_global_norm(model.params()) < 1.0
        for p in model.params():
            adam_step(p, lr=1e-2)
        check(model)

    config = CnnConfig(vocab_size=0, embed_dim=3, window=2, num_filters=2, max_len=8,
                       epochs=2, batch_size=4)
    check(train_classifier(docs, config, Rng(3))[0])


def test_adam_is_bit_equal_to_the_textbook_expression_over_several_steps() -> None:
    rng = np.random.default_rng(11)
    p = make_param(rng.normal(size=(6, 9)))
    value, m, v = p.value.copy(), np.zeros((6, 9)), np.zeros((6, 9))
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
    for t in range(1, 7):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=(6, 9))
        p.grad[...] = g
        adam_step(p, lr)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        value = value - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert p.value.tobytes() == value.tobytes()
        assert p.opt_m.tobytes() == m.tobytes() and p.opt_v.tobytes() == v.tobytes()
        assert p.grad.tobytes() == g.tobytes()


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False, width=64)


@st.composite
def _scatters(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    # few distinct ids among many rows: ids repeat, and some rows of out are never hit
    ids = draw(st.lists(st.integers(0, max(0, n - 2)), min_size=0, max_size=25))
    rows = draw(hnp.arrays(np.float64, (len(ids), k), elements=_FINITE))
    start = draw(st.sampled_from(["zeros", "random"]))
    out = (np.zeros((n, k)) if start == "zeros"
           else draw(hnp.arrays(np.float64, (n, k), elements=_FINITE)))
    return out, np.array(ids, dtype=np.int64), rows


_scale_rng = np.random.default_rng(7)


@settings(max_examples=200, deadline=None)
@given(_scatters())
@example((np.zeros((3, 2)), np.array([1, 1, 1], dtype=np.int64),
          np.array([[1e16, 1.0], [1.0, 1e-16], [-1e16, 1.0]])))
# a touched -0.0 plus -0.0 stays -0.0
@example((np.full((2, 2), -0.0), np.array([0], dtype=np.int64), np.array([[-0.0, 1.0]])))
@example((np.ones((3, 4)), np.zeros(0, dtype=np.int64), np.zeros((0, 4))))
# a non-contiguous view of rows
@example((np.zeros((5, 3)), np.array([4, 0, 4, 2], dtype=np.int64),
          np.arange(24.0).reshape(4, 6)[:, ::2] / 7))
# the trainers' scale: k = 32, hundreds of rows over few ids
@example((_scale_rng.standard_normal((60, 32)), _scale_rng.integers(0, 60, 700),
          _scale_rng.standard_normal((700, 32))))
def test_add_rows_at_is_bit_equal_to_np_add_at(case) -> None:
    out, ids, rows = case
    expected = out.copy()
    np.add.at(expected, ids, rows)
    got = out.copy()
    add_rows_at(got, ids, rows)
    assert got.tobytes() == expected.tobytes()
    # a second scatter into the result accumulates in the same order
    np.add.at(expected, ids, rows)
    add_rows_at(got, ids, rows)
    assert got.tobytes() == expected.tobytes()
