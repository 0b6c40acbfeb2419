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
from traitgen.generator import LstmConfig, LstmModel, _train_batch, train_generator
from traitgen.numeric import (
    Parameters,
    Rng,
    adam_step,
    add_rows_at,
    check_finite,
    clip_global_norm,
    zero_grads,
)
from traitgen.numeric import optim
from traitgen.numeric.optim import CLIP_NORM, MAX_WEIGHTS
from traitgen.textproc import MAX_VOCAB, Document, Vocabulary, encode
from traitgen.traits import TRAITS

from lstm_helpers import batch_workspace


def make_store(**values) -> Parameters:
    """A store of one parameter per keyword, in keyword order, holding those values."""
    arrays = {name: np.array(v, dtype=np.float64) for name, v in values.items()}
    store = Parameters({name: a.shape for name, a in arrays.items()})
    for p in store.params:
        p.value[...] = arrays[p.name]
    return store


def test_parameter_starts_with_zero_state() -> None:
    store = Parameters({"a": (2, 3), "b": (1, 4)})
    assert [(p.name, p.value.shape, p.grad.shape) for p in store.params] == [
        ("a", (2, 3), (2, 3)), ("b", (1, 4), (1, 4))]
    for state in (store.value, store.grad, store.opt_m, store.opt_v):
        assert state.tolist() == [0.0] * 10
        assert state.dtype == np.float64 and state.shape == (10,)
        assert state.flags.c_contiguous and state.flags.owndata
    for state in (store.grad, store.opt_m, store.opt_v):
        assert not np.shares_memory(state, store.value)
    assert store.step_count == 0


def test_a_store_past_the_weight_limit_is_refused_before_allocation(monkeypatch) -> None:
    with pytest.raises(TraitgenError, match=f"^model has {MAX_WEIGHTS + 1} weights, "
                                            f"more than {MAX_WEIGHTS}$"):
        Parameters({"a": (MAX_WEIGHTS // 2, 2), "b": (1, 1)})
    monkeypatch.setattr(optim, "MAX_WEIGHTS", 10)  # the limit itself is allowed
    assert Parameters({"a": (2, 4), "b": (1, 2)}).value.size == 10
    with pytest.raises(TraitgenError, match="^model has 11 weights, more than 10$"):
        Parameters({"a": (2, 4), "b": (1, 3)})
    # the default models of the CLI at the largest vocabulary stay far below it
    for shapes in (LstmModel.shapes(LstmConfig(vocab_size=MAX_VOCAB)),
                   CnnModel.shapes(CnnConfig(vocab_size=MAX_VOCAB))):
        assert 10 * sum(rows * cols for rows, cols in shapes.values()) < MAX_WEIGHTS


def test_zero_grad_clears_gradient() -> None:
    store = make_store(p=[[1.0]], q=[[2.0, 3.0]])
    store.params[0].grad[0, 0] = 3.0
    store.params[1].grad[0, 1] = -1.0
    zero_grads(store)
    assert store.grad.tolist() == [0.0] * 3


def test_adam_zero_gradient_leaves_value_unchanged() -> None:
    store = make_store(p=[[1.5, -2.5]])
    adam_step(store, lr=1e-3)
    assert store.params[0].value.tolist() == [[1.5, -2.5]]
    assert store.step_count == 1


def test_adam_first_step_matches_hand_formula() -> None:
    # first step with grad 1: bias-corrected m_hat = 1, v_hat = 1,
    # delta = -lr / (1 + eps)
    store = make_store(p=[[0.0]])
    p = store.params[0]
    p.grad[0, 0] = 1.0
    adam_step(store, lr=1e-3)
    expected = -1e-3 / (1.0 + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, abs=1e-15)
    assert p.value[0, 0] == pytest.approx(-9.99999e-4, abs=1e-9)
    # grad left intact until an explicit zero
    assert p.grad[0, 0] == 1.0


def test_adam_is_deterministic_across_identical_states() -> None:
    def run() -> list[float]:
        store = make_store(p=[[0.3, -0.7], [0.1, 0.9]], q=[[0.5]])
        rng = Rng(21)
        for _ in range(25):
            store.grad[:] = [2.0 * rng.random() - 1.0 for _ in range(5)]
            adam_step(store, lr=3e-3)
        return store.value.tolist()

    assert run() == run()


def test_adam_rejects_nonfinite_gradient() -> None:
    for value in (float("nan"), float("inf"), float("-inf")):
        store = make_store(good=[[0.0]], bad=[[0.0, 0.0]], worse=[[0.0]])
        store.params[2].grad[0, 0] = value
        store.params[1].grad[0, 1] = value
        with pytest.raises(TraitgenError, match="^non-finite gradient in parameter 'bad'$"):
            adam_step(store, lr=1e-3)
        assert store.step_count == 0 and store.value.tolist() == [0.0] * 4


def test_check_finite_names_the_first_bad_parameter() -> None:
    store = make_store(good=[[1.0, 2.0]], bad=[[0.0, 0.0]], worse=[[0.0]])
    check_finite(store)
    for value in (float("nan"), float("inf"), float("-inf")):
        store.params[2].value[0, 0] = value
        store.params[1].value[0, 1] = value
        with pytest.raises(TraitgenError, match="^non-finite value in parameter 'bad'$"):
            check_finite(store)


def test_clip_below_threshold_is_identity() -> None:
    store = make_store(p=[[1.0, 1.0]])
    store.grad[:] = [0.06 * CLIP_NORM, 0.08 * CLIP_NORM]  # norm CLIP_NORM / 10
    scale = clip_global_norm(store)
    assert scale == 1.0
    assert store.grad.tolist() == [0.06 * CLIP_NORM, 0.08 * CLIP_NORM]


def test_clip_scales_to_max_norm() -> None:
    store = make_store(p=[[0.0, 0.0]])
    store.grad[:] = [1.2 * CLIP_NORM, 1.6 * CLIP_NORM]  # norm 2 * CLIP_NORM
    scale = clip_global_norm(store)
    assert scale == pytest.approx(0.5)
    assert store.grad.tolist() == [0.6 * CLIP_NORM, 0.8 * CLIP_NORM]


def test_clip_post_norm_equals_min_of_norm_and_max() -> None:
    rng = Rng(22)
    for factor in (0.1, 0.4, 20.0):  # gradient norms from far below to far above the cut
        store = make_store(**{f"p{i}": [[2.0 * rng.random() - 1.0 for _ in range(3)]]
                              for i in range(4)})
        store.grad[:] = [factor * CLIP_NORM * (4.0 * rng.random() - 2.0) for _ in range(12)]
        before = math.sqrt(sum(float((p.grad ** 2).sum()) for p in store.params))
        clip_global_norm(store)
        after = math.sqrt(sum(float((p.grad ** 2).sum()) for p in store.params))
        assert after == pytest.approx(min(before, CLIP_NORM), abs=1e-9)
        assert after <= before + 1e-12


def test_clip_handles_all_zero_gradients() -> None:
    store = make_store(p=[[1.0]])
    assert clip_global_norm(store) == 1.0
    assert store.grad[0] == 0.0


def test_clip_norm_adds_the_per_parameter_sums_in_table_order() -> None:
    """The scale is CLIP_NORM over the root of each parameter's own sum of
    squares, added in table order, bit for bit. Here each 1.0 after the
    leading 1e16 rounds away in table order; added in reverse, or summed
    over the flat buffer in one go, the ones count and the scale differs."""
    store = Parameters({"big": (1, 1), **{f"one{i}": (1, 1) for i in range(8)}, "w": (7, 13)})
    store.grad[:9] = [1e8] + [1.0] * 8
    store.grad[9:] = np.random.default_rng(0).normal(size=91)
    grads = store.grad.copy()
    total = 0.0
    for p in store.params:
        total += float((p.grad * p.grad).sum())
    expected = CLIP_NORM / float(np.sqrt(total))
    scale = clip_global_norm(store)
    assert expected < 1.0 and scale.hex() == expected.hex()
    assert store.grad.tobytes() == (grads * expected).tobytes()


# ------------------------------------------------------- parameter contract

_BUFFERS = ("value", "grad", "opt_m", "opt_v", "scratch")


def test_parameter_arrays_are_owned_and_written_in_place(tmp_path, monkeypatch) -> None:
    built: dict[int, tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]] = {}
    construct = Parameters.__init__

    def recording_init(self, shapes) -> None:
        construct(self, shapes)
        built[id(self)] = ([getattr(self, attr) for attr in _BUFFERS],
                           [(p.value, p.grad) for p in self.params])

    monkeypatch.setattr(Parameters, "__init__", recording_init)

    def check(model) -> None:
        buffers, views = built[id(model)]
        for attr, original in zip(_BUFFERS, buffers):
            a = getattr(model, attr)
            assert a is original, attr
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.owndata, attr
        offset = 0
        for p, (value, grad) in zip(model.params, views, strict=True):
            assert p.value is value and p.grad is grad, p.name
            assert getattr(model, p.name) is p
            for view, flat in ((p.value, model.value), (p.grad, model.grad)):
                assert view.base is flat and view.ndim == 2 and view.flags.c_contiguous
                assert view.ctypes.data == flat.ctypes.data + 8 * offset, p.name
            offset += p.value.size
        assert offset == model.value.size

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
        check(model)
        check(load_model(path, model.kind))

    ids, lengths = encode([d.tokens for d in docs[:4]], vocab, 8)
    labels = np.array([[d.labels[t] for t in TRAITS] for d in docs[:4]], dtype=np.float64)
    zero_grads(cnn)
    probs, cache = cnn_forward(cnn, ids, lengths)
    cnn_backward(cnn, probs, cache, labels, 0.25)
    zero_grads(lstm)
    _train_batch(lstm, ids, lengths, labels, batch_workspace(lstm, ids))
    for model in (cnn, lstm):
        model.grad += CLIP_NORM  # puts the joint norm well past the cut
        assert clip_global_norm(model) < 1.0
        adam_step(model, lr=1e-2)
        check(model)

    config = CnnConfig(vocab_size=0, embed_dim=3, window=2, num_filters=2, max_len=8,
                       epochs=2, batch_size=4)
    check(train_classifier(docs, config, Rng(3))[0])
    config = LstmConfig(vocab_size=0, embed_dim=3, hidden_dim=4, max_len=8, epochs=2,
                        batch_size=4)
    check(train_generator(docs, config, Rng(4))[0])


def test_adam_is_bit_equal_to_the_textbook_expression_over_several_steps() -> None:
    rng = np.random.default_rng(11)
    shapes = {"w": (6, 9), "b": (1, 9), "e": (4, 3)}
    store = Parameters(shapes)
    store.value[:] = rng.normal(size=store.value.size)
    value = {p.name: p.value.copy() for p in store.params}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
    for t in range(1, 7):
        g = {name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape)
             for name, shape in shapes.items()}
        for p in store.params:
            p.grad[...] = g[p.name]
        adam_step(store, lr)
        offset = 0
        for p in store.params:
            name, n = p.name, p.value.size
            m[name] = beta1 * m[name] + (1.0 - beta1) * g[name]
            v[name] = beta2 * v[name] + (1.0 - beta2) * (g[name] * g[name])
            m_hat = m[name] / (1.0 - beta1 ** t)
            v_hat = v[name] / (1.0 - beta2 ** t)
            value[name] = value[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert p.value.tobytes() == value[name].tobytes(), (t, name)
            assert store.opt_m[offset:offset + n].tobytes() == m[name].tobytes(), (t, name)
            assert store.opt_v[offset:offset + n].tobytes() == v[name].tobytes(), (t, name)
            assert p.grad.tobytes() == g[name].tobytes()
            offset += n


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
