from __future__ import annotations

import math

import numpy as np
import pytest

from traitgen.checkpoint import load_model
from traitgen.classifier import (
    CnnConfig,
    CnnModel,
    classifier_forward,
    classifier_loss,
    label_corpus,
    train_classifier,
    _backward,
    _forward,
    _sigmoid,
)
from traitgen.errors import TraitgenError
from traitgen.numeric import Rng
from traitgen.numeric.gradcheck import gradient_check
from traitgen.textproc import PAD_ID, Document, Vocabulary, encode
from traitgen.traits import TRAITS


def tiny_vocab(n_tokens: int) -> Vocabulary:
    return Vocabulary.build([[f"w{i}" for i in range(n_tokens)]] * 2)


def make_model(n_tokens=2, k=2, m=2, f=1, max_len=8, seed=5) -> CnnModel:
    vocab = tiny_vocab(n_tokens)
    config = CnnConfig(embed_dim=k, window=m, num_filters=f, max_len=max_len)
    return CnnModel.init(config, vocab, Rng(seed))


def random_labels(rng: Rng) -> dict[str, int]:
    return {t: rng.coin() for t in TRAITS}


def random_corpus(n_docs: int, vocab_tokens: list[str], rng: Rng,
                  length: int = 6) -> list[Document]:
    docs = []
    for _ in range(n_docs):
        tokens = [vocab_tokens[rng.randint(len(vocab_tokens))] for _ in range(length)]
        docs.append(Document(" ".join(tokens), tokens, labels=random_labels(rng)))
    return docs


# -------------------------------------------------------------------- forward


def test_zero_head_weights_give_half_probabilities() -> None:
    model = make_model()
    model.head_w.value[:] = 0.0
    model.head_b.value[:] = 0.0
    assert classifier_forward([["w0", "w1"]], model).tolist() == [[0.5] * 5]


def test_forward_matches_hand_unrolled_oracle() -> None:
    model = make_model(n_tokens=2, k=2, m=2, f=1, seed=11)
    tokens = ["w0", "w1", "w0"]
    ids, lengths = encode([tokens], model.vocab, model.config.max_len)
    probs = classifier_forward([tokens], model)[0]

    emb = model.embedding.value
    w = model.conv_w.value[0]  # single filter, width m*k = 4
    b = float(model.conv_b.value[0, 0])
    valid = ids[0, :lengths[0]].tolist()
    feats = []
    for p in range(len(valid) - 1):
        window = list(emb[valid[p]]) + list(emb[valid[p + 1]])
        pre = b + sum(wj * xj for wj, xj in zip(w, window))
        feats.append(max(0.0, pre))
    pooled = max(feats)
    for i, t in enumerate(TRAITS):
        logit = float(model.head_w.value[0, i]) * pooled + float(model.head_b.value[0, i])
        assert probs[i] == pytest.approx(1.0 / (1.0 + math.exp(-logit)), abs=1e-12)


def test_extra_padding_never_changes_output() -> None:
    model_short = make_model(max_len=8, seed=3)
    model_long = make_model(max_len=20, seed=3)  # same init draws, longer padding
    tokens = ["w0", "w1", "w0", "w1"]
    probs_short = classifier_forward([tokens], model_short)
    probs_long = classifier_forward([tokens], model_long)
    assert probs_short.tolist() == probs_long.tolist()


def test_probabilities_strictly_inside_unit_interval() -> None:
    model = make_model(seed=9)
    for p in classifier_forward([["w1", "w0"]], model)[0]:
        assert 0.0 < p < 1.0


def test_label_corpus_classifies_texts_shorter_than_one_window() -> None:
    model = make_model(n_tokens=2, k=2, m=4, f=1, max_len=8)
    # "" has 2 valid positions (BOS, EOS) < window 4
    labeled = label_corpus([Document("", [])], model)
    assert len(labeled) == 1
    assert set(labeled[0].labels) == set(TRAITS)


def reference_probs(model: CnnModel, ids: np.ndarray, length: int) -> list[float]:
    """One encoded row at a time: its fully valid windows, or its PAD-completed window 0."""
    m = model.config.window
    valid = ids[: max(length, m)].tolist()
    emb = model.embedding.value
    windows = np.array([np.concatenate([emb[i] for i in valid[p:p + m]])
                        for p in range(len(valid) - m + 1)])
    feats = np.maximum(windows @ model.conv_w.value.T + model.conv_b.value, 0.0)
    logits = feats.max(axis=0) @ model.head_w.value + model.head_b.value[0]
    return [1.0 / (1.0 + math.exp(-z)) for z in logits]


def test_batched_rows_match_reference_across_chunkings_and_padding() -> None:
    tol = 1e-12  # dgemm and gemv may round a row differently
    for seed in range(12):
        rng = Rng(100 + seed)
        max_len = 6 + rng.randint(8)
        model = make_model(n_tokens=6, k=3, m=2 + rng.randint(3), f=4, max_len=max_len,
                           seed=seed)
        texts = [[f"w{rng.randint(6)}" for _ in range(rng.randint(max_len + 1))]
                 for _ in range(1 + rng.randint(20))]
        texts.append([])  # 2 valid positions: shorter than every window > 2
        ids, lengths = encode(texts, model.vocab, max_len)
        whole = classifier_forward(texts, model)
        assert whole.shape == (len(texts), len(TRAITS))
        for row, row_ids, length in zip(whole, ids, lengths):
            assert np.abs(row - reference_probs(model, row_ids, length)).max() <= tol
        for chunk in (1, 7, len(texts)):
            rows = np.concatenate([_forward(model, ids[s:s + chunk], lengths[s:s + chunk])[0]
                                   for s in range(0, len(texts), chunk)])
            assert np.abs(rows - whole).max() <= tol
        extra = 1 + rng.randint(5)
        padded = np.pad(ids, ((0, 0), (0, extra)), constant_values=PAD_ID)
        assert np.abs(_forward(model, padded, lengths)[0] - whole).max() <= tol
    assert classifier_forward([], model).shape == (0, len(TRAITS))


# ----------------------------------------------------------------------- loss


def test_loss_zero_when_probabilities_match_labels() -> None:
    assert classifier_loss([1.0, 0.0, 1.0, 0.0, 1.0], [1, 0, 1, 0, 1]) <= 1e-11


def test_loss_at_half_is_ln2() -> None:
    assert classifier_loss([0.5] * 5, [1, 0, 1, 0, 1]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_matches_per_trait_hand_formula() -> None:
    rng = Rng(41)
    probs = [0.1 + 0.8 * rng.random() for _ in range(5)]
    labels = [rng.coin() for _ in range(5)]
    expected = -sum(
        y * math.log(p) + (1 - y) * math.log(1 - p) for p, y in zip(probs, labels)
    ) / 5.0
    assert classifier_loss(probs, labels) == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_bad_labels() -> None:
    with pytest.raises(TraitgenError, match="labels must be 0/1, got 2"):
        classifier_loss([0.5] * 5, [2, 0, 0, 0, 0])


# -------------------------------------------------------------- predictions


def test_label_corpus_maps_probability_one_half_to_zero() -> None:
    # all-zero weights: every logit is 0, so every probability is exactly 0.5
    vocab = tiny_vocab(3)
    model = CnnModel(CnnConfig(embed_dim=2, window=2, num_filters=1, max_len=8), vocab)
    docs = [Document("w0 w1", ["w0", "w1"]), Document("w2", ["w2"])]
    assert (classifier_forward([d.tokens for d in docs], model) == 0.5).all()
    for doc in label_corpus(docs, model):
        assert doc.labels == dict.fromkeys(TRAITS, 0)
        assert all(type(v) is int for v in doc.labels.values())


def test_prediction_agrees_with_logit_sign() -> None:
    # both branches of the overflow-safe sigmoid, out to where exp(|x|) overflows
    x = np.array([-800.0, -30.0, -1e-12, 0.0, 1e-12, 30.0, 800.0])
    assert ((_sigmoid(x) > 0.5) == (x > 0.0)).all()


# ------------------------------------------------------------- gradient check


def test_gradient_check_at_toy_dims() -> None:
    model = make_model(n_tokens=16, k=4, m=3, f=3, max_len=12, seed=17)
    rng = Rng(18)
    tokens_per_doc = [
        [f"w{rng.randint(16)}" for _ in range(rng.randint(6) + 3)] for _ in range(4)
    ]
    ids, lengths = encode(tokens_per_doc, model.vocab, model.config.max_len)
    labels = [[rng.coin() for _ in range(5)] for _ in range(4)]

    def loss_fn() -> float:
        probs = classifier_forward(tokens_per_doc, model)
        return sum(classifier_loss(p, y) for p, y in zip(probs, labels)) / len(labels)

    def grad_fn() -> float:
        probs, cache = _forward(model, ids, lengths)
        _backward(model, probs, cache, np.array(labels, dtype=np.float64), 1.0 / len(labels))
        return loss_fn()

    errors = gradient_check(loss_fn, grad_fn, model, h=1e-5)
    assert max(errors.values()) < 1e-4, errors


# ------------------------------------------------------------------- training


def test_training_needs_ten_documents() -> None:
    rng = Rng(1)
    docs = random_corpus(9, ["a", "b"], rng)
    with pytest.raises(TraitgenError, match="need at least 10 documents, got 9"):
        train_classifier(docs, CnnConfig(epochs=1), Rng(0))


def test_training_requires_labels() -> None:
    docs = [Document("a b c", ["a", "b", "c"]) for _ in range(12)]
    with pytest.raises(TraitgenError, match="document 0 has no trait labels"):
        train_classifier(docs, CnnConfig(epochs=1), Rng(0))


def test_zero_epochs_returns_initialised_model_near_chance() -> None:
    rng = Rng(2)
    docs = random_corpus(400, [f"w{i}" for i in range(10)], rng)
    config = CnnConfig(embed_dim=4, num_filters=4, max_len=10, epochs=0)
    _, metrics = train_classifier(docs, config, Rng(3))
    assert metrics["best_epoch"] == 0
    assert metrics["per_epoch_accuracy"] == [metrics["best_accuracy"]]
    # labels are independent coin flips: accuracy is chance up to noise
    for t in TRAITS:
        assert 0.2 <= metrics["best_accuracy"][t] <= 0.8


def test_training_is_deterministic() -> None:
    rng = Rng(4)
    docs = random_corpus(40, ["a", "b", "c"], rng)
    config = CnnConfig(embed_dim=4, num_filters=3, max_len=10, epochs=2, batch_size=8)

    def run():
        model, metrics = train_classifier(docs, config, Rng(7))
        return [p.value.ravel().tolist() for p in model.params], metrics

    assert run() == run()


def test_history_and_best_epoch_recorded() -> None:
    rng = Rng(5)
    docs = random_corpus(30, ["a", "b"], rng)
    config = CnnConfig(embed_dim=4, num_filters=2, max_len=10, epochs=3, batch_size=8)
    _, metrics = train_classifier(docs, config, Rng(8))
    assert set(metrics) == {"best_epoch", "best_accuracy", "per_epoch_accuracy"}
    assert len(metrics["per_epoch_accuracy"]) == 3
    assert 1 <= metrics["best_epoch"] <= 3
    assert metrics["best_accuracy"] == metrics["per_epoch_accuracy"][metrics["best_epoch"] - 1]
    assert set(metrics["best_accuracy"]) == set(TRAITS)


# ------------------------------------------------------------------ labelling


def test_label_corpus_empty() -> None:
    model = make_model()
    assert label_corpus([], model) == []


def test_label_corpus_matches_forward_predictions_and_preserves_order() -> None:
    model = make_model(n_tokens=4, seed=23)
    docs = [
        Document("w0 w1", ["w0", "w1"]),
        Document("w3 w2 w1", ["w3", "w2", "w1"]),
        Document("w2", ["w2"]),
    ]
    labeled = label_corpus(docs, model)
    assert [d.raw_text for d in labeled] == [d.raw_text for d in docs]
    for src, out in zip(docs, labeled):
        expected = [int(p > 0.5) for p in classifier_forward([src.tokens], model)[0]]
        assert [out.labels[t] for t in TRAITS] == expected


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip_is_bit_exact(tmp_path) -> None:
    model = make_model(n_tokens=6, k=3, m=2, f=4, seed=29)
    path = tmp_path / "cnn.json"
    model.save(path)
    loaded = load_model(path, CnnModel)
    for p, q in zip(model.params, loaded.params):
        assert p.value.ravel().tolist() == q.value.ravel().tolist()
    tokens = ["w0", "w3", "w5"]
    probs = classifier_forward([tokens], model).tolist()
    assert probs == classifier_forward([tokens], loaded).tolist()
