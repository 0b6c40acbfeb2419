"""CNN text classifier producing five binary trait polarities.

Architecture: jointly-trained token embeddings, one bank of width-m
convolution filters with relu, max-over-time pooling of each feature map
over fully valid windows only, and five independent sigmoid heads (one
per trait). Training uses per-trait binary cross-entropy, minibatch Adam,
and global-norm clipping, with a deterministic 9:1 train/validation
split; the parameters of the best mean-accuracy epoch are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_model, write_checkpoint
from .errors import (
    InsufficientDataError,
    MissingLabelError,
    ShapeError,
    ShortInputError,
    ValidationError,
)
from .numeric import (
    Matrix,
    Parameter,
    Rng,
    adam_step,
    affine,
    clip_global_norm,
    elementwise_activation,
    max_over_time,
    xavier_init,
    zero_grads,
)
from .textproc import PAD_ID, Document, EncodedText, Vocabulary, encode
from .traits import TRAITS

CLIP_NORM = 5.0

# rng stream ids within a training run
_STREAM_INIT = 0
_STREAM_SPLIT = 1
_STREAM_EPOCHS = 2


@dataclass
class CnnConfig:
    vocab_size: int
    embed_dim: int = 32
    window: int = 3
    num_filters: int = 64
    max_len: int = 64
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3

    def validate(self) -> None:
        if self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")
        if self.embed_dim < 1 or self.num_filters < 1:
            raise ValidationError("embed_dim and num_filters must be >= 1")
        if self.max_len < self.window + 2:
            raise ValidationError(
                f"max_len {self.max_len} must be at least window + 2 = {self.window + 2}"
            )
        if self.vocab_size < 5:
            raise ValidationError(f"vocab_size must include the specials, got {self.vocab_size}")

    def as_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "window": self.window,
            "num_filters": self.num_filters,
            "max_len": self.max_len,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
        }


class CnnModel:
    """Parameter collection for the classifier. Immutable once trained."""

    kind = "cnn"

    def __init__(self, config: CnnConfig, vocab: Vocabulary):
        config.validate()
        if len(vocab) != config.vocab_size:
            raise ValidationError(
                f"vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        k, m, f = config.embed_dim, config.window, config.num_filters
        self.embedding = Parameter("embedding", Matrix.zeros(config.vocab_size, k))
        self.conv_w = Parameter("conv_w", Matrix.zeros(f, m * k))
        self.conv_b = Parameter("conv_b", Matrix.zeros(1, f))
        self.head_w = {t: Parameter(f"head_w_{t}", Matrix.zeros(f, 1)) for t in TRAITS}
        self.head_b = {t: Parameter(f"head_b_{t}", Matrix.zeros(1, 1)) for t in TRAITS}

    @classmethod
    def init(cls, config: CnnConfig, vocab: Vocabulary, rng: Rng) -> "CnnModel":
        """Xavier-uniform weights, zero biases; draw order is fixed."""
        model = cls(config, vocab)
        k, m, f = config.embed_dim, config.window, config.num_filters
        model.embedding.value = xavier_init(config.vocab_size, k, rng)
        model.conv_w.value = xavier_init(f, m * k, rng)
        for t in TRAITS:
            model.head_w[t].value = xavier_init(f, 1, rng)
        return model

    def params(self) -> list[Parameter]:
        out = [self.embedding, self.conv_w, self.conv_b]
        for t in TRAITS:
            out.append(self.head_w[t])
            out.append(self.head_b[t])
        return out

    def snapshot_values(self) -> dict[str, Matrix]:
        return {p.name: p.value.copy() for p in self.params()}

    def restore_values(self, snap: dict[str, Matrix]) -> None:
        for p in self.params():
            p.value = snap[p.name].copy()

    def save(self, path: str | Path) -> None:
        write_checkpoint(path, self.kind, self.config.as_dict(), self.vocab.to_list(),
                         self.params())

    @classmethod
    def load(cls, path: str | Path) -> "CnnModel":
        return load_model(path, expect_kind=cls.kind)


def _window_matrix(model: CnnModel, valid_ids: list[int], pad_short: bool) -> np.ndarray:
    """Stack embeddings of every fully valid window into a (P, m*k) matrix.

    With fewer valid positions than one window, either raise or (for the
    lenient callers) build a single window right-padded with PAD embeddings.
    """
    m = model.config.window
    emb = model.embedding.value.a
    n = len(valid_ids)
    if n < m:
        if not pad_short:
            raise ShortInputError(
                f"{n} valid positions is fewer than one window of {m}"
            )
        valid_ids = valid_ids + [PAD_ID] * (m - n)
        n = m
    rows = emb[valid_ids]
    p = n - m + 1
    return np.concatenate([rows[i:p + i] for i in range(m)], axis=1)


def _sigmoid_scalar(x: float) -> float:
    # overflow-safe either side of zero
    if x >= 0.0:
        return 1.0 / (1.0 + float(np.exp(-x)))
    e = float(np.exp(x))
    return e / (1.0 + e)


def _forward(model: CnnModel, encoded: EncodedText, pad_short: bool):
    """Probabilities for the five traits plus the caches backward needs."""
    n = encoded.length
    valid_ids = encoded.ids[:n]
    windows = _window_matrix(model, valid_ids, pad_short)
    win_m = Matrix._wrap(windows)
    conv_t = Matrix._wrap(model.conv_w.value.a.T)  # stored F x (m*k), used transposed
    pre, back_affine = affine(win_m, conv_t, model.conv_b.value)
    act, back_relu = elementwise_activation("relu", pre)
    pooled, _, back_pool = max_over_time(act)
    probs = []
    head_backs = []
    for t in TRAITS:
        logit, back_head = affine(pooled, model.head_w[t].value, model.head_b[t].value)
        probs.append(_sigmoid_scalar(float(logit[0, 0])))
        head_backs.append(back_head)
    cache = (valid_ids, win_m, back_affine, back_relu, pooled, back_pool, head_backs)
    return probs, cache


def classifier_forward(encoded: EncodedText, model: CnnModel) -> list[float]:
    """Trait probabilities in (0, 1), one per trait in E A C N O order.

    Only windows whose positions are all valid contribute, so trailing
    padding never changes the output. Raises ShortInputError when the text
    has fewer valid positions than one window; lenient callers such as
    label_corpus recover by treating the whole text as a single
    PAD-completed window.
    """
    probs, _ = _forward(model, encoded, pad_short=False)
    return probs


def classifier_loss(probs: list[float], labels: dict[str, int] | list[int]) -> float:
    """Mean binary cross-entropy over the five traits, probabilities clamped."""
    if isinstance(labels, dict):
        labels = [labels[t] for t in TRAITS]
    if len(probs) != len(TRAITS) or len(labels) != len(TRAITS):
        raise ShapeError("need exactly five probabilities and five labels")
    eps = 1e-12
    total = 0.0
    for p, y in zip(probs, labels):
        if y not in (0, 1):
            raise ValidationError(f"labels must be 0/1, got {y!r}")
        p = min(max(p, eps), 1.0 - eps)
        total += -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    return float(total / len(TRAITS))


def _backward(model: CnnModel, probs: list[float], cache, labels: list[int],
              scale: float) -> None:
    """Accumulate gradients of scale * classifier_loss into the parameters.

    Uses the fused sigmoid + binary cross-entropy gradient (p - y) at each
    head logit.
    """
    valid_ids, win_m, back_affine, back_relu, pooled, back_pool, head_backs = cache
    d_pooled = np.zeros((1, model.config.num_filters))
    for i, t in enumerate(TRAITS):
        d_logit = (probs[i] - labels[i]) * scale / len(TRAITS)
        dp, dw, db = head_backs[i](Matrix([[d_logit]]))
        model.head_w[t].add_grad(dw)
        model.head_b[t].add_grad(db)
        d_pooled += dp.a
    d_act = back_pool(Matrix._wrap(d_pooled))
    d_pre = back_relu(d_act)
    d_win, d_conv_t, d_conv_b = back_affine(d_pre)
    model.conv_w.add_grad(Matrix._wrap(d_conv_t.a.T))
    model.conv_b.add_grad(d_conv_b)
    # fold window gradients back onto the token embeddings
    m, k = model.config.window, model.config.embed_dim
    p = d_win.rows
    d_emb_rows = np.zeros((len(valid_ids), k))
    for i in range(m):
        d_emb_rows[i:p + i] += d_win.a[:, i * k:(i + 1) * k]
    np.add.at(model.embedding.grad.a, valid_ids, d_emb_rows)


def predict_labels(probs: list[float], threshold: float = 0.5) -> list[int]:
    """Binary polarity per trait; probabilities exactly at threshold map to 0."""
    return [1 if p > threshold else 0 for p in probs]


def _accuracy_per_trait(model: CnnModel, encoded: list[EncodedText],
                        labels: list[list[int]]) -> dict[str, float]:
    correct = [0] * len(TRAITS)
    for enc, y in zip(encoded, labels):
        probs, _ = _forward(model, enc, pad_short=True)
        pred = predict_labels(probs)
        for i in range(len(TRAITS)):
            correct[i] += int(pred[i] == y[i])
    n = max(1, len(encoded))
    return {t: correct[i] / n for i, t in enumerate(TRAITS)}


@dataclass
class ClassifierTrainResult:
    model: CnnModel
    best_epoch: int
    best_accuracy: dict[str, float]
    history: list[dict[str, float]] = field(default_factory=list)


def train_classifier(docs: list[Document], config: CnnConfig, rng: Rng,
                     vocab: Vocabulary | None = None) -> ClassifierTrainResult:
    """Train on a fully labeled corpus; returns the best-epoch model.

    Deterministic given (docs, config, rng seed): the corpus is shuffled
    once for the 9:1 split, batches are reshuffled per epoch from a
    dedicated stream, and every update is sequential.
    """
    if len(docs) < 10:
        raise InsufficientDataError(f"need at least 10 documents, got {len(docs)}")
    for i, doc in enumerate(docs):
        if doc.labels is None:
            raise MissingLabelError(f"document {i} has no trait labels")
    if vocab is None:
        vocab = Vocabulary.build([d.tokens for d in docs])
    config = replace(config, vocab_size=len(vocab))
    model = CnnModel.init(config, vocab, rng.spawn(_STREAM_INIT))

    encoded = [encode(d.tokens, vocab, config.max_len) for d in docs]
    labels = [[d.labels[t] for t in TRAITS] for d in docs]

    order = list(range(len(docs)))
    rng.spawn(_STREAM_SPLIT).shuffle(order)
    n_val = max(1, len(docs) // 10)
    train_idx, val_idx = order[:-n_val], order[-n_val:]
    val_enc = [encoded[i] for i in val_idx]
    val_labels = [labels[i] for i in val_idx]

    result = ClassifierTrainResult(model=model, best_epoch=0, best_accuracy={})
    if config.epochs == 0:
        result.best_accuracy = _accuracy_per_trait(model, val_enc, val_labels)
        result.history.append(result.best_accuracy)
        return result

    epoch_rng = rng.spawn(_STREAM_EPOCHS)
    params = model.params()
    best_mean = -1.0
    best_snapshot = model.snapshot_values()
    for epoch in range(1, config.epochs + 1):
        epoch_rng.shuffle(train_idx)
        for start in range(0, len(train_idx), config.batch_size):
            batch = train_idx[start:start + config.batch_size]
            zero_grads(params)
            scale = 1.0 / len(batch)
            for i in batch:
                probs, cache = _forward(model, encoded[i], pad_short=True)
                _backward(model, probs, cache, labels[i], scale)
            clip_global_norm(params, CLIP_NORM)
            for p in params:
                adam_step(p, config.learning_rate)
        acc = _accuracy_per_trait(model, val_enc, val_labels)
        result.history.append(acc)
        mean_acc = sum(acc.values()) / len(acc)
        if mean_acc > best_mean:
            best_mean = mean_acc
            best_snapshot = model.snapshot_values()
            result.best_epoch = epoch
            result.best_accuracy = acc
    model.restore_values(best_snapshot)
    return result


def label_corpus(docs: list[Document], model: CnnModel) -> list[Document]:
    """Attach predicted polarity labels to every document, order preserved.

    Texts shorter than one window are classified from a single
    PAD-completed window rather than rejected.
    """
    out = []
    for doc in docs:
        enc = encode(doc.tokens, model.vocab, model.config.max_len)
        probs, _ = _forward(model, enc, pad_short=True)
        pred = predict_labels(probs)
        out.append(
            Document(
                raw_text=doc.raw_text,
                tokens=list(doc.tokens),
                labels={t: pred[i] for i, t in enumerate(TRAITS)},
                levels=doc.levels,
            )
        )
    return out
