"""CNN text classifier producing five binary trait polarities.

Architecture: jointly-trained token embeddings, one bank of width-m
convolution filters with relu, max-over-time pooling of each feature map
over fully valid windows only, and one five-column sigmoid head (one
column per trait). One batched forward and backward runs on chunks of
:data:`CHUNK` texts. Training uses per-trait binary cross-entropy,
minibatch Adam, and global-norm clipping, with a deterministic 9:1
train/validation split; the parameters of the best mean-accuracy epoch
are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import Model, write_checkpoint
from .errors import TraitgenError
from .numeric import (
    Rng,
    adam_step,
    add_rows_at,
    affine,
    check_finite,
    check_schedule,
    clip_global_norm,
    elementwise_activation,
    max_over_time,
    xavier_init,
    zero_grads,
)
from .textproc import MAX_LEN, Document, Vocabulary, encode
from .traits import TRAITS

# texts per forward/backward call; the window matrix, and with it the
# peak memory of labeling, grows with the chunk
CHUNK = 8

# rng stream ids within a training run
_STREAM_INIT = 0
_STREAM_SPLIT = 1
_STREAM_EPOCHS = 2


@dataclass
class CnnConfig:
    embed_dim: int = 32
    window: int = 3
    num_filters: int = 64
    max_len: int = 64
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3

    def validate(self) -> None:
        if self.window < 1:
            raise TraitgenError(f"window must be >= 1, got {self.window}")
        if self.embed_dim < 1 or self.num_filters < 1:
            raise TraitgenError("embed_dim and num_filters must be >= 1")
        if not self.window + 2 <= self.max_len <= MAX_LEN:
            raise TraitgenError(f"max_len {self.max_len} must be from window + 2 = "
                                f"{self.window + 2} to {MAX_LEN}")
        check_schedule(self.epochs, self.batch_size, self.learning_rate)


class CnnModel(Model):
    """Parameter collection for the classifier. Immutable once trained."""

    kind = "cnn"
    config_type = CnnConfig

    @staticmethod
    def shapes(config: CnnConfig, vocab_size: int) -> dict[str, tuple[int, int]]:
        k, m, f = config.embed_dim, config.window, config.num_filters
        return {"embedding": (vocab_size, k), "conv_w": (f, m * k), "conv_b": (1, f),
                "head_w": (f, len(TRAITS)), "head_b": (1, len(TRAITS))}

    @classmethod
    def init(cls, config: CnnConfig, vocab: Vocabulary, rng: Rng) -> "CnnModel":
        """Xavier-uniform weights, zero biases; draw order is fixed.

        The head is drawn one f x 1 column per trait, in trait order.
        """
        model = cls(config, vocab)
        for p in (model.embedding, model.conv_w):
            p.value[...] = xavier_init(*p.value.shape, rng)
        f = config.num_filters
        model.head_w.value[...] = np.concatenate([xavier_init(f, 1, rng) for _ in TRAITS], axis=1)
        return model

    def save(self, path: str | Path) -> None:
        write_checkpoint(path, self)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # overflow-safe either side of zero
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward(model: CnnModel, ids: np.ndarray, lengths: np.ndarray):
    """(B, 5) trait probabilities of a (B, T) chunk plus the caches backward needs.

    Windows are laid out position-major, row p * B + b holding the m
    embeddings of text b starting at position p. Windows that run past a
    text's valid positions are zeroed after relu: every value is then
    >= 0 and the invalid windows trail the valid ones, so each maximum and
    its lowest-index winner are those of the valid windows alone. A text
    shorter than one window keeps window 0, which encode completes with
    PAD.
    """
    m, f = model.config.window, model.config.num_filters
    ids = ids[:, :max(int(lengths.max()), m)]  # windows past the longest text are all invalid
    b, t = ids.shape
    p = t - m + 1
    win_ids = ids[:, np.arange(p)[:, None] + np.arange(m)].transpose(1, 0, 2)  # (P, B, m)
    windows = model.embedding.value[win_ids].reshape(p * b, -1)
    # conv_w is stored F x (m*k) and used transposed; an overflow is left to
    # the activation's non-finite check, which reports it as one error
    with np.errstate(over="ignore"):
        pre, back_conv = affine(windows, model.conv_w.value.T, model.conv_b.value)
    act, back_relu = elementwise_activation(pre)
    valid = np.arange(p)[:, None] <= np.maximum(lengths - m, 0)  # (P, B)
    feats = act.reshape(p, b, f)
    feats *= valid[:, :, None]
    pooled, back_pool = max_over_time(feats.reshape(p, b * f))
    logits, back_head = affine(pooled.reshape(b, f), model.head_w.value, model.head_b.value)
    return _sigmoid(logits), (win_ids, back_conv, back_relu, back_pool, back_head)


def _backward(model: CnnModel, probs: np.ndarray, cache, labels: np.ndarray,
              scale: float) -> None:
    """Accumulate gradients of scale * (sum of each row's classifier_loss).

    Uses the fused sigmoid + binary cross-entropy gradient (p - y) at each
    head logit.
    """
    win_ids, back_conv, back_relu, back_pool, back_head = cache
    d_logits = (probs - labels) * (scale / len(TRAITS))
    d_pooled, d_head_w, d_head_b = back_head(d_logits)
    model.head_w.grad += d_head_w
    model.head_b.grad += d_head_b
    d_act = back_pool(d_pooled.reshape(1, -1))
    d_pre = back_relu(d_act.reshape(-1, model.config.num_filters))
    d_win, d_conv_t, d_conv_b = back_conv(d_pre)
    model.conv_w.grad += d_conv_t.T
    model.conv_b.grad += d_conv_b
    k = model.config.embed_dim
    add_rows_at(model.embedding.grad, win_ids.reshape(-1), d_win.reshape(-1, k))


def _probs(model: CnnModel, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(n, 5) trait probabilities of n encoded rows, :data:`CHUNK` rows per forward."""
    out = np.empty((len(ids), len(TRAITS)))
    for start in range(0, len(ids), CHUNK):
        rows = slice(start, start + CHUNK)
        out[rows] = _forward(model, ids[rows], lengths[rows])[0]
    return out


def classifier_forward(texts: Sequence[Sequence[str]], model: CnnModel) -> np.ndarray:
    """(n, 5) trait probabilities in (0, 1) of n token lists, columns in E A C N O order.

    The texts are encoded together, then classified :data:`CHUNK` rows at
    a time. Only windows whose positions are all valid contribute, so
    trailing padding never changes a row; a text with fewer valid
    positions than one window is classified from a single PAD-completed
    window.
    """
    return _probs(model, *encode(texts, model.vocab, model.config.max_len))


def classifier_loss(probs: Sequence[float], labels: Sequence[int]) -> float:
    """Mean binary cross-entropy over the five traits, probabilities clamped."""
    if len(probs) != len(TRAITS) or len(labels) != len(TRAITS):
        raise TraitgenError("need exactly five probabilities and five labels")
    eps = 1e-12
    total = 0.0
    for p, y in zip(probs, labels):
        if y not in (0, 1):
            raise TraitgenError(f"labels must be 0/1, got {y!r}")
        p = min(max(p, eps), 1.0 - eps)
        total += -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    return float(total / len(TRAITS))


def _accuracy_per_trait(model: CnnModel, ids: np.ndarray, lengths: np.ndarray,
                        labels: np.ndarray) -> dict[str, float]:
    pred = _probs(model, ids, lengths) > 0.5
    correct = (pred == labels).sum(axis=0)
    n = max(1, len(ids))
    return {t: int(correct[i]) / n for i, t in enumerate(TRAITS)}


def train_classifier(docs: list[Document], config: CnnConfig,
                     rng: Rng) -> tuple[CnnModel, dict]:
    """Train on a fully labeled corpus; returns the best-epoch model and its metrics.

    The metrics are the ``metrics.json`` payload: ``best_epoch`` (0 when
    no epoch ran), ``best_accuracy`` (per trait, on the validation split)
    and ``per_epoch_accuracy`` (one such map per epoch, or the untrained
    model's alone). Deterministic given (docs, config, rng seed): the
    corpus is shuffled once for the 9:1 split, batches are reshuffled per
    epoch from a dedicated stream, and every update is sequential. A batch
    accumulates its gradient over chunks of :data:`CHUNK` texts. Raises
    :class:`TraitgenError` when a parameter holds a non-finite value at
    the end of an epoch.
    """
    if len(docs) < 10:
        raise TraitgenError(f"need at least 10 documents, got {len(docs)}")
    for i, doc in enumerate(docs):
        if doc.labels is None:
            raise TraitgenError(f"document {i} has no trait labels")
    vocab = Vocabulary.build([d.tokens for d in docs])
    model = CnnModel.init(config, vocab, rng.spawn(_STREAM_INIT))

    ids, lengths = encode([d.tokens for d in docs], vocab, config.max_len)
    labels = np.array([[d.labels[t] for t in TRAITS] for d in docs], dtype=np.float64)

    order = list(range(len(docs)))
    rng.spawn(_STREAM_SPLIT).shuffle(order)
    n_val = max(1, len(docs) // 10)
    train_idx, val_idx = order[:-n_val], order[-n_val:]
    val = (ids[val_idx], lengths[val_idx], labels[val_idx])

    if config.epochs == 0:
        acc = _accuracy_per_trait(model, *val)
        return model, {"best_epoch": 0, "best_accuracy": acc, "per_epoch_accuracy": [acc]}

    epoch_rng = rng.spawn(_STREAM_EPOCHS)
    history = []
    best_mean = -1.0  # any accuracy beats it, so epoch 1 always takes the snapshot
    for epoch in range(1, config.epochs + 1):
        epoch_rng.shuffle(train_idx)
        for start in range(0, len(train_idx), config.batch_size):
            batch = train_idx[start:start + config.batch_size]
            zero_grads(model)
            scale = 1.0 / len(batch)
            for c in range(0, len(batch), CHUNK):
                rows = batch[c:c + CHUNK]
                probs, cache = _forward(model, ids[rows], lengths[rows])
                _backward(model, probs, cache, labels[rows], scale)
            clip_global_norm(model)
            adam_step(model, config.learning_rate)
        check_finite(model)
        acc = _accuracy_per_trait(model, *val)
        history.append(acc)
        mean_acc = sum(acc.values()) / len(acc)
        if mean_acc > best_mean:
            best_mean = mean_acc
            best_value = model.value.copy()
            best_epoch, best_accuracy = epoch, acc
    model.value[...] = best_value
    return model, {"best_epoch": best_epoch, "best_accuracy": best_accuracy,
                   "per_epoch_accuracy": history}


def label_corpus(docs: list[Document], model: CnnModel) -> list[Document]:
    """Attach predicted polarity labels to every document, order preserved."""
    probs = classifier_forward([doc.tokens for doc in docs], model)
    preds = (probs > 0.5).astype(int).tolist()  # exactly 0.5 maps to 0
    return [replace(doc, labels=dict(zip(TRAITS, pred))) for doc, pred in zip(docs, preds)]
