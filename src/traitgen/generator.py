"""Conditional LSTM language model for short-text generation.

A single LSTM layer reads, at every timestep, the previous token's
embedding concatenated with a 5-bit trait condition (1 = high, 0 = low).
The hidden state feeds a fully connected projection and a softmax over
the vocabulary; training minimises masked cross-entropy against the next
token under teacher forcing. The unconditional baseline is the identical
architecture with ``cond_dim`` 0.

Decoding starts from a seed word drawn from a pool, samples from the
temperature-scaled softmax restricted to non-special tokens plus the end
marker, and stops on end-of-sequence, at ``max_len`` tokens, or when a
repetition rule fires (a token emitted three times in a row, or the
trailing 4-gram already present earlier in the output); the repeated tail
is trimmed before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_model, write_checkpoint
from .errors import (
    ConditionError,
    InsufficientDataError,
    MissingLabelError,
    SeedPoolError,
    ValidationError,
)
from .numeric import (
    Matrix,
    Parameter,
    Rng,
    adam_step,
    clip_global_norm,
    masked_cross_entropy,
    xavier_init,
    zero_grads,
)
from .textproc import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Document, EncodedText, Vocabulary, encode
from .traits import TRAITS

CLIP_NORM = 5.0
GREEDY_TEMPERATURE = 1e-6  # below this, decoding is argmax

RUN_LIMIT = 3        # stop when one token is emitted this many times in a row
NGRAM_WINDOW = 4     # stop when the trailing n-gram repeats earlier output

_STREAM_INIT = 0
_STREAM_EPOCHS = 1


@dataclass(frozen=True)
class BfpCondition:
    """Binary polarity per trait, order E A C N O."""

    e: int
    a: int
    c: int
    n: int
    o: int

    def __post_init__(self) -> None:
        for t, v in zip(TRAITS, self.bits):
            if v not in (0, 1):
                raise ConditionError(f"trait {t} polarity must be 0 or 1, got {v!r}")

    @property
    def bits(self) -> tuple[int, int, int, int, int]:
        return (self.e, self.a, self.c, self.n, self.o)

    @classmethod
    def from_labels(cls, labels: dict[str, int]) -> "BfpCondition":
        try:
            return cls(*(labels[t] for t in TRAITS))
        except KeyError as exc:
            raise ConditionError(f"labels missing trait {exc}") from exc

    @classmethod
    def parse(cls, text: str) -> "BfpCondition":
        """Parse 'E=1,A=0,C=1,N=0,O=1'; every trait exactly once."""
        seen: dict[str, int] = {}
        for part in text.split(","):
            part = part.strip()
            if "=" not in part:
                raise ConditionError(f"bad condition component {part!r}, expected TRAIT=0|1")
            name, _, value = part.partition("=")
            name, value = name.strip(), value.strip()
            if name not in TRAITS:
                raise ConditionError(f"unknown trait {name!r}, expected one of {TRAITS}")
            if name in seen:
                raise ConditionError(f"trait {name} given twice")
            if value not in ("0", "1"):
                raise ConditionError(f"trait {name} polarity must be 0 or 1, got {value!r}")
            seen[name] = int(value)
        if set(seen) != set(TRAITS):
            missing = [t for t in TRAITS if t not in seen]
            raise ConditionError(f"condition missing traits {missing}")
        return cls(*(seen[t] for t in TRAITS))

    def to_string(self) -> str:
        return ",".join(f"{t}={v}" for t, v in zip(TRAITS, self.bits))


@dataclass
class LstmConfig:
    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 128
    cond_dim: int = 5
    max_len: int = 64
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-3
    temperature: float = 1.0

    def validate(self) -> None:
        if self.cond_dim not in (0, 5):
            raise ValidationError(f"cond_dim must be 0 or 5, got {self.cond_dim}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValidationError("embed_dim and hidden_dim must be >= 1")
        if self.max_len < 2:
            raise ValidationError(f"max_len must be at least 2, got {self.max_len}")
        if self.vocab_size < 5:
            raise ValidationError(f"vocab_size must include the specials, got {self.vocab_size}")

    def as_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "cond_dim": self.cond_dim,
            "max_len": self.max_len,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "temperature": self.temperature,
        }


class LstmModel:
    """Embedding, fused gate weights (order i f g o), and output projection."""

    kind = "lstm"

    def __init__(self, config: LstmConfig, vocab: Vocabulary):
        config.validate()
        if len(vocab) != config.vocab_size:
            raise ValidationError(
                f"vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        k, h, v = config.embed_dim, config.hidden_dim, config.vocab_size
        din = k + config.cond_dim + h
        self.embedding = Parameter("embedding", Matrix.zeros(v, k))
        self.gates_w = Parameter("gates_w", Matrix.zeros(din, 4 * h))
        self.gates_b = Parameter("gates_b", Matrix.zeros(1, 4 * h))
        self.out_w = Parameter("out_w", Matrix.zeros(h, v))
        self.out_b = Parameter("out_b", Matrix.zeros(1, v))

    @classmethod
    def init(cls, config: LstmConfig, vocab: Vocabulary, rng: Rng) -> "LstmModel":
        """Xavier weights, zero biases, forget-gate bias slice set to 1."""
        model = cls(config, vocab)
        k, h = config.embed_dim, config.hidden_dim
        din = k + config.cond_dim + h
        model.embedding.value = xavier_init(config.vocab_size, k, rng)
        model.gates_w.value = xavier_init(din, 4 * h, rng)
        model.gates_b.value.a[0, h:2 * h] = 1.0
        model.out_w.value = xavier_init(h, config.vocab_size, rng)
        return model

    def params(self) -> list[Parameter]:
        return [self.embedding, self.gates_w, self.gates_b, self.out_w, self.out_b]

    def save(self, path: str | Path) -> None:
        write_checkpoint(path, self.kind, self.config.as_dict(), self.vocab.to_list(),
                         self.params())

    @classmethod
    def load(cls, path: str | Path) -> "LstmModel":
        return load_model(path, expect_kind=cls.kind)


# ------------------------------------------------------------------ cell math


def _cell(model: LstmModel, xh: np.ndarray, c_prev: np.ndarray):
    """One LSTM step on the cell input xh = [x, h_prev].

    Returns (h, c, (i, f, g, o, tanh_c)); the gate activations are what
    the backward pass needs.
    """
    h = model.config.hidden_dim
    z = xh @ model.gates_w.value.a + model.gates_b.value.a
    i = 1.0 / (1.0 + np.exp(-z[:, :h]))
    f = 1.0 / (1.0 + np.exp(-z[:, h:2 * h]))
    g = np.tanh(z[:, 2 * h:3 * h])
    o = 1.0 / (1.0 + np.exp(-z[:, 3 * h:]))
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (i, f, g, o, tanh_c)


def _check_condition_arity(model: LstmModel, condition: BfpCondition | None) -> None:
    if model.config.cond_dim == 5 and condition is None:
        raise ConditionError("this model is conditional: a five-bit condition is required")
    if model.config.cond_dim == 0 and condition is not None:
        raise ConditionError("this model is unconditional: no condition may be supplied")


def _cond_rows(condition: BfpCondition | None, rows: int) -> np.ndarray | None:
    if condition is None:
        return None
    return np.tile(np.asarray(condition.bits, dtype=np.float64), (rows, 1))


def _forward(model: LstmModel, ids: np.ndarray, cond: np.ndarray | None):
    """Teacher-forced unroll over a (B, T) id batch.

    Returns (logits, h_all, xh_all, caches). Rows are time-major: row
    t*B + b of the flat ((T-1)*B, V) logits predicts ids[b, t+1]. Row
    t*B + b of xh_all is the cell input [embedding, condition, h] of that
    step and of h_all the hidden state it produced; caches[t] holds step
    t's previous cell state and gate activations for the backward pass.
    """
    b, t_len = ids.shape
    cfg = model.config
    k, hdim = cfg.embed_dim, cfg.hidden_dim
    x_width = k + cfg.cond_dim
    steps = t_len - 1
    xh_all = np.empty((steps * b, x_width + hdim))
    xh_steps = xh_all.reshape(steps, b, x_width + hdim)
    xh_steps[:, :, :k] = model.embedding.value.a[ids[:, :steps].T]
    if cond is not None:
        xh_steps[:, :, k:x_width] = cond
    h_all = np.empty((steps * b, hdim))
    h = np.zeros((b, hdim))
    c = np.zeros_like(h)
    caches = []
    for t in range(steps):
        xh = xh_all[t * b:(t + 1) * b]
        xh[:, x_width:] = h
        c_prev = c
        h, c, acts = _cell(model, xh, c_prev)
        h_all[t * b:(t + 1) * b] = h
        caches.append((c_prev, acts))
    logits = h_all @ model.out_w.value.a + model.out_b.value.a
    return logits, h_all, xh_all, caches


def _unroll(model: LstmModel, ids: np.ndarray, cond: np.ndarray | None) -> np.ndarray:
    """Forward-only unroll: the flat time-major logits of :func:`_forward`."""
    return _forward(model, ids, cond)[0]


def generator_forward(encoded: EncodedText, condition: BfpCondition | None,
                      model: LstmModel) -> Matrix:
    """Next-token logits for positions 0..T-2 of one encoded text."""
    _check_condition_arity(model, condition)
    ids = np.asarray(encoded.ids, dtype=np.int64)[None, :]
    if ids.max() >= model.config.vocab_size:
        raise ValidationError("encoded ids exceed the model vocabulary")
    logits = _unroll(model, ids, _cond_rows(condition, 1))
    return Matrix._wrap(logits)


def generator_loss(logits: Matrix, encoded: EncodedText) -> float:
    """Masked cross-entropy of the logits against the shifted targets."""
    targets = encoded.ids[1:]
    mask = encoded.mask[1:]
    loss, _ = masked_cross_entropy(logits, targets, mask)
    return loss


# ------------------------------------------------------------------- training


def _train_batch(model: LstmModel, ids: np.ndarray, mask: np.ndarray,
                 cond: np.ndarray | None) -> tuple[float, float]:
    """Fused forward/backward over one batch; accumulates into grads.

    The recurrence forces one gate matmul per timestep in each direction,
    but everything else (output projection, gate-weight gradient, the
    embedding scatter) is batched across all timesteps to keep the work
    in a few large matrix products. Returns (token-mean loss, token count).
    """
    b, t_len = ids.shape
    cfg = model.config
    k, hdim = cfg.embed_dim, cfg.hidden_dim
    x_width = k + cfg.cond_dim
    steps = t_len - 1
    w_g, w_o = model.gates_w.value.a, model.out_w.value.a
    logits, h_all, xh_all, caches = _forward(model, ids, cond)
    targets = ids[:, 1:].T.reshape(-1)
    mask_flat = mask[:, 1:].T.reshape(-1)
    loss, back_ce = masked_cross_entropy(Matrix._wrap(logits), targets, mask_flat)
    dlogits = back_ce().a

    model.out_w.grad.a += h_all.T @ dlogits
    model.out_b.grad.a += dlogits.sum(axis=0, keepdims=True)
    dh_all = dlogits @ w_o.T

    dz_all = np.empty((steps * b, 4 * hdim))
    demb_all = np.empty((steps * b, k))
    w_g_t = w_g.T
    dh_next = np.zeros((b, hdim))
    dc_next = np.zeros_like(dh_next)
    for t in reversed(range(steps)):
        c_prev, (i, f, g, o, tanh_c) = caches[t]
        dh = dh_all[t * b:(t + 1) * b] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        dz = dz_all[t * b:(t + 1) * b]
        dz[:, :hdim] = (dc * g) * i * (1.0 - i)
        dz[:, hdim:2 * hdim] = (dc * c_prev) * f * (1.0 - f)
        dz[:, 2 * hdim:3 * hdim] = (dc * i) * (1.0 - g * g)
        dz[:, 3 * hdim:] = do * o * (1.0 - o)
        dc_next = dc * f
        dxh = dz @ w_g_t
        demb_all[t * b:(t + 1) * b] = dxh[:, :k]
        dh_next = dxh[:, x_width:]

    model.gates_w.grad.a += xh_all.T @ dz_all
    model.gates_b.grad.a += dz_all.sum(axis=0, keepdims=True)
    np.add.at(model.embedding.grad.a, ids[:, :steps].T.reshape(-1), demb_all)
    return loss, float(mask_flat.sum())


@dataclass
class GeneratorTrainResult:
    model: LstmModel
    epoch_mean_losses: list[float] = field(default_factory=list)


def _encode_corpus(docs: list[Document], vocab: Vocabulary, max_len: int):
    encoded = [encode(d.tokens, vocab, max_len) for d in docs]
    ids = np.array([e.ids for e in encoded], dtype=np.int64)
    mask = np.array([e.mask for e in encoded], dtype=np.float64)
    lengths = np.array([e.length for e in encoded], dtype=np.int64)
    return ids, mask, lengths


def train_generator(docs: list[Document], config: LstmConfig, rng: Rng,
                    vocab: Vocabulary | None = None) -> GeneratorTrainResult:
    """Teacher-forced minibatch Adam training with global-norm clipping.

    Per-epoch mean training loss (token-weighted) is recorded in the
    result. Deterministic given (docs, config, rng seed).
    """
    if not docs:
        raise InsufficientDataError("cannot train a generator on an empty corpus")
    conditional = config.cond_dim == 5
    if conditional:
        for i, doc in enumerate(docs):
            if doc.labels is None:
                raise MissingLabelError(f"document {i} has no trait labels")
    if vocab is None:
        vocab = Vocabulary.build([d.tokens for d in docs])
    config = replace(config, vocab_size=len(vocab))
    model = LstmModel.init(config, vocab, rng.spawn(_STREAM_INIT))

    ids, mask, lengths = _encode_corpus(docs, vocab, config.max_len)
    cond_all = None
    if conditional:
        cond_all = np.array([[d.labels[t] for t in TRAITS] for d in docs], dtype=np.float64)

    result = GeneratorTrainResult(model=model)
    params = model.params()
    epoch_rng = rng.spawn(_STREAM_EPOCHS)
    order = list(range(len(docs)))
    for _epoch in range(config.epochs):
        epoch_rng.shuffle(order)
        # length bucketing: stable sort of the shuffled order keeps batches
        # near-uniform in length (little padding); batch order is reshuffled
        # so updates do not sweep lengths monotonically
        by_len = sorted(order, key=lambda i: lengths[i])
        batches = [by_len[s:s + config.batch_size]
                   for s in range(0, len(by_len), config.batch_size)]
        epoch_rng.shuffle(batches)
        loss_sum = 0.0
        token_sum = 0.0
        for batch in batches:
            t_max = int(lengths[batch].max())
            ids_b = ids[batch][:, :t_max]
            mask_b = mask[batch][:, :t_max]
            cond_b = cond_all[batch] if cond_all is not None else None
            zero_grads(params)
            loss, n_tokens = _train_batch(model, ids_b, mask_b, cond_b)
            clip_global_norm(params, CLIP_NORM)
            for p in params:
                adam_step(p, config.learning_rate)
            loss_sum += loss * n_tokens
            token_sum += n_tokens
        result.epoch_mean_losses.append(loss_sum / token_sum)
    return result


# ------------------------------------------------------------------- decoding


def _trailing_run_length(tokens: list[int]) -> int:
    run = 1
    for prev, cur in zip(reversed(tokens[:-1]), reversed(tokens)):
        if prev != cur:
            break
        run += 1
    return run


def _repeated_tail_ngram(tokens: list[int], n: int) -> bool:
    if len(tokens) < n + 1:
        return False
    tail = tokens[-n:]
    for start in range(len(tokens) - n):
        if tokens[start:start + n] == tail:
            return True
    return False


def generate(model: LstmModel, condition: BfpCondition | None, seed_pool: list[str],
             rng: Rng, temperature: float | None = None,
             max_len: int | None = None) -> list[str]:
    """Sample one short text as a token list.

    The seed word is drawn uniformly from the pool; BOS and the seed are
    fed before free-running sampling starts. Temperatures below 1e-6
    switch to argmax decoding, which is deterministic per seed word.
    """
    _check_condition_arity(model, condition)
    if not seed_pool:
        raise SeedPoolError("seed pool is empty")
    missing = [t for t in seed_pool if t not in model.vocab]
    if missing:
        raise SeedPoolError(f"seed tokens not in vocabulary: {missing[:5]}")
    cfg = model.config
    if temperature is None:
        temperature = cfg.temperature
    if max_len is None:
        max_len = cfg.max_len
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")

    seed_token = seed_pool[rng.randint(len(seed_pool))]
    seed_id = model.vocab.id_of(seed_token)
    emb = model.embedding.value.a
    cond_row = _cond_rows(condition, 1)
    out_w, out_b = model.out_w.value.a, model.out_b.value.a

    # every real token plus EOS is sampleable; PAD/UNK/BOS never are
    vocab_size = cfg.vocab_size
    allowed = np.array([i for i in range(vocab_size) if i not in (PAD_ID, UNK_ID, BOS_ID)],
                       dtype=np.int64)
    greedy = temperature < GREEDY_TEMPERATURE

    h = np.zeros((1, cfg.hidden_dim))
    c = np.zeros_like(h)

    def feed(token_id: int) -> None:
        nonlocal h, c
        x = emb[token_id][None, :]
        if cond_row is not None:
            x = np.concatenate([x, cond_row], axis=1)
        h, c, _ = _cell(model, np.concatenate([x, h], axis=1), c)

    feed(BOS_ID)
    feed(seed_id)
    out_ids = [seed_id]
    while len(out_ids) < max_len:
        logits = (h @ out_w + out_b)[0, allowed]
        if greedy:
            next_id = int(allowed[int(np.argmax(logits))])
        else:
            scaled = logits / temperature
            scaled -= scaled.max()
            probs = np.exp(scaled)
            probs /= probs.sum()
            cum = np.cumsum(probs)
            pick = int(np.searchsorted(cum, rng.random(), side="right"))
            next_id = int(allowed[min(pick, len(allowed) - 1)])
        if next_id == EOS_ID:
            break
        out_ids.append(next_id)
        if _trailing_run_length(out_ids) >= RUN_LIMIT:
            del out_ids[-1]  # trim the run back to RUN_LIMIT - 1 copies
            break
        if _repeated_tail_ngram(out_ids, NGRAM_WINDOW):
            del out_ids[-NGRAM_WINDOW:]  # trim the repeated tail
            break
        feed(next_id)
    return [model.vocab.token_of(i) for i in out_ids]
