"""Conditional LSTM language model for short-text generation.

A single LSTM layer reads, at every timestep, the previous token's
embedding concatenated with a 5-bit trait condition (1 = high, 0 = low).
The hidden state feeds a fully connected projection and a softmax over
the vocabulary; training minimises masked cross-entropy against the next
token under teacher forcing. The unconditional baseline is the identical
architecture with ``cond_dim`` 0.

Decoding runs many texts at once, each with its own condition and RNG
stream. A text starts from a seed word drawn from a pool, samples from
the temperature-scaled softmax restricted to non-special tokens plus the
end marker, and stops on end-of-sequence, at ``max_len`` tokens, or when
a repetition rule fires (a token emitted three times in a row, or the
trailing 4-gram already present earlier in the output); the repeated
tail is trimmed before returning. Texts decode in chunks of
``DECODE_CHUNK`` rows; when there are two or more chunks, the caller's
thread and one helper thread each take the next undone chunk
until none is left. A chunk's tokens do not depend on the thread that
decodes it, nor on when. Each step draws the live rows' uniforms in
lockstep.

A row's logits do depend, in their last bits, on its chunk: OpenBLAS
rounds a row of the output product (M x H)(H x V) differently for
different live-row counts M. A token can change only when a uniform
draw falls within that rounding of a cumulative-probability boundary,
about 1e-16 per draw, so in practice the texts are the same at any
chunk size; the tests compare chunk sizes at the real dimensions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import Model, write_checkpoint
from .errors import TraitgenError
from .numeric import (
    Lockstep,
    Matrix,
    Rng,
    adam_step,
    add_rows_at,
    check_finite,
    check_schedule,
    clip_global_norm,
    masked_cross_entropy,
    xavier_init,
    zero_grads,
)
from .textproc import BOS_ID, EOS_ID, MAX_LEN, Document, Vocabulary, encode
from .traits import TRAITS

GREEDY_TEMPERATURE = 1e-6  # below this, decoding is argmax

RUN_LIMIT = 3        # stop when one token is emitted this many times in a row
NGRAM_WINDOW = 4     # stop when the trailing n-gram repeats earlier output
# most rows decoded together, and the unit of work of generate's two
# threads: fewer, larger chunks make fewer numpy calls per text
DECODE_CHUNK = 150
ID_COLUMNS = 64  # a chunk's first id columns; doubled as its texts grow

_STREAM_INIT = 0
_STREAM_EPOCHS = 1


@dataclass
class LstmConfig:
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
            raise TraitgenError(f"cond_dim must be 0 or 5, got {self.cond_dim}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise TraitgenError("embed_dim and hidden_dim must be >= 1")
        if not 2 <= self.max_len <= MAX_LEN:
            raise TraitgenError(f"max_len must be from 2 to {MAX_LEN}, got {self.max_len}")
        check_schedule(self.epochs, self.batch_size, self.learning_rate)
        if not np.isfinite(self.temperature):
            raise TraitgenError(f"temperature must be finite, got {self.temperature}")


class LstmModel(Model):
    """Embedding, fused gate weights (order i f g o), and output projection."""

    kind = "lstm"
    config_type = LstmConfig

    @staticmethod
    def shapes(config: LstmConfig, vocab_size: int) -> dict[str, tuple[int, int]]:
        k, h, v = config.embed_dim, config.hidden_dim, vocab_size
        return {"embedding": (v, k), "gates_w": (k + config.cond_dim + h, 4 * h),
                "gates_b": (1, 4 * h), "out_w": (h, v), "out_b": (1, v)}

    @classmethod
    def init(cls, config: LstmConfig, vocab: Vocabulary, rng: Rng) -> "LstmModel":
        """Xavier weights, zero biases, forget-gate bias slice set to 1."""
        model = cls(config, vocab)
        for p in (model.embedding, model.gates_w, model.out_w):
            p.value[...] = xavier_init(*p.value.shape, rng)
        model.gates_b.value[0, config.hidden_dim:2 * config.hidden_dim] = 1.0
        return model

    def save(self, path: str | Path) -> None:
        write_checkpoint(path, self)


# ------------------------------------------------------------------ cell math


class _Workspace:
    """Step buffers of teacher-forced batches, allocated once and reused.

    Every buffer is a (rows, width) float64 array; a (B, T) batch uses its
    first (T - 1) * B rows, time-major as the logits, so row t*B + b holds
    step t of text b. ``xh`` is the cell input [embedding, condition,
    h_prev], ``gates`` the activations i f g o (the backward overwrites a
    step's block with that step's gate gradient), ``c`` and ``tanh_c`` the
    cell state, ``h`` the hidden state (the backward overwrites it with
    dloss/dh) and ``logits`` the output projection.

    Decoding takes one per chunk, a row per text: its live rows are the
    first ones, it keeps h in xh's h columns (``h`` stays unused) and it
    turns the logits into cumulative probabilities in place.
    """

    __slots__ = ("xh", "h", "gates", "c", "tanh_c", "logits")

    def __init__(self, model: LstmModel, rows: int):
        config, hdim = model.config, model.config.hidden_dim
        self.xh = np.empty((rows, config.embed_dim + config.cond_dim + hdim))
        self.h = np.empty((rows, hdim))
        self.gates = np.empty((rows, 4 * hdim))
        self.c = np.empty((rows, hdim))
        self.tanh_c = np.empty((rows, hdim))
        self.logits = np.empty((rows, len(model.vocab)))


def _sigmoid_inplace(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)), the same float operations in the same order."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def _cell(model: LstmModel, xh: np.ndarray, c_prev: np.ndarray,
          out: tuple[np.ndarray, ...]) -> None:
    """One LSTM step on the cell input xh = [x, h_prev].

    ``out`` = (gates, c, tanh_c, h) receives the step: gates as one (B, 4H)
    block of the activations i f g o, which the backward pass reads. ``c``
    may be ``c_prev`` and ``h`` may be xh's h columns: each is written
    only after what it overwrites has been read.
    """
    hdim = model.config.hidden_dim
    z, c, tanh_c, h = out
    np.matmul(xh, model.gates_w.value, out=z)
    z += model.gates_b.value
    i, f, g, o = (z[:, j * hdim:(j + 1) * hdim] for j in range(4))
    _sigmoid_inplace(z[:, :2 * hdim])  # i and f
    np.tanh(g, out=g)
    _sigmoid_inplace(o)
    np.multiply(f, c_prev, out=c)
    c += np.multiply(i, g, out=tanh_c)
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _cell_input(model: LstmModel, xh: np.ndarray, ids: np.ndarray,
                cond: np.ndarray | None) -> None:
    """Write the x columns of cell inputs xh (..., k + c + H): the embedding
    of ``ids`` (shape ``xh.shape[:-1]``) and, unless ``cond`` is None, the
    condition bits, broadcast over the leading axes. The h columns are the
    caller's."""
    k = model.config.embed_dim
    xh[..., :k] = model.embedding.value[ids]
    if cond is not None:
        xh[..., k:k + model.config.cond_dim] = cond


def _check_condition_arity(model: LstmModel, condition: np.ndarray | None) -> None:
    if model.config.cond_dim == 5 and condition is None:
        raise TraitgenError("this model is conditional: a five-bit condition is required")
    if model.config.cond_dim == 0 and condition is not None:
        raise TraitgenError("this model is unconditional: no condition may be supplied")


def _forward(model: LstmModel, ids: np.ndarray, cond: np.ndarray | None,
             ws: _Workspace) -> np.ndarray:
    """Teacher-forced unroll over a (B, T) id batch; returns the logits.

    Writes every step into the first (T-1)*B rows of ``ws``; the logits
    are a view of ``ws.logits``. Rows are time-major: row t*B + b of the
    flat ((T-1)*B, V) logits predicts ids[b, t+1].
    """
    _check_condition_arity(model, cond)
    b, t_len = ids.shape
    cfg = model.config
    x_width = cfg.embed_dim + cfg.cond_dim
    hdim = cfg.hidden_dim
    n = (t_len - 1) * b
    xh_all, h_all, gates, c, tanh_c = ws.xh[:n], ws.h[:n], ws.gates[:n], ws.c[:n], ws.tanh_c[:n]
    xh_steps = xh_all.reshape(t_len - 1, b, x_width + hdim)
    _cell_input(model, xh_steps, ids[:, :-1].T, cond)
    xh_steps[0, :, x_width:] = 0.0
    c_prev = np.zeros((b, hdim))
    for s in range(0, n, b):
        rows = slice(s, s + b)
        if s:
            xh_all[rows, x_width:] = h_all[s - b:s]
            c_prev = c[s - b:s]
        _cell(model, xh_all[rows], c_prev, out=(gates[rows], c[rows], tanh_c[rows], h_all[rows]))
    logits = np.matmul(h_all, model.out_w.value, out=ws.logits[:n])
    logits += model.out_b.value
    return logits


# ------------------------------------------------------------------- training


def _train_batch(model: LstmModel, ids: np.ndarray, lengths: np.ndarray,
                 cond: np.ndarray | None, ws: _Workspace) -> tuple[float, float]:
    """Fused forward/backward over a (B, T) id batch; accumulates into grads.

    Row b's targets are its positions 1 .. lengths[b] - 1; the rest is PAD.
    The recurrence forces one gate matmul per timestep in each direction;
    the backward one multiplies by the hidden-state rows of the gate
    weights only. Everything else (output projection, gate-weight
    gradient, the embedding gradient and its scatter) is batched across
    all timesteps to keep the work in a few large matrix products. The
    steps live in ``ws`` (see :func:`_forward`); the backward writes
    dloss/dh over the hidden states and each step's gate gradient over its
    gate activations once they are read.
    Returns (token-mean loss, token count).
    """
    b, t_len = ids.shape
    cfg = model.config
    k, hdim = cfg.embed_dim, cfg.hidden_dim
    x_width = k + cfg.cond_dim
    n = (t_len - 1) * b
    w_g, w_o = model.gates_w.value, model.out_w.value
    logits = _forward(model, ids, cond, ws)
    xh_all, h_all, dz_all, c, tanh_c = ws.xh[:n], ws.h[:n], ws.gates[:n], ws.c[:n], ws.tanh_c[:n]
    targets = ids[:, 1:].T.reshape(-1)
    mask = (np.arange(1, t_len)[:, None] < lengths).reshape(-1)  # time-major, as the logits
    loss, dlogits = masked_cross_entropy(Matrix(logits), targets, mask)

    model.out_w.grad += h_all.T @ dlogits
    model.out_b.grad += dlogits.sum(axis=0, keepdims=True)
    dh_all = np.matmul(dlogits, w_o.T, out=h_all)

    w_h_t = np.ascontiguousarray(w_g[x_width:].T)  # only h_prev's rows feed the recurrence
    dh_next = np.zeros((b, hdim))
    dc_next = np.zeros_like(dh_next)
    for s in reversed(range(0, n, b)):
        rows = slice(s, s + b)
        dz = dz_all[rows]  # holds the activations i f g o until overwritten below
        i, f, g, o = (dz[:, j * hdim:(j + 1) * hdim] for j in range(4))
        tc = tanh_c[rows]
        dh = dh_all[rows] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz_i = (dc * g) * i * (1.0 - i)
        g[...] = (dc * i) * (1.0 - g * g)
        i[...] = dz_i
        c_prev = c[s - b:s] if s else 0.0  # the initial cell state is zero
        if s:  # the initial state is a constant; nothing reads its gradient
            dc_next = dc * f
        f[...] = (dc * c_prev) * f * (1.0 - f)
        o[...] = do * o * (1.0 - o)
        if s:
            dh_next = dz @ w_h_t

    model.gates_w.grad += xh_all.T @ dz_all
    model.gates_b.grad += dz_all.sum(axis=0, keepdims=True)
    add_rows_at(model.embedding.grad, ids[:, :-1].T.reshape(-1), dz_all @ w_g[:k].T)
    return loss, float(mask.sum())


def train_generator(docs: list[Document], config: LstmConfig,
                    rng: Rng) -> tuple[LstmModel, list[float]]:
    """Teacher-forced minibatch Adam training with global-norm clipping.

    Returns the model and each epoch's mean training loss (token-weighted).
    Deterministic given (docs, config, rng seed). Raises
    :class:`TraitgenError` when a training step overflows or computes an
    invalid value, on a non-finite batch loss, or when a parameter holds a
    non-finite value at the end of an epoch.
    """
    if not docs:
        raise TraitgenError("cannot train a generator on an empty corpus")
    conditional = config.cond_dim == 5
    if conditional:
        for i, doc in enumerate(docs):
            if doc.labels is None:
                raise TraitgenError(f"document {i} has no trait labels")
    vocab = Vocabulary.build([d.tokens for d in docs])
    model = LstmModel.init(config, vocab, rng.spawn(_STREAM_INIT))

    ids, lengths = encode([d.tokens for d in docs], vocab, config.max_len)
    cond_all = None
    if conditional:
        cond_all = np.array([[d.labels[t] for t in TRAITS] for d in docs], dtype=np.float64)

    losses = []
    # one set of step buffers for every batch, as long as the longest encoded text
    ws = _Workspace(model, (int(lengths.max()) - 1) * min(config.batch_size, len(docs)))
    epoch_rng = rng.spawn(_STREAM_EPOCHS)
    order = list(range(len(docs)))
    for epoch in range(1, config.epochs + 1):
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
            cond_b = cond_all[batch] if cond_all is not None else None
            zero_grads(model)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    loss, n_tokens = _train_batch(model, ids_b, lengths[batch], cond_b, ws)
                    if not np.isfinite(loss):
                        raise TraitgenError(f"non-finite training loss {loss} in epoch {epoch}")
                    clip_global_norm(model)
                    adam_step(model, config.learning_rate)
            except FloatingPointError as exc:
                raise TraitgenError(f"training diverged in epoch {epoch}: {exc}") from exc
            loss_sum += loss * n_tokens
            token_sum += n_tokens
        check_finite(model)
        losses.append(loss_sum / token_sum)
    return model, losses


# ------------------------------------------------------------------- decoding


def _append(ids: np.ndarray, n: int, run: np.ndarray,
            token_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write ``token_ids`` into column n of ``ids``, whose rows hold n ids
    each, and apply the repetition rules to every row at once.

    ``run`` is each row's trailing run of equal ids before the append.
    Returns that run after it, and the length each row keeps: n + 1, or n
    when the new id makes a run of RUN_LIMIT (trimmed back to RUN_LIMIT - 1
    copies), or n + 1 - NGRAM_WINDOW when the trailing NGRAM_WINDOW-gram
    already starts at an earlier column (overlaps included) and is trimmed
    off. The run rule is checked first.
    """
    run = np.where(token_ids == ids[:, n - 1], run + 1, 1)
    ids[:, n] = token_ids
    n += 1
    length = np.full(len(ids), n)
    starts = n - NGRAM_WINDOW  # the earlier n-grams start at columns [0, starts)
    if starts > 0:
        seen = ids[:, :starts] == ids[:, starts, None]
        for j in range(1, NGRAM_WINDOW):
            seen &= ids[:, j:j + starts] == ids[:, starts + j, None]
        length[seen.any(axis=1)] = starts
    length[run >= RUN_LIMIT] = n - 1
    return run, length


def generate(model: LstmModel, cond: np.ndarray | None, seed_pool: list[str],
             streams: Lockstep, *, temperature: float | None = None,
             max_len: int | None = None) -> list[list[str]]:
    """Sample one short text per stream; returns the token lists in row order.

    Row r decodes under the 0/1 bits ``cond[r]`` (order E A C N O; ``cond``
    is None for an unconditional model) and draws only from stream r of
    ``streams``: first its seed word, uniformly from the pool, then one
    ``random()`` per sampled token. BOS and the seed are fed before
    free-running sampling starts. Rows run in contiguous chunks of
    DECODE_CHUNK, in which every live row steps together; a row's tokens
    do not depend on the other rows (up to the rounding the module
    docstring describes). With two or more chunks, this thread and one helper
    thread, which lives for this call only, each decode the next undone
    chunk until none is left; an exception in either is raised here, and
    an overflow or invalid value in decoding is a :class:`TraitgenError`.
    Temperatures below 1e-6 switch to argmax decoding, which draws nothing
    after the seed word and is deterministic per seed word. The streams'
    state after the call is unspecified.
    """
    n = streams.state.shape[1]
    if cond is not None and np.shape(cond) != (n, len(TRAITS)):
        raise TraitgenError(f"condition array of shape {np.shape(cond)} for {n} streams")
    _check_condition_arity(model, cond)
    if not seed_pool:
        raise TraitgenError("seed pool is empty")
    missing = [t for t in seed_pool if t not in model.vocab]
    if missing:
        raise TraitgenError(f"seed tokens not in vocabulary: {missing[:5]}")
    cfg = model.config
    if temperature is None:
        temperature = cfg.temperature
    if not np.isfinite(temperature):  # any finite value is valid, negative means greedy
        raise TraitgenError(f"temperature must be finite, got {temperature}")
    if max_len is None:
        max_len = cfg.max_len
    if max_len < 1:
        raise TraitgenError(f"max_len must be >= 1, got {max_len}")

    seed_ids = [model.vocab.id_of(seed_pool[i]) for i in streams.randint(len(seed_pool)).tolist()]
    if cond is not None:
        cond = np.asarray(cond, dtype=np.float64)
    n_chunks = -(-n // DECODE_CHUNK)
    undone = iter(range(n_chunks))
    take = threading.Lock()
    decoded: list[list[list[int]]] = [[] for _ in range(n_chunks)]

    def drain() -> None:
        """Decode the next undone chunk until none is left."""
        while True:
            with take:
                j = next(undone, None)
            if j is None:
                return
            chunk = slice(j * DECODE_CHUNK, (j + 1) * DECODE_CHUNK)
            try:  # numpy's error state is per thread, so each thread sets its own
                with np.errstate(over="raise", invalid="raise"):
                    decoded[j] = _decode_chunk(
                        model, None if cond is None else cond[chunk], seed_ids[chunk],
                        Lockstep(streams.state[:, chunk].copy()), temperature, max_len)
            except FloatingPointError as exc:
                raise TraitgenError(f"decoding failed: {exc}") from exc

    if n_chunks > 1:
        # imported here: concurrent.futures loads logging, about half a MiB
        # resident that the commands which never decode two chunks need not hold
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            helper = pool.submit(drain)
            drain()
            helper.result()
    else:
        drain()
    return [[model.vocab.token_of(i) for i in ids] for part in decoded for ids in part]


def _decode_chunk(model: LstmModel, cond: np.ndarray | None, seed_ids: list[int],
                  streams: Lockstep, temperature: float, max_len: int) -> list[list[int]]:
    """Decode one chunk, drawing from ``streams``, which it owns.

    The rows step together in one workspace allocated for them, with h in
    the h columns of the cell input and the condition bits written once.
    All live rows hold the same number of ids, so the stop rules are array
    operations over one id array of a column per id, which starts at
    ID_COLUMNS columns and doubles (up to max_len) when the rows fill it; a
    finished row hands its ids out, and the live rows move to the front of
    every row buffer, in order, with their streams.
    """
    m = len(seed_ids)
    if max_len == 1:  # the seed word alone fills every row
        return [[s] for s in seed_ids]
    cfg = model.config
    x_width = cfg.embed_dim + cfg.cond_dim
    out_w, out_b = model.out_w.value, model.out_b.value
    # EOS and every real token are sampleable, PAD/UNK/BOS never are; the
    # specials are ids 0-3, EOS last, so the sampleable ids are [EOS_ID, V)
    n_allowed = len(model.vocab) - EOS_ID
    greedy = temperature < GREEDY_TEMPERATURE
    ws = _Workspace(model, m)
    xh, c = ws.xh, ws.c
    ids = np.empty((m, min(max_len, ID_COLUMNS)), dtype=np.int64)
    ids[:, 0] = seed_ids
    texts: list[list[int]] = [[] for _ in range(m)]
    rows = np.arange(m)  # the chunk row of each live row
    run = np.ones(m, dtype=np.int64)  # each live row's trailing run of equal ids

    def feed(token_ids: np.ndarray) -> None:
        live = len(token_ids)
        _cell_input(model, xh[:live], token_ids, None)  # the condition columns keep their bits
        _cell(model, xh[:live], c[:live],
              (ws.gates[:live], c[:live], ws.tanh_c[:live], xh[:live, x_width:]))

    _cell_input(model, xh, np.full(m, BOS_ID), cond)
    xh[:, x_width:] = 0.0
    c[...] = 0.0
    _cell(model, xh, c, (ws.gates, c, ws.tanh_c, xh[:, x_width:]))
    feed(ids[:, 0])
    live, n = m, 1  # every live row holds n ids
    while live:
        logits = np.matmul(xh[:live, x_width:], out_w, out=ws.logits[:live])
        logits += out_b
        probs = logits[:, EOS_ID:]
        if greedy:
            picks = np.argmax(probs, axis=1)
        else:
            probs /= temperature
            probs -= probs.max(axis=1, keepdims=True)
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=1, keepdims=True)
            cum = np.cumsum(probs, axis=1, out=probs)
            u = streams.random()
            picks = np.minimum((cum <= u[:, None]).sum(axis=1), n_allowed - 1)
        next_ids = picks + EOS_ID
        if n == ids.shape[1]:
            grown = np.empty((live, min(max_len, 2 * n)), dtype=np.int64)
            grown[:, :n] = ids[:live]
            ids = grown
        run, length = _append(ids[:live], n, run, next_ids)
        n += 1
        length[next_ids == EOS_ID] = n - 1
        done = (length < n) | (n == max_len)
        if done.any():
            for j in np.flatnonzero(done).tolist():
                texts[rows[j]] = ids[j, :length[j]].tolist()
            going = np.flatnonzero(~done)
            live = len(going)
            for buf in (xh, c):
                buf[:live] = buf[going]
            ids[:live, :n] = ids[going, :n]
            rows, run, next_ids = rows[going], run[going], next_ids[going]
            streams.state = streams.state[:, going]
        if live:
            feed(next_ids)
    return texts
