from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import traitgen.generator
from traitgen.checkpoint import load_model
from traitgen.errors import TraitgenError
from traitgen.generator import (
    DECODE_CHUNK,
    GREEDY_TEMPERATURE,
    ID_COLUMNS,
    NGRAM_WINDOW,
    RUN_LIMIT,
    LstmConfig,
    LstmModel,
    generate,
    train_generator,
    _Workspace,
    _append,
    _decode_chunk,
    _forward,
    _train_batch,
)
from traitgen.numeric import Lockstep, Matrix, Rng, masked_cross_entropy, zero_grads
from traitgen.numeric.gradcheck import gradient_check
from traitgen.textproc import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Document,
    Vocabulary,
    encode,
)
from traitgen.traits import TRAITS, format_condition, parse_condition

from lstm_helpers import batch_workspace, cell


def tiny_vocab(n_tokens: int) -> Vocabulary:
    return Vocabulary.build([[f"w{i}" for i in range(n_tokens)]] * 2)


def make_model(n_tokens=4, k=3, h=3, cond=5, max_len=10, seed=2) -> LstmModel:
    vocab = tiny_vocab(n_tokens)
    config = LstmConfig(embed_dim=k, hidden_dim=h, cond_dim=cond, max_len=max_len)
    return LstmModel.init(config, vocab, Rng(seed))


def all_high() -> tuple[int, ...]:
    return (1, 1, 1, 1, 1)


def bits_of(r: int) -> tuple[int, ...]:
    """The five low bits of ``r``, E first."""
    return tuple((r >> b) & 1 for b in range(5))


def streams_of(seed: int, n: int) -> Lockstep:
    """The decoding streams ``Rng(seed).spawn(r)`` for r in [0, n)."""
    return Lockstep.spawned(Rng(seed), 0, n)


def cond_row(*conditions: tuple[int, ...]) -> np.ndarray:
    """The (n, 5) condition input of n texts, one row per condition."""
    return np.array(conditions, dtype=np.float64)


def forward(model: LstmModel, ids: np.ndarray, cond: np.ndarray | None) -> np.ndarray:
    """_forward's time-major logits, in a workspace of their own."""
    return _forward(model, ids, cond, batch_workspace(model, ids))


def next_token_loss(logits: np.ndarray, ids: np.ndarray, lengths: np.ndarray) -> float:
    """masked_cross_entropy of _forward's time-major logits against the next ids."""
    mask = np.arange(1, ids.shape[1])[:, None] < lengths
    loss, _ = masked_cross_entropy(Matrix(logits), ids[:, 1:].T.reshape(-1),
                                   mask.reshape(-1))
    return loss


def random_labeled_docs(n: int, tokens: list[str], rng: Rng, length=5) -> list[Document]:
    docs = []
    for _ in range(n):
        toks = [tokens[rng.randint(len(tokens))] for _ in range(length)]
        docs.append(Document(" ".join(toks), toks,
                             labels={t: rng.coin() for t in TRAITS}))
    return docs


# ------------------------------------------------------------------ condition


def test_condition_bits_and_string_roundtrip() -> None:
    cond = parse_condition("E=1,A=0,C=1,N=0,O=1")
    assert cond == (1, 0, 1, 0, 1)
    assert format_condition(cond) == "E=1,A=0,C=1,N=0,O=1"
    for r in range(32):
        assert parse_condition(format_condition(bits_of(r))) == bits_of(r)


def test_condition_parse_rejects_malformed() -> None:
    for bad, message in (("E=1", "condition missing traits"),
                         ("E=1,A=0,C=1,N=0,O=2", "trait O polarity must be 0 or 1"),
                         ("E=1,E=0,C=1,N=0,O=1", "trait E given twice"),
                         ("X=1,A=0,C=1,N=0,O=1", "unknown trait 'X'"),
                         ("E:1,A=0,C=1,N=0,O=1", "bad condition component")):
        with pytest.raises(TraitgenError, match=message):
            parse_condition(bad)


# ----------------------------------------------------------------------- cell


def zeroed_model(**kw) -> LstmModel:
    model = make_model(**kw)
    model.gates_w.value[:] = 0.0
    model.gates_b.value[:] = 0.0
    return model


def sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def scalar_cell(model: LstmModel, xh: list[float],
                c_prev: list[float]) -> tuple[list[float], list[float]]:
    """The LSTM step written out one scalar at a time: (h, c) for one row."""
    w = model.gates_w.value
    b = model.gates_b.value[0]
    hdim = model.config.hidden_dim
    z = [b[j] + sum(xh[i] * w[i, j] for i in range(len(xh))) for j in range(4 * hdim)]
    h, c = [], []
    for j in range(hdim):
        ig = sigmoid(z[j])
        fg = sigmoid(z[hdim + j])
        gg = math.tanh(z[2 * hdim + j])
        og = sigmoid(z[3 * hdim + j])
        c.append(fg * c_prev[j] + ig * gg)
        h.append(og * math.tanh(c[j]))
    return h, c


def test_zero_weights_zero_state_stays_zero() -> None:
    model = zeroed_model(h=3)
    width = model.config.embed_dim + model.config.cond_dim
    xh = np.array([[0.7] * width + [0.0] * 3])
    h, c = cell(model, xh, np.zeros((1, 3)))
    assert h.tolist() == [[0.0, 0.0, 0.0]]
    assert c.tolist() == [[0.0, 0.0, 0.0]]


def test_zero_weights_halve_cell_state() -> None:
    model = zeroed_model(h=3)
    width = model.config.embed_dim + model.config.cond_dim
    xh = np.array([[1.0] * width + [0.0] * 3])
    h, c = cell(model, xh, np.array([[0.4, -1.2, 2.0]]))
    assert c.tolist()[0] == pytest.approx([0.2, -0.6, 1.0])
    expected_h = [0.5 * math.tanh(v) for v in [0.2, -0.6, 1.0]]
    assert h.tolist()[0] == pytest.approx(expected_h)


def test_lstm_step_matches_scalar_hand_oracle() -> None:
    model = make_model(k=2, h=3, cond=0, seed=31)
    xh = [0.3, -0.8, 0.1, -0.2, 0.05]  # x = [0.3, -0.8], h_prev = [0.1, -0.2, 0.05]
    c0 = [0.4, 0.0, -0.6]
    h1, c1 = cell(model, np.array([xh]), np.array([c0]))
    h_exp, c_exp = scalar_cell(model, xh, c0)
    assert c1[0].tolist() == pytest.approx(c_exp, abs=1e-12)
    assert h1[0].tolist() == pytest.approx(h_exp, abs=1e-12)


def test_hidden_state_magnitude_below_one() -> None:
    model = make_model(k=2, h=4, cond=0, seed=37)
    rng = Rng(38)
    h = np.zeros((1, 4))
    c = np.zeros((1, 4))
    for _ in range(50):
        x = np.array([[6.0 * rng.random() - 3.0, 6.0 * rng.random() - 3.0]])
        h, c = cell(model, np.concatenate([x, h], axis=1), c)
        assert np.abs(h).max() < 1.0


# -------------------------------------------------------------------- _forward


def test_forward_condition_arity_enforced() -> None:
    cond_model = make_model(cond=5)
    uncond_model = make_model(cond=0)
    ids, _ = encode([["w0"]], cond_model.vocab, 6)
    with pytest.raises(TraitgenError, match="this model is conditional"):
        forward(cond_model, ids, None)
    with pytest.raises(TraitgenError, match="this model is unconditional"):
        forward(uncond_model, ids, cond_row(all_high()))


def test_forward_matches_hand_unrolled_steps() -> None:
    model = make_model(n_tokens=4, k=3, h=3, cond=5, max_len=4, seed=41)
    ids, _ = encode([["w0", "w2"]], model.vocab, 4)  # BOS w0 w2 EOS
    cond = (1, 0, 1, 0, 1)
    logits = forward(model, ids, cond_row(cond))
    assert logits.shape == (3, len(model.vocab))

    bits = list(map(float, cond))
    w_o, b_o = model.out_w.value, model.out_b.value[0]
    h, c = [0.0] * 3, [0.0] * 3
    for t in range(3):
        emb = model.embedding.value[ids[0, t]].tolist()
        h, c = scalar_cell(model, emb + bits + h, c)
        expected = [b_o[v] + sum(h[j] * w_o[j, v] for j in range(3))
                    for v in range(len(model.vocab))]
        assert np.abs(logits[t] - expected).max() < 1e-12


def test_zeroed_condition_rows_make_all_conditions_identical() -> None:
    model = make_model(n_tokens=5, k=3, h=4, cond=5, max_len=6, seed=43)
    k = model.config.embed_dim
    model.gates_w.value[k:k + 5, :] = 0.0  # rows that read the condition bits
    ids, _ = encode([["w1", "w3"]], model.vocab, 6)
    reference = None
    for bits in range(32):
        logits = forward(model, ids, cond_row(bits_of(bits)))
        if reference is None:
            reference = logits
        else:
            assert (logits == reference).all()


def test_untrained_model_loss_is_near_log_vocab() -> None:
    model = make_model(n_tokens=40, k=8, h=8, cond=0, max_len=12, seed=47)
    rng = Rng(48)
    total, count = 0.0, 0
    for _ in range(20):
        tokens = [f"w{rng.randint(40)}" for _ in range(8)]
        ids, lengths = encode([tokens], model.vocab, 12)
        total += next_token_loss(forward(model, ids, None), ids, lengths)
        count += 1
    mean = total / count
    assert abs(mean - math.log(len(model.vocab))) / math.log(
        len(model.vocab)
    ) < 0.02


# ------------------------------------------------------------- next-token loss


def test_loss_zero_for_deterministic_correct_logits() -> None:
    model = make_model(n_tokens=3, max_len=5)
    ids, lengths = encode([["w0", "w1"]], model.vocab, 5)  # BOS w0 w1 EOS PAD
    logits = np.zeros((4, len(model.vocab)))
    for t in range(1, lengths[0]):
        logits[t - 1, ids[0, t]] = 60.0
    assert next_token_loss(logits, ids, lengths) == pytest.approx(0.0, abs=1e-11)


def test_loss_uniform_logits_equals_log_vocab() -> None:
    model = make_model(n_tokens=3, max_len=5)
    ids, lengths = encode([["w0", "w1"]], model.vocab, 5)
    logits = np.zeros((4, len(model.vocab)))
    assert next_token_loss(logits, ids, lengths) == pytest.approx(
        math.log(len(model.vocab)), abs=1e-12
    )


def test_loss_matches_hand_sum_on_three_token_toy() -> None:
    model = make_model(n_tokens=3, max_len=5, seed=53)
    ids, lengths = encode([["w0", "w1", "w2"]], model.vocab, 5)
    logits = forward(model, ids, cond_row(all_high()))
    by_hand = 0.0
    for t in range(4):
        row = logits[t]
        z = sum(math.exp(v) for v in row)
        by_hand += -math.log(math.exp(row[ids[0, t + 1]]) / z)
    assert next_token_loss(logits, ids, lengths) == pytest.approx(by_hand / 4.0, abs=1e-12)


# ------------------------------------------------------------- gradient check


def test_gradient_check_three_timesteps() -> None:
    model = make_model(n_tokens=8, k=3, h=4, cond=5, max_len=4, seed=59)
    rng = Rng(60)
    ids = np.array([[BOS_ID, 5, 7, EOS_ID], [BOS_ID, 4, EOS_ID, PAD_ID]], dtype=np.int64)
    mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
    lengths = np.array([4, 3])
    cond = np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=np.float64)

    def loss_fn() -> float:
        logits = forward(model, ids, cond)
        targets = ids[:, 1:].T.reshape(-1)
        mask_flat = mask[:, 1:].T.reshape(-1)
        loss, _ = masked_cross_entropy(Matrix(logits), targets, mask_flat)
        return loss

    def grad_fn() -> float:
        loss, _ = _train_batch(model, ids, lengths, cond, batch_workspace(model, ids))
        return loss

    errors = gradient_check(loss_fn, grad_fn, model, h=1e-5)
    assert max(errors.values()) < 1e-4, errors


# ------------------------------------------------------------------- training


def _batch(draw, b: int, t_len: int, n_tokens: int, cond_dim: int):
    """A (b, t_len) id batch shaped like train_generator's: BOS, tokens, EOS, PAD;
    its longest row fills all t_len columns."""
    lengths = np.array(draw(st.lists(st.integers(2, t_len), min_size=b, max_size=b)))
    lengths[draw(st.integers(0, b - 1))] = t_len
    ids = np.full((b, t_len), PAD_ID, dtype=np.int64)
    for r, n in enumerate(lengths.tolist()):
        ids[r, 0] = BOS_ID
        ids[r, 1:n - 1] = draw(st.lists(st.integers(4, n_tokens - 1), min_size=n - 2,
                                        max_size=n - 2))
        ids[r, n - 1] = EOS_ID
    cond = None
    if cond_dim:
        cond = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=5, max_size=5),
                                      min_size=b, max_size=b)), dtype=np.float64)
    return ids, lengths, cond


@given(data=st.data(), cond_dim=st.sampled_from([5, 0]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_reused_workspace_matches_a_fresh_one_batch_by_batch(data, cond_dim) -> None:
    """Batches of any shape run through one workspace, as train_generator runs
    them, give the loss and gradients of the same batch in a fresh workspace,
    byte for byte. The workspace starts as NaN, so a row block a batch reads
    before writing shows up in the first batch already."""
    batch_size, max_t = 5, 9
    model = make_model(n_tokens=9, k=3, h=4, cond=cond_dim, max_len=max_t, seed=71)
    ws = _Workspace(model, (max_t - 1) * batch_size)
    for buf in (ws.xh, ws.h, ws.gates, ws.c, ws.tanh_c, ws.logits):
        buf.fill(np.nan)
    short_t = data.draw(st.integers(2, max_t - 1))
    shapes = [(batch_size, max_t), (batch_size, short_t),
              *data.draw(st.lists(st.tuples(st.integers(1, batch_size), st.integers(2, max_t)),
                                  max_size=3)),
              (data.draw(st.integers(1, batch_size - 1)), data.draw(st.integers(2, max_t)))]
    params = model.params
    for b, t_len in shapes:
        ids, lengths, cond = _batch(data.draw, b, t_len, len(model.vocab), cond_dim)
        results = []
        for workspace in (ws, batch_workspace(model, ids)):
            zero_grads(model)
            loss, n_tokens = _train_batch(model, ids, lengths, cond, workspace)
            results.append((loss, n_tokens, [p.grad.tobytes() for p in params]))
        assert results[0] == results[1], (b, t_len)
        for p in params:  # the next batch sees other weights, as after an update
            p.value += 0.01 * np.sign(p.grad)


def test_training_smoke_and_loss_finite(tmp_path) -> None:
    rng = Rng(61)
    docs = random_labeled_docs(10, ["a", "b", "c"], rng, length=4)
    config = LstmConfig(embed_dim=4, hidden_dim=5, cond_dim=5, max_len=8, epochs=1, batch_size=4)
    model, losses = train_generator(docs, config, Rng(62))
    assert len(losses) == 1
    assert math.isfinite(losses[0])
    path = tmp_path / "lstm.json"
    model.save(path)
    loaded = load_model(path, LstmModel)
    ids, _ = encode([["a", "b"]], model.vocab, 8)
    cond = cond_row(all_high())
    assert (forward(model, ids, cond) == forward(loaded, ids, cond)).all()


def test_training_is_deterministic(tmp_path) -> None:
    rng = Rng(63)
    docs = random_labeled_docs(12, ["a", "b"], rng, length=4)
    config = LstmConfig(embed_dim=3, hidden_dim=4, cond_dim=5, max_len=8, epochs=2, batch_size=4)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    train_generator(docs, config, Rng(64))[0].save(p1)
    train_generator(docs, config, Rng(64))[0].save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_conditional_training_requires_labels() -> None:
    docs = [Document("a b", ["a", "b"]) for _ in range(5)]
    config = LstmConfig(cond_dim=5, epochs=1)
    with pytest.raises(TraitgenError, match="document 0 has no trait labels"):
        train_generator(docs, config, Rng(0))


def test_unconditional_training_ignores_labels() -> None:
    docs = [Document("a b", ["a", "b"]) for _ in range(6)]
    config = LstmConfig(embed_dim=3, hidden_dim=3, cond_dim=0, max_len=6, epochs=1, batch_size=3)
    model, losses = train_generator(docs, config, Rng(1))
    assert model.config.cond_dim == 0 and len(losses) == 1


def test_empty_corpus_rejected() -> None:
    with pytest.raises(TraitgenError, match="cannot train a generator on an empty corpus"):
        train_generator([], LstmConfig(), Rng(0))


# ------------------------------------------------------------------- decoding


def forced_token_model(token: str = "w1", n_tokens: int = 4) -> LstmModel:
    """A model whose output layer always points at one token."""
    model = make_model(n_tokens=n_tokens, cond=0, max_len=10, seed=67)
    model.out_w.value[:] = 0.0
    model.out_b.value[:] = 0.0
    model.out_b.value[0, model.vocab.id_of(token)] = 50.0
    return model


def test_forced_repetition_stops_and_trims_to_two_copies() -> None:
    model = forced_token_model("w1")
    out = generate(model, None, ["w0"], streams_of(3, 1))[0]
    assert out == ["w0", "w1", "w1"]


def test_seed_equal_to_forced_token_still_obeys_run_limit() -> None:
    model = forced_token_model("w1")
    out = generate(model, None, ["w1"], streams_of(3, 1))[0]
    assert out == ["w1", "w1"]


def rescan_run_length(tokens: list[int]) -> int:
    """Length of the trailing run of equal tokens, by a full rescan."""
    run = 1
    while run < len(tokens) and tokens[-run - 1] == tokens[-1]:
        run += 1
    return run


def rescan_repeated_tail(tokens: list[int], n: int) -> bool:
    """Whether the trailing n-gram occurs earlier (overlaps allowed), by a full rescan."""
    tail = tokens[-n:]
    return len(tokens) > n and any(tokens[s:s + n] == tail for s in range(len(tokens) - n))


def check_row_against_rescan(tokens: list[int]) -> None:
    """Append tokens[1:] one at a time to a row seeded with tokens[0]; after
    every append the array rules must stop and trim exactly where the
    rescans say."""
    ids = np.empty((1, len(tokens)), dtype=np.int64)
    ids[0, 0] = tokens[0]
    run = np.ones(1, dtype=np.int64)
    for n in range(1, len(tokens)):
        full = tokens[:n + 1]
        run, length = _append(ids, n, run, np.array([tokens[n]]))
        assert ids[0, :n + 1].tolist() == full
        assert run.tolist() == [rescan_run_length(full)]
        if rescan_run_length(full) >= RUN_LIMIT:
            assert length.tolist() == [len(full) - 1]
            return
        if rescan_repeated_tail(full, NGRAM_WINDOW):
            assert length.tolist() == [len(full) - NGRAM_WINDOW]
            return
        assert length.tolist() == [len(full)]


def test_rescan_references_keep_the_old_examples() -> None:
    assert not rescan_repeated_tail([1, 2, 3, 4], 4)
    assert not rescan_repeated_tail([1, 2, 3, 4, 5], 4)
    assert rescan_repeated_tail([1, 2, 3, 4, 1, 2, 3, 4], 4)
    assert rescan_repeated_tail([9, 1, 2, 1, 2, 1, 2], 4)  # overlapping repeat
    assert not rescan_repeated_tail([1, 2, 3, 4, 1, 2, 3, 5], 4)
    assert rescan_run_length([1]) == 1
    assert rescan_run_length([1, 2, 2]) == 2
    assert rescan_run_length([2, 2, 2]) == 3
    assert rescan_run_length([2, 2, 3]) == 1


@given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None, derandomize=True)
@example([1, 2, 3, 4])
@example([1, 2, 3, 4, 5])
@example([1, 2, 3, 4, 1, 2, 3, 4])
@example([9, 1, 2, 1, 2, 1, 2])  # overlapping repeat
@example([1, 2, 3, 4, 1, 2, 3, 5])
def test_repeated_ngram_detector(tokens: list[int]) -> None:
    check_row_against_rescan(tokens)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None, derandomize=True)
@example([1])
@example([1, 2, 2])
@example([2, 2, 2])
@example([2, 2, 3])
def test_trailing_run_length(tokens: list[int]) -> None:
    check_row_against_rescan(tokens)


def reference_decode(model: LstmModel, condition: tuple[int, ...] | None, seed_pool: list[str],
                     rng: Rng, temperature: float, max_len: int) -> tuple[list[int], str]:
    """The one-row decoding loop: (token ids, stop reason).

    Every step is a one-row cell call and a one-row softmax searched with
    ``searchsorted``, and the repetition rules rescan the whole output.
    """
    cfg = model.config
    emb = model.embedding.value
    allowed = np.array([i for i in range(len(model.vocab)) if i not in (PAD_ID, UNK_ID, BOS_ID)])
    seed_id = model.vocab.id_of(seed_pool[rng.randint(len(seed_pool))])
    h = np.zeros((1, cfg.hidden_dim))
    c = np.zeros_like(h)

    def feed(token_id: int) -> None:
        nonlocal h, c
        x = [emb[token_id][None, :]]
        if condition is not None:
            x.append(np.array([condition], dtype=np.float64))
        h, c = cell(model, np.concatenate(x + [h], axis=1), c)

    feed(BOS_ID)
    feed(seed_id)
    out = [seed_id]
    while len(out) < max_len:
        logits = (h @ model.out_w.value + model.out_b.value)[0, allowed]
        if temperature < GREEDY_TEMPERATURE:
            next_id = int(allowed[np.argmax(logits)])
        else:
            scaled = logits / temperature
            scaled -= scaled.max()
            probs = np.exp(scaled)
            probs /= probs.sum()
            pick = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
            next_id = int(allowed[min(pick, len(allowed) - 1)])
        if next_id == EOS_ID:
            return out, "eos"
        out.append(next_id)
        if rescan_run_length(out) >= RUN_LIMIT:
            return out[:-1], "run"
        if rescan_repeated_tail(out, NGRAM_WINDOW):
            return out[:-NGRAM_WINDOW], "ngram"
        feed(next_id)
    return out, "max_len"


@pytest.mark.parametrize("max_len", [1, 2, 3, 16])
@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("cond_dim", [5, 0])
def test_batched_decoding_matches_scalar_reference_at_any_batch_size(
        cond_dim: int, temperature: float, max_len: int) -> None:
    """Row r gives the reference loop's tokens on stream ``spawn(r)``,
    whatever the batch it is decoded in."""
    model = make_model(n_tokens=10, k=4, h=6, cond=cond_dim, max_len=16, seed=211 + cond_dim)
    pool = ["w0", "w3", "w7", "w9"]
    n = 500
    conditions = [bits_of(r) if cond_dim else None for r in range(n)]
    ref = [reference_decode(model, cond, pool, Rng(977).spawn(r), temperature, max_len)
           for r, cond in enumerate(conditions)]
    expected = [[model.vocab.token_of(i) for i in ids] for ids, _ in ref]
    if temperature > 0 and max_len == 16:  # every stop rule is exercised
        assert {reason for _, reason in ref} == {"eos", "run", "ngram", "max_len"}
    for batch in (1, 7, 64, 65, 500):
        got = []
        for s in range(0, n, batch):
            batch_rows = range(s, min(s + batch, n))
            cond = cond_row(*(conditions[r] for r in batch_rows)) if cond_dim else None
            got += generate(model, cond, pool,
                            Lockstep.spawned(Rng(977), s, len(batch_rows)),
                            temperature=temperature, max_len=max_len)
        assert got == expected, f"batch size {batch}"


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_one_chunk_of_staggered_stops_matches_the_reference(data) -> None:
    """Many rows of one chunk stop at different steps by every rule (EOS,
    a run, a repeated n-gram, max_len) and leave the batch as they stop;
    each row keeps the tokens of the one-row reference loop."""
    max_len = data.draw(st.integers(10, 14), label="max_len")
    model = make_model(n_tokens=3, k=3, h=5, cond=5, max_len=max_len,
                       seed=data.draw(st.integers(0, 2 ** 16), label="model_seed"))
    # a lower end-marker bias lets the other rules fire too
    model.out_b.value[0, EOS_ID] = data.draw(st.sampled_from([-1.5, -2.0, -2.5]), label="eos_bias")
    n = data.draw(st.integers(100, DECODE_CHUNK), label="rows")
    temperature = data.draw(st.sampled_from([0.9, 1.0, 1.2]), label="temperature")
    stream_seed = data.draw(st.integers(0, 2 ** 16), label="stream_seed")
    pool = ["w0", "w1", "w2"]
    conditions = [bits_of(r) for r in range(n)]
    ref = [reference_decode(model, cond, pool, Rng(stream_seed).spawn(r), temperature, max_len)
           for r, cond in enumerate(conditions)]
    assert {reason for _, reason in ref} == {"eos", "run", "ngram", "max_len"}
    assert len({len(ids) for ids, _ in ref}) > 2
    got = generate(model, cond_row(*conditions), pool, streams_of(stream_seed, n),
                   temperature=temperature, max_len=max_len)
    assert got == [[model.vocab.token_of(i) for i in ids] for ids, _ in ref]


def test_texts_do_not_depend_on_the_chunk_size(monkeypatch) -> None:
    """At the real dimensions (k = 32, H = 128, V about 400) the logits of a
    row change in their last bits with the live-row count of the output
    GEMM, yet the texts of 330 rows at temperature 0.7 are the same in
    chunks of 64 rows, of the default cap and of all rows at once."""
    vocab = tiny_vocab(400)
    config = LstmConfig(embed_dim=32, hidden_dim=128, cond_dim=5, max_len=40)
    model = LstmModel.init(config, vocab, Rng(227))
    model.out_w.value *= 3.0  # sharper than at init: rows stop at many steps, so the
    # live-row count of the output GEMM keeps changing
    n = 330
    pool = [f"w{i}" for i in range(0, 400, 23)]
    cond = cond_row(*map(bits_of, range(n)))
    texts = {}
    for cap in (64, DECODE_CHUNK, n):
        monkeypatch.setattr(traitgen.generator, "DECODE_CHUNK", cap)
        texts[cap] = generate(model, cond, pool, streams_of(229, n), temperature=0.7)
    assert texts[64] == texts[DECODE_CHUNK] == texts[n]
    assert len({len(t) for t in texts[n]}) > 5


def test_a_huge_max_len_costs_only_the_ids_decoded() -> None:
    """Rows that stop at the end marker decode as under any max_len, and
    the id array grows with the texts, not with max_len: at max_len 1e9 a
    chunk's rows, some longer than ID_COLUMNS, take well under 4 MiB."""
    model = make_model(n_tokens=200, k=4, h=8, cond=5, seed=233)
    model.out_b.value[0, EOS_ID] = 1.6  # about one end marker in 40 draws
    pool = ["w0", "w3", "w7", "w9"]
    n, max_len = DECODE_CHUNK, 10 ** 9
    conditions = [bits_of(r) for r in range(n)]
    ref = [reference_decode(model, cond, pool, Rng(239).spawn(r), 1.0, max_len)
           for r, cond in enumerate(conditions)]
    assert max(len(ids) for ids, _ in ref) > 2 * ID_COLUMNS
    tracemalloc.start()
    try:
        got = generate(model, cond_row(*conditions), pool, streams_of(239, n),
                       temperature=1.0, max_len=max_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [[model.vocab.token_of(i) for i in ids] for ids, _ in ref]
    assert peak < 4 * 2 ** 20


def test_sampleable_ids_are_the_range_from_eos() -> None:
    """_decode_chunk samples the ids [EOS_ID, V): PAD, UNK and BOS come first."""
    assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)
    assert SPECIAL_TOKENS[EOS_ID] == "</s>"
    assert tiny_vocab(5).to_list()[:EOS_ID + 1] == list(SPECIAL_TOKENS)


@pytest.mark.parametrize("n", [63, 64, 65, 129, 500, 151, 301, 600])
@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_two_thread_decoding_equals_the_serial_chunk_loop(n: int, temperature: float) -> None:
    """generate's texts are those of _decode_chunk called chunk by chunk on
    one thread, however the threads interleave."""
    model = make_model(n_tokens=30, k=8, h=32, cond=5, max_len=16, seed=223)
    pool = ["w0", "w3", "w7", "w9"]
    cond = cond_row(*map(bits_of, range(n)))
    serial = streams_of(991, n)
    seed_ids = [model.vocab.id_of(pool[i]) for i in serial.randint(len(pool)).tolist()]
    expected = []
    for start in range(0, n, DECODE_CHUNK):
        chunk = slice(start, start + DECODE_CHUNK)
        expected += [[model.vocab.token_of(i) for i in ids]
                     for ids in _decode_chunk(model, cond[chunk], seed_ids[chunk],
                                              Lockstep(serial.state[:, chunk].copy()),
                                              temperature, 16)]
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shuffle the chunks between them
    try:
        got = generate(model, cond, pool, streams_of(991, n), temperature=temperature)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before
    assert got == expected


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_chunk_raises_in_the_caller_and_leaves_no_thread(
        monkeypatch, failing: int) -> None:
    model = make_model(cond=0, max_len=8)
    n = 3 * DECODE_CHUNK
    # a chunk is known by its first stream's state after the seed-word draw
    firsts = streams_of(5, n)
    firsts.randint(1)
    failing_first = firsts.state[:, failing * DECODE_CHUNK].tolist()
    error = RuntimeError(f"chunk {failing} failed")
    decode = traitgen.generator._decode_chunk

    def flaky(model, cond, seed_ids, chunk_streams, *args):
        if chunk_streams.state[:, 0].tolist() == failing_first:
            raise error
        return decode(model, cond, seed_ids, chunk_streams, *args)

    monkeypatch.setattr(traitgen.generator, "_decode_chunk", flaky)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        generate(model, None, ["w0"], streams_of(5, n))
    assert caught.value is error
    assert threading.active_count() == threads_before


def test_generate_rows_must_match_streams_and_model() -> None:
    model = make_model(cond=5)
    with pytest.raises(TraitgenError, match=r"condition array of shape \(1, 5\) for 2 streams"):
        generate(model, cond_row(all_high()), ["w0"], streams_of(0, 2))
    with pytest.raises(TraitgenError, match=r"condition array of shape \(2, 4\) for 2 streams"):
        generate(model, cond_row(all_high(), all_high())[:, :4], ["w0"], streams_of(0, 2))
    with pytest.raises(TraitgenError, match="this model is conditional"):
        generate(model, None, ["w0"], streams_of(0, 2))
    assert generate(model, np.zeros((0, 5)), ["w0"], streams_of(0, 0)) == []


def test_generation_respects_contract_over_many_samples() -> None:
    model = make_model(n_tokens=6, k=4, h=6, cond=5, max_len=12, seed=71)
    pool = ["w0", "w3"]
    specials = {"<pad>", "<s>", "<unk>"}
    outs = generate(model, cond_row(*[all_high()] * 300), pool, streams_of(1000, 300),
                    temperature=1.0)
    for out in outs:
        assert 1 <= len(out) <= 12
        assert not specials & set(out)
        assert "</s>" not in out
        for j in range(len(out) - 2):
            assert not (out[j] == out[j + 1] == out[j + 2])


def test_generation_deterministic_given_seed() -> None:
    model = make_model(n_tokens=8, cond=5, seed=73)
    pool = ["w0", "w1", "w2"]
    a = generate(model, cond_row(all_high()), pool, streams_of(42, 1), temperature=0.9)[0]
    b = generate(model, cond_row(all_high()), pool, streams_of(42, 1), temperature=0.9)[0]
    assert a == b


def test_greedy_mode_deterministic_per_seed_word() -> None:
    model = make_model(n_tokens=8, cond=0, seed=79)
    outs = {tuple(out) for out in generate(model, None, ["w5"], streams_of(1, 4),
                                           temperature=0.0)}
    assert len(outs) == 1


def test_max_len_cap() -> None:
    model = make_model(n_tokens=8, cond=0, seed=83)
    out = generate(model, None, ["w0"], streams_of(5, 1), temperature=1.0, max_len=3)[0]
    assert len(out) <= 3


def test_seed_pool_errors() -> None:
    model = make_model(cond=0)
    with pytest.raises(TraitgenError, match="seed pool is empty"):
        generate(model, None, [], streams_of(0, 1))
    with pytest.raises(TraitgenError, match="seed tokens not in vocabulary"):
        generate(model, None, ["nope"], streams_of(0, 1))


def test_greedy_decoding_agrees_with_teacher_forcing() -> None:
    """Each greedy token after the seed word is the argmax, over the
    sampleable ids, of the teacher-forced logits on the prefix before it."""
    checked = 0
    for model_seed in (101, 102, 103, 104, 105):
        model = make_model(n_tokens=12, k=4, h=8, cond=5, max_len=16, seed=model_seed)
        sampleable = np.array([i for i in range(len(model.vocab))
                               if i not in (PAD_ID, UNK_ID, BOS_ID)])
        cond = bits_of(model_seed)
        for seed_word in ("w0", "w5", "w11"):
            out = generate(model, cond_row(cond), [seed_word], streams_of(model_seed, 1),
                           temperature=0.0)[0]
            ids, _ = encode([out], model.vocab, len(out) + 2)
            logits = forward(model, ids, cond_row(cond))
            for j in range(1, len(out)):  # row j has read BOS and out[:j]
                best = int(sampleable[np.argmax(logits[j, sampleable])])
                assert model.vocab.token_of(best) == out[j]
                checked += 1
    assert checked >= 30


def test_generate_condition_arity() -> None:
    cond_model = make_model(cond=5)
    with pytest.raises(TraitgenError, match="this model is conditional"):
        generate(cond_model, None, ["w0"], streams_of(0, 1))
    with pytest.raises(TraitgenError, match="this model is unconditional"):
        generate(make_model(cond=0), cond_row(all_high()), ["w0"], streams_of(0, 1))
