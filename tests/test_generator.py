from __future__ import annotations

import math

import numpy as np
import pytest

from traitgen.errors import (
    ConditionError,
    InsufficientDataError,
    MissingLabelError,
    SeedPoolError,
)
from traitgen.generator import (
    BfpCondition,
    GeneratorTrainResult,
    LstmConfig,
    LstmModel,
    generate,
    generator_forward,
    generator_loss,
    train_generator,
    _cell,
    _repeated_tail_ngram,
    _trailing_run_length,
    _train_batch,
    _unroll,
)
from traitgen.numeric import Matrix, Rng, gradient_check, masked_cross_entropy
from traitgen.textproc import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Document, Vocabulary, encode
from traitgen.traits import TRAITS


def tiny_vocab(n_tokens: int) -> Vocabulary:
    return Vocabulary.build([[f"w{i}" for i in range(n_tokens)]], min_count=1)


def make_model(n_tokens=4, k=3, h=3, cond=5, max_len=10, seed=2) -> LstmModel:
    vocab = tiny_vocab(n_tokens)
    config = LstmConfig(vocab_size=len(vocab), embed_dim=k, hidden_dim=h,
                        cond_dim=cond, max_len=max_len)
    return LstmModel.init(config, vocab, Rng(seed))


def all_high() -> BfpCondition:
    return BfpCondition(1, 1, 1, 1, 1)


def random_labeled_docs(n: int, tokens: list[str], rng: Rng, length=5) -> list[Document]:
    docs = []
    for _ in range(n):
        toks = [tokens[rng.randint(len(tokens))] for _ in range(length)]
        docs.append(Document(" ".join(toks), toks,
                             labels={t: rng.coin() for t in TRAITS}))
    return docs


# ------------------------------------------------------------------ condition


def test_condition_bits_and_string_roundtrip() -> None:
    cond = BfpCondition.parse("E=1,A=0,C=1,N=0,O=1")
    assert cond.bits == (1, 0, 1, 0, 1)
    assert BfpCondition.parse(cond.to_string()) == cond


def test_condition_parse_rejects_malformed() -> None:
    for bad in ("E=1", "E=1,A=0,C=1,N=0,O=2", "E=1,E=0,C=1,N=0,O=1",
                "X=1,A=0,C=1,N=0,O=1", "E:1,A=0,C=1,N=0,O=1"):
        with pytest.raises(ConditionError):
            BfpCondition.parse(bad)


def test_condition_rejects_non_binary() -> None:
    with pytest.raises(ConditionError):
        BfpCondition(2, 0, 0, 0, 0)


def test_condition_from_labels() -> None:
    labels = {"E": 1, "A": 0, "C": 0, "N": 1, "O": 0}
    assert BfpCondition.from_labels(labels).bits == (1, 0, 0, 1, 0)


# ----------------------------------------------------------------------- cell


def zeroed_model(**kw) -> LstmModel:
    model = make_model(**kw)
    model.gates_w.value.a[:] = 0.0
    model.gates_b.value.a[:] = 0.0
    return model


def sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def scalar_cell(model: LstmModel, xh: list[float],
                c_prev: list[float]) -> tuple[list[float], list[float]]:
    """The LSTM step written out one scalar at a time: (h, c) for one row."""
    w = model.gates_w.value.a
    b = model.gates_b.value.a[0]
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
    h, c, _ = _cell(model, xh, np.zeros((1, 3)))
    assert h.tolist() == [[0.0, 0.0, 0.0]]
    assert c.tolist() == [[0.0, 0.0, 0.0]]


def test_zero_weights_halve_cell_state() -> None:
    model = zeroed_model(h=3)
    width = model.config.embed_dim + model.config.cond_dim
    xh = np.array([[1.0] * width + [0.0] * 3])
    h, c, _ = _cell(model, xh, np.array([[0.4, -1.2, 2.0]]))
    assert c.tolist()[0] == pytest.approx([0.2, -0.6, 1.0])
    expected_h = [0.5 * math.tanh(v) for v in [0.2, -0.6, 1.0]]
    assert h.tolist()[0] == pytest.approx(expected_h)


def test_lstm_step_matches_scalar_hand_oracle() -> None:
    model = make_model(k=2, h=3, cond=0, seed=31)
    xh = [0.3, -0.8, 0.1, -0.2, 0.05]  # x = [0.3, -0.8], h_prev = [0.1, -0.2, 0.05]
    c0 = [0.4, 0.0, -0.6]
    h1, c1, _ = _cell(model, np.array([xh]), np.array([c0]))
    h_exp, c_exp = scalar_cell(model, xh, c0)
    assert c1[0].tolist() == pytest.approx(c_exp, abs=1e-12)
    assert h1[0].tolist() == pytest.approx(h_exp, abs=1e-12)


def test_hidden_state_magnitude_below_one() -> None:
    model = make_model(k=2, h=4, cond=0, seed=37)
    rng = Rng(38)
    h = np.zeros((1, 4))
    c = np.zeros((1, 4))
    for _ in range(50):
        x = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)]])
        h, c, _ = _cell(model, np.concatenate([x, h], axis=1), c)
        assert np.abs(h).max() < 1.0


# ----------------------------------------------------------- generator_forward


def test_forward_condition_arity_enforced() -> None:
    cond_model = make_model(cond=5)
    uncond_model = make_model(cond=0)
    enc = encode(["w0"], cond_model.vocab, 6)
    with pytest.raises(ConditionError):
        generator_forward(enc, None, cond_model)
    with pytest.raises(ConditionError):
        generator_forward(enc, all_high(), uncond_model)


def test_forward_matches_hand_unrolled_steps() -> None:
    model = make_model(n_tokens=4, k=3, h=3, cond=5, max_len=4, seed=41)
    enc = encode(["w0", "w2"], model.vocab, 4)  # ids: BOS w0 w2 EOS
    cond = BfpCondition(1, 0, 1, 0, 1)
    logits = generator_forward(enc, cond, model)
    assert logits.shape == (3, model.config.vocab_size)

    bits = list(map(float, cond.bits))
    w_o, b_o = model.out_w.value.a, model.out_b.value.a[0]
    h, c = [0.0] * 3, [0.0] * 3
    for t in range(3):
        emb = model.embedding.value.a[enc.ids[t]].tolist()
        h, c = scalar_cell(model, emb + bits + h, c)
        expected = [b_o[v] + sum(h[j] * w_o[j, v] for j in range(3))
                    for v in range(model.config.vocab_size)]
        assert np.abs(logits.a[t] - expected).max() < 1e-12


def test_zeroed_condition_rows_make_all_conditions_identical() -> None:
    model = make_model(n_tokens=5, k=3, h=4, cond=5, max_len=6, seed=43)
    k = model.config.embed_dim
    model.gates_w.value.a[k:k + 5, :] = 0.0  # rows that read the condition bits
    enc = encode(["w1", "w3"], model.vocab, 6)
    reference = None
    for bits in range(32):
        cond = BfpCondition(*( (bits >> i) & 1 for i in range(5) ))
        logits = generator_forward(enc, cond, model).a
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
        enc = encode(tokens, model.vocab, 12)
        logits = generator_forward(enc, None, model)
        total += generator_loss(logits, enc)
        count += 1
    mean = total / count
    assert abs(mean - math.log(model.config.vocab_size)) / math.log(
        model.config.vocab_size
    ) < 0.02


# ------------------------------------------------------------- generator_loss


def test_loss_zero_for_deterministic_correct_logits() -> None:
    model = make_model(n_tokens=3, max_len=5)
    enc = encode(["w0", "w1"], model.vocab, 5)
    v = model.config.vocab_size
    logits = np.zeros((4, v))
    for t in range(4):
        if enc.mask[t + 1]:
            logits[t, enc.ids[t + 1]] = 60.0
    assert generator_loss(Matrix(logits), enc) == pytest.approx(0.0, abs=1e-11)


def test_loss_uniform_logits_equals_log_vocab() -> None:
    model = make_model(n_tokens=3, max_len=5)
    enc = encode(["w0", "w1"], model.vocab, 5)
    logits = Matrix.zeros(4, model.config.vocab_size)
    assert generator_loss(logits, enc) == pytest.approx(
        math.log(model.config.vocab_size), abs=1e-12
    )


def test_loss_matches_hand_sum_on_three_token_toy() -> None:
    model = make_model(n_tokens=3, max_len=5, seed=53)
    enc = encode(["w0", "w1", "w2"], model.vocab, 5)
    logits = generator_forward(enc, all_high(), model)
    by_hand = 0.0
    for t in range(4):
        row = logits.a[t]
        z = sum(math.exp(v) for v in row)
        by_hand += -math.log(math.exp(row[enc.ids[t + 1]]) / z)
    assert generator_loss(logits, enc) == pytest.approx(by_hand / 4.0, abs=1e-12)


# ------------------------------------------------------------- gradient check


def test_gradient_check_three_timesteps() -> None:
    model = make_model(n_tokens=8, k=3, h=4, cond=5, max_len=4, seed=59)
    rng = Rng(60)
    ids = np.array([[BOS_ID, 5, 7, EOS_ID], [BOS_ID, 4, EOS_ID, PAD_ID]], dtype=np.int64)
    mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
    cond = np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=np.float64)
    params = model.params()

    def loss_fn() -> float:
        logits = _unroll(model, ids, cond)
        targets = ids[:, 1:].T.reshape(-1)
        mask_flat = mask[:, 1:].T.reshape(-1)
        loss, _ = masked_cross_entropy(Matrix._wrap(logits), targets, mask_flat)
        return loss

    def grad_fn() -> float:
        loss, _ = _train_batch(model, ids, mask, cond)
        return loss

    report = gradient_check(loss_fn, grad_fn, params, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


# ------------------------------------------------------------------- training


def test_training_smoke_and_loss_finite(tmp_path) -> None:
    rng = Rng(61)
    docs = random_labeled_docs(10, ["a", "b", "c"], rng, length=4)
    config = LstmConfig(vocab_size=0, embed_dim=4, hidden_dim=5, cond_dim=5,
                        max_len=8, epochs=1, batch_size=4)
    result = train_generator(docs, config, Rng(62))
    assert len(result.epoch_mean_losses) == 1
    assert math.isfinite(result.epoch_mean_losses[0])
    path = tmp_path / "lstm.json"
    result.model.save(path)
    loaded = LstmModel.load(path)
    enc = encode(["a", "b"], result.model.vocab, 8)
    cond = all_high()
    assert (generator_forward(enc, cond, result.model).a
            == generator_forward(enc, cond, loaded).a).all()


def test_training_is_deterministic(tmp_path) -> None:
    rng = Rng(63)
    docs = random_labeled_docs(12, ["a", "b"], rng, length=4)
    config = LstmConfig(vocab_size=0, embed_dim=3, hidden_dim=4, cond_dim=5,
                        max_len=8, epochs=2, batch_size=4)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    train_generator(docs, config, Rng(64)).model.save(p1)
    train_generator(docs, config, Rng(64)).model.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_conditional_training_requires_labels() -> None:
    docs = [Document("a b", ["a", "b"]) for _ in range(5)]
    config = LstmConfig(vocab_size=0, cond_dim=5, epochs=1)
    with pytest.raises(MissingLabelError):
        train_generator(docs, config, Rng(0))


def test_unconditional_training_ignores_labels() -> None:
    docs = [Document("a b", ["a", "b"]) for _ in range(6)]
    config = LstmConfig(vocab_size=0, embed_dim=3, hidden_dim=3, cond_dim=0,
                        max_len=6, epochs=1, batch_size=3)
    result = train_generator(docs, config, Rng(1))
    assert isinstance(result, GeneratorTrainResult)


def test_empty_corpus_rejected() -> None:
    with pytest.raises(InsufficientDataError):
        train_generator([], LstmConfig(vocab_size=0), Rng(0))


# ------------------------------------------------------------------- decoding


def forced_token_model(token: str = "w1", n_tokens: int = 4) -> LstmModel:
    """A model whose output layer always points at one token."""
    model = make_model(n_tokens=n_tokens, cond=0, max_len=10, seed=67)
    model.out_w.value.a[:] = 0.0
    model.out_b.value.a[:] = 0.0
    model.out_b.value.a[0, model.vocab.id_of(token)] = 50.0
    return model


def test_forced_repetition_stops_and_trims_to_two_copies() -> None:
    model = forced_token_model("w1")
    out = generate(model, None, ["w0"], Rng(3))
    assert out == ["w0", "w1", "w1"]


def test_seed_equal_to_forced_token_still_obeys_run_limit() -> None:
    model = forced_token_model("w1")
    out = generate(model, None, ["w1"], Rng(3))
    assert out == ["w1", "w1"]


def test_repeated_ngram_detector() -> None:
    assert not _repeated_tail_ngram([1, 2, 3, 4], 4)
    assert not _repeated_tail_ngram([1, 2, 3, 4, 5], 4)
    assert _repeated_tail_ngram([1, 2, 3, 4, 1, 2, 3, 4], 4)
    assert _repeated_tail_ngram([9, 1, 2, 1, 2, 1, 2], 4)  # overlapping repeat
    assert not _repeated_tail_ngram([1, 2, 3, 4, 1, 2, 3, 5], 4)


def test_trailing_run_length() -> None:
    assert _trailing_run_length([1]) == 1
    assert _trailing_run_length([1, 2, 2]) == 2
    assert _trailing_run_length([2, 2, 2]) == 3
    assert _trailing_run_length([2, 2, 3]) == 1


def test_generation_respects_contract_over_many_samples() -> None:
    model = make_model(n_tokens=6, k=4, h=6, cond=5, max_len=12, seed=71)
    pool = ["w0", "w3"]
    specials = {"<pad>", "<s>", "<unk>"}
    for i in range(300):
        out = generate(model, all_high(), pool, Rng(1000 + i), temperature=1.0)
        assert 1 <= len(out) <= 12
        assert not specials & set(out)
        assert "</s>" not in out
        for j in range(len(out) - 2):
            assert not (out[j] == out[j + 1] == out[j + 2])


def test_generation_deterministic_given_seed() -> None:
    model = make_model(n_tokens=8, cond=5, seed=73)
    pool = ["w0", "w1", "w2"]
    a = generate(model, all_high(), pool, Rng(42), temperature=0.9)
    b = generate(model, all_high(), pool, Rng(42), temperature=0.9)
    assert a == b


def test_greedy_mode_deterministic_per_seed_word() -> None:
    model = make_model(n_tokens=8, cond=0, seed=79)
    outs = {tuple(generate(model, None, ["w5"], Rng(seed), temperature=0.0))
            for seed in (1, 2, 3, 99)}
    assert len(outs) == 1


def test_max_len_cap() -> None:
    model = make_model(n_tokens=8, cond=0, seed=83)
    out = generate(model, None, ["w0"], Rng(5), temperature=1.0, max_len=3)
    assert len(out) <= 3


def test_seed_pool_errors() -> None:
    model = make_model(cond=0)
    with pytest.raises(SeedPoolError):
        generate(model, None, [], Rng(0))
    with pytest.raises(SeedPoolError):
        generate(model, None, ["nope"], Rng(0))


def test_greedy_decoding_agrees_with_teacher_forcing() -> None:
    """Each greedy token after the seed word is the argmax, over the
    sampleable ids, of the teacher-forced logits on the prefix before it."""
    checked = 0
    for model_seed in (101, 102, 103, 104, 105):
        model = make_model(n_tokens=12, k=4, h=8, cond=5, max_len=16, seed=model_seed)
        sampleable = np.array([i for i in range(model.config.vocab_size)
                               if i not in (PAD_ID, UNK_ID, BOS_ID)])
        cond = BfpCondition(*((model_seed >> i) & 1 for i in range(5)))
        for seed_word in ("w0", "w5", "w11"):
            out = generate(model, cond, [seed_word], Rng(model_seed), temperature=0.0)
            enc = encode(out, model.vocab, len(out) + 2)
            logits = generator_forward(enc, cond, model).a
            for j in range(1, len(out)):  # row j has read BOS and out[:j]
                best = int(sampleable[np.argmax(logits[j, sampleable])])
                assert model.vocab.token_of(best) == out[j]
                checked += 1
    assert checked >= 30


def test_generate_condition_arity() -> None:
    cond_model = make_model(cond=5)
    with pytest.raises(ConditionError):
        generate(cond_model, None, ["w0"], Rng(0))
