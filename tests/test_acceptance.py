"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible
with ``pytest -s``). The expensive pipeline pieces (corpus synthesis,
three model trainings, the 500-per-condition evaluation) are
session-scoped fixtures shared across criteria; their wall times feed
the runtime budgets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from traitgen.classifier import (
    CnnConfig,
    CnnModel,
    classifier_forward,
    label_corpus,
    train_classifier,
    _backward as cnn_backward,
    _forward as cnn_forward,
)
from traitgen.checkpoint import load_model
from traitgen.classifier import classifier_loss
from traitgen.cli import main as cli_main
from traitgen.generator import (
    LstmConfig,
    LstmModel,
    generate,
    train_generator,
    _forward,
    _train_batch,
)
from traitgen.harness import (
    EVAL_TEMPERATURE,
    default_synth_spec,
    evaluate_generation,
    synth_corpus,
)
from traitgen.lexicon import (
    calibrate_thresholds,
    lexicon_from_dict,
    scores_by_trait,
    trait_scores,
)
from traitgen.numeric import Lockstep, Matrix, Rng, masked_cross_entropy
from traitgen.numeric.gradcheck import gradient_check
from traitgen.textproc import Vocabulary, encode, read_corpus
from traitgen.traits import HIGH, LOW, TRAITS

from lstm_helpers import batch_workspace

pytestmark = pytest.mark.acceptance


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


@dataclass
class Timed:
    value: object
    seconds: float


def timed(fn) -> Timed:
    start = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - start)


# ------------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def spec():
    return default_synth_spec()


@pytest.fixture(scope="session")
def classifier_corpus(spec):
    docs, lexicon = synth_corpus(spec, 4000, Rng(42))
    return docs, lexicon


@pytest.fixture(scope="session")
def trained_classifier(classifier_corpus) -> Timed:
    docs, _ = classifier_corpus
    return timed(lambda: train_classifier(docs, CnnConfig(), Rng(42)))


@pytest.fixture(scope="session")
def generator_corpus(spec):
    docs, lexicon = synth_corpus(spec, 6000, Rng(43))
    return docs, lexicon


@pytest.fixture(scope="session")
def trained_conditional(generator_corpus) -> Timed:
    docs, _ = generator_corpus
    return timed(lambda: train_generator(docs, LstmConfig(cond_dim=5), Rng(44)))


@pytest.fixture(scope="session")
def trained_baseline(generator_corpus) -> Timed:
    docs, _ = generator_corpus
    return timed(lambda: train_generator(docs, LstmConfig(cond_dim=0), Rng(45)))


@pytest.fixture(scope="session")
def thresholds(generator_corpus):
    docs, lexicon = generator_corpus
    return calibrate_thresholds(scores_by_trait((d.tokens for d in docs), lexicon))


@pytest.fixture(scope="session")
def eval_report(spec, generator_corpus, trained_conditional, trained_baseline,
                thresholds) -> Timed:
    _, lexicon = generator_corpus
    pool = spec.neutral_tokens[:50]
    return timed(lambda: evaluate_generation(
        trained_conditional.value[0], trained_baseline.value[0],
        lexicon, thresholds, 500, pool, Rng(46), temperature=EVAL_TEMPERATURE,
    ))


# -------------------------------------------------- 1. gradient integrity


def test_criterion_1_gradient_integrity():
    start = time.perf_counter()

    vocab = Vocabulary.build([[f"w{i}" for i in range(16)]] * 2)  # V = 20
    assert len(vocab) == 20

    cnn = CnnModel.init(
        CnnConfig(embed_dim=4, window=3, num_filters=3, max_len=12), vocab, Rng(7),
    )
    rng = Rng(8)
    docs = [[f"w{rng.randint(16)}" for _ in range(rng.randint(6) + 4)] for _ in range(3)]
    cnn_ids, cnn_lengths = encode(docs, vocab, 12)
    labels = [[rng.coin() for _ in range(5)] for _ in range(3)]

    def cnn_loss() -> float:
        probs = classifier_forward(docs, cnn)
        return sum(classifier_loss(p, y) for p, y in zip(probs, labels)) / len(docs)

    def cnn_grad() -> float:
        probs, cache = cnn_forward(cnn, cnn_ids, cnn_lengths)
        cnn_backward(cnn, probs, cache, np.array(labels, dtype=np.float64), 1.0 / len(docs))
        return cnn_loss()

    cnn_worst = max(gradient_check(cnn_loss, cnn_grad, cnn, h=1e-5).values())

    lstm = LstmModel.init(
        LstmConfig(embed_dim=4, hidden_dim=5, cond_dim=5, max_len=4), vocab, Rng(9),
    )
    ids = np.array([[2, 5, 9, 3], [2, 11, 3, 0]], dtype=np.int64)  # 3 timesteps
    mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
    lengths = np.array([4, 3])
    cond = np.array([[1, 0, 1, 0, 1], [0, 1, 1, 0, 0]], dtype=np.float64)

    def lstm_loss() -> float:
        logits = _forward(lstm, ids, cond, batch_workspace(lstm, ids))
        loss, _ = masked_cross_entropy(
            Matrix(logits), ids[:, 1:].T.reshape(-1), mask[:, 1:].T.reshape(-1)
        )
        return loss

    def lstm_grad() -> float:
        loss, _ = _train_batch(lstm, ids, lengths, cond, batch_workspace(lstm, ids))
        return loss

    lstm_worst = max(gradient_check(lstm_loss, lstm_grad, lstm, h=1e-5).values())

    elapsed = time.perf_counter() - start
    worst = max(cnn_worst, lstm_worst)
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, "gradient integrity", ok,
           f"cnn worst {cnn_worst:.2e}, lstm worst {lstm_worst:.2e}, "
           f"tolerance 1e-4, {elapsed:.1f}s < 60s")
    assert worst < 1e-4


# ------------------------------------------- 2. classifier accuracy analogue


def test_criterion_2_classifier_validation_accuracy(trained_classifier):
    _, metrics = trained_classifier.value
    accs = metrics["best_accuracy"]
    ok_acc = all(accs[t] >= 0.90 for t in TRAITS)
    ok_time = trained_classifier.seconds <= 300.0
    ok_epochs = metrics["best_epoch"] <= 10
    report(2, "classifier validation accuracy", ok_acc and ok_time and ok_epochs,
           "per-trait " + " ".join(f"{t}={accs[t]:.4f}" for t in TRAITS)
           + f" (all >= 0.90), best epoch {metrics['best_epoch']} <= 10, "
           f"{trained_classifier.seconds:.0f}s <= 300s")


# ------------------------------------------------- 3. auto-labeling fidelity


def test_criterion_3_autolabel_fidelity(spec, trained_classifier):
    fresh_docs, _ = synth_corpus(spec, 2000, Rng(1042))
    labeled = label_corpus(fresh_docs, trained_classifier.value[0])
    agreement = {t: 0 for t in TRAITS}
    for truth, predicted in zip(fresh_docs, labeled):
        for t in TRAITS:
            agreement[t] += int(truth.labels[t] == predicted.labels[t])
    rates = {t: agreement[t] / len(fresh_docs) for t in TRAITS}
    ok = all(rates[t] >= 0.90 for t in TRAITS)
    report(3, "auto-labeling fidelity", ok,
           "agreement " + " ".join(f"{t}={rates[t]:.4f}" for t in TRAITS)
           + " (all >= 0.90 on 2000 fresh docs)")


# -------------------------------------------- 4. generator controllability


def test_criterion_4_generator_controllability(trained_conditional, trained_baseline,
                                               eval_report):
    rep, _ = eval_report.value
    per_dim = {t: rep["dimensions"][t]["accuracy"] for t in TRAITS}
    average = rep["average_accuracy"]
    gaps = {}
    for t in TRAITS:
        uncond = rep["dimensions"][t]["unconditional"]
        consistent = per_dim[t]
        uncond_corresponding = (uncond[LOW] + uncond[HIGH]) / 2.0
        gaps[t] = consistent - uncond_corresponding
    n_clear = sum(1 for t in TRAITS if gaps[t] >= 0.25)
    total_time = (trained_conditional.seconds + trained_baseline.seconds
                  + eval_report.seconds)
    ok = average >= 0.70 and n_clear >= 4 and total_time <= 1200.0
    report(4, "generator controllability", ok,
           f"average accuracy {average:.4f} >= 0.70; "
           + " ".join(f"{t}:acc={per_dim[t]:.3f},gap={gaps[t]:+.3f}" for t in TRAITS)
           + f"; {n_clear}/5 dims with gap >= 0.25; "
           f"runtime {total_time:.0f}s <= 1200s")


# ------------------------------------------------------ 5. training dynamics


def test_criterion_5_training_dynamics(generator_corpus, trained_conditional):
    model, losses = trained_conditional.value
    ratio = losses[-1] / losses[0]
    ok_ratio = ratio < 0.9

    docs, _ = generator_corpus
    sample = docs[:200]
    vocab = model.vocab
    untrained = LstmModel.init(
        LstmConfig(cond_dim=5), vocab, Rng(777)
    )
    ids, lengths = encode([doc.tokens for doc in sample], vocab, untrained.config.max_len)
    ids = ids[:, :lengths.max()]
    cond = np.array([[doc.labels[t] for t in TRAITS] for doc in sample], dtype=np.float64)
    mask = np.arange(1, ids.shape[1])[:, None] < lengths  # time-major, as the logits
    logits = _forward(untrained, ids, cond, batch_workspace(untrained, ids))
    mean_ce, _ = masked_cross_entropy(Matrix(logits),
                                      ids[:, 1:].T.reshape(-1), mask.reshape(-1))
    ln_v = math.log(len(vocab))
    ok_untrained = abs(mean_ce - ln_v) / ln_v < 0.02
    report(5, "training dynamics", ok_ratio and ok_untrained,
           f"final/first epoch loss {losses[-1]:.4f}/{losses[0]:.4f} = {ratio:.4f} < 0.9; "
           f"untrained CE {mean_ce:.4f} vs ln V {ln_v:.4f} "
           f"(rel {abs(mean_ce - ln_v) / ln_v:.4f} < 0.02)")


# ------------------------------------------------------- 6. decoding contract


def test_criterion_6_decoding_contract():
    vocab = Vocabulary.build([[f"w{i}" for i in range(30)]] * 2)
    model = LstmModel.init(
        LstmConfig(embed_dim=6, hidden_dim=8, cond_dim=5, max_len=16),
        vocab, Rng(505),
    )
    pool = ["w0", "w1", "w2", "w3"]
    specials = {"<pad>", "<s>", "<unk>", "</s>"}
    max_len = 16
    condition = (1, 0, 1, 0, 1)
    violations = 0
    rng = Rng(606)
    outs = generate(model, np.tile(condition, (10000, 1)), pool,
                    Lockstep.spawned(rng, 0, 10000), temperature=1.0, max_len=max_len)
    for out in outs:
        if specials & set(out):
            violations += 1
        elif len(out) > max_len:
            violations += 1
        elif any(out[j] == out[j + 1] == out[j + 2] for j in range(len(out) - 2)):
            violations += 1

    greedy_runs = {
        tuple(out) for out in generate(model, np.tile(condition, (3, 1)), ["w7"],
                                       Lockstep.spawned(rng, 10000, 3), temperature=0.0,
                                       max_len=max_len)
    }
    ok = violations == 0 and len(greedy_runs) == 1
    report(6, "decoding contract", ok,
           f"{violations} violations in 10000 samples "
           f"(specials / triple runs / length); greedy deterministic per seed word: "
           f"{len(greedy_runs) == 1}")


# --------------------------------------- 7. determinism and persistence


def run_cli(*argv: str) -> int:
    return cli_main(list(argv))


def test_criterion_7_determinism_and_persistence(tmp_path, spec, trained_classifier,
                                                 trained_conditional):
    # (a) every CLI stage rerun with the same seed: primary outputs must be
    # byte-identical
    small = tmp_path / "spec.json"
    import dataclasses

    tiny_spec = dataclasses.replace(spec, len_min=8, len_max=12)
    tiny_spec.save(small)
    pool = tmp_path / "pool.txt"

    outputs: dict[str, list[bytes]] = {}
    for run_id in ("r1", "r2"):
        base = tmp_path / run_id
        data = base / "data"
        assert run_cli("synth", "--spec", str(small), "--n", "80", "--seed", "5",
                       "--out", str(data)) == 0
        if run_id == "r1":
            # seed pool: frequent neutral tokens, guaranteed to survive the
            # generator vocabulary's MIN_COUNT cut
            from collections import Counter

            counts = Counter(
                tok
                for doc in read_corpus(data / "corpus.jsonl")
                for tok in doc.tokens
                if tok in set(spec.neutral_tokens)
            )
            frequent = [tok for tok, c in counts.most_common(5)]
            pool.write_text("\n".join(frequent), encoding="utf-8")
        cls = base / "cls"
        assert run_cli("train-classifier", "--corpus", str(data / "corpus.jsonl"),
                       "--out", str(cls), "--epochs", "1", "--embed-dim", "8",
                       "--num-filters", "8", "--max-len", "16") == 0
        labeled = base / "labeled.jsonl"
        assert run_cli("label", "--model", str(cls / "classifier.json"),
                       "--in", str(data / "corpus.jsonl"), "--out", str(labeled)) == 0
        gen = base / "gen"
        assert run_cli("train-generator", "--corpus", str(labeled), "--out", str(gen),
                       "--epochs", "1", "--embed-dim", "8", "--hidden-dim", "8",
                       "--max-len", "16") == 0
        bas = base / "base"
        assert run_cli("train-generator", "--corpus", str(labeled), "--out", str(bas),
                       "--epochs", "1", "--embed-dim", "8", "--hidden-dim", "8",
                       "--max-len", "16", "--unconditional") == 0
        th = base / "thresholds.json"
        assert run_cli("calibrate", "--lexicon", str(data / "lexicon.json"),
                       "--in", str(data / "corpus.jsonl"), "--out", str(th)) == 0
        texts = base / "texts.jsonl"
        assert run_cli("generate", "--model", str(gen / "generator.json"),
                       "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "20",
                       "--seed-pool", str(pool), "--seed", "6",
                       "--out", str(texts)) == 0
        scored = base / "scored.jsonl"
        assert run_cli("score", "--lexicon", str(data / "lexicon.json"),
                       "--in", str(texts), "--thresholds", str(th),
                       "--out", str(scored)) == 0
        ev = base / "eval"
        assert run_cli("evaluate", "--model", str(gen / "generator.json"),
                       "--baseline", str(bas / "generator.json"),
                       "--lexicon", str(data / "lexicon.json"),
                       "--thresholds", str(th), "--n-per-condition", "4",
                       "--seed-pool", str(pool), "--seed", "7",
                       "--out", str(ev)) == 0
        for name, path in [
            ("corpus", data / "corpus.jsonl"), ("lexicon", data / "lexicon.json"),
            ("classifier", cls / "classifier.json"), ("metrics", cls / "metrics.json"),
            ("labeled", labeled), ("generator", gen / "generator.json"),
            ("losses", gen / "losses.json"), ("baseline", bas / "generator.json"),
            ("thresholds", th), ("texts", texts), ("scored", scored),
            ("report", ev / "report.json"), ("table", ev / "table.txt"),
            ("generations", ev / "generations.jsonl"),
        ]:
            outputs.setdefault(name, []).append(path.read_bytes())
    mismatched = [name for name, blobs in outputs.items() if blobs[0] != blobs[1]]

    # (b) checkpoint save/load round-trips reproduce forward outputs bit-exactly
    cnn = trained_classifier.value[0]
    cnn_path = tmp_path / "cnn.json"
    cnn.save(cnn_path)
    cnn_loaded = load_model(cnn_path, CnnModel)
    probe_tokens = [spec.neutral_tokens[i] for i in range(8)]
    cnn_probs = classifier_forward([probe_tokens], cnn).tolist()
    cnn_same = cnn_probs == classifier_forward([probe_tokens], cnn_loaded).tolist()

    lstm = trained_conditional.value[0]
    lstm_path = tmp_path / "lstm.json"
    lstm.save(lstm_path)
    lstm_loaded = load_model(lstm_path, LstmModel)
    probe_ids, _ = encode([probe_tokens], lstm.vocab, lstm.config.max_len)
    cond = np.array([(1, 1, 0, 0, 1)], dtype=np.float64)
    lstm_logits = [_forward(m, probe_ids, cond, batch_workspace(m, probe_ids))
                   for m in (lstm, lstm_loaded)]
    lstm_same = (lstm_logits[0] == lstm_logits[1]).all()

    ok = not mismatched and cnn_same and bool(lstm_same)
    report(7, "determinism and persistence", ok,
           f"byte-identical across reruns for {len(outputs)} outputs"
           + (f" (mismatched: {mismatched})" if mismatched else "")
           + f"; checkpoint forward round-trip bit-exact: cnn={cnn_same}, lstm={bool(lstm_same)}")


# ---------------------------------------------------- 8. lexicon correctness


def test_criterion_8_lexicon_correctness():
    lexicon = lexicon_from_dict({
        "trait_order": list(TRAITS),
        "categories": [
            {"name": "pos", "entries": ["good"]},
            {"name": "neg", "entries": ["bad"]},
        ],
        "weights": [[1, 0, 0, 0, 0], [-1, 0, 0, 0, 0]],
    })
    hand = trait_scores([0.5, 0.25], lexicon)
    ok_hand = hand == {"E": 0.25, "A": 0.0, "C": 0.0, "N": 0.0, "O": 0.0}

    rng = Rng(88)
    worst = 0.0
    for _ in range(100):
        f1 = [rng.random(), rng.random()]
        f2 = [rng.random(), rng.random()]
        alpha = rng.random()
        mixed = [alpha * a + (1 - alpha) * b for a, b in zip(f1, f2)]
        sm = trait_scores(mixed, lexicon)
        s1 = trait_scores(f1, lexicon)
        s2 = trait_scores(f2, lexicon)
        for t in TRAITS:
            worst = max(worst, abs(sm[t] - (alpha * s1[t] + (1 - alpha) * s2[t])))
    ok_linear = worst < 1e-12

    cuts = calibrate_thresholds({t: list(range(1, 10)) for t in TRAITS})
    ok_cuts = all(cuts.cuts[t] == (3.0, 6.0) for t in TRAITS)

    report(8, "lexicon correctness", ok_hand and ok_linear and ok_cuts,
           f"hand example E=0.25 exact: {ok_hand}; linearity worst dev {worst:.2e} < 1e-12 "
           f"over 100 trials; tertiles of 1..9 = (3, 6): {ok_cuts}")
