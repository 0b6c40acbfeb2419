from __future__ import annotations

import base64
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import traitgen
import traitgen.classifier
import traitgen.generator
from traitgen.checkpoint import FORMAT_VERSION, load_model
from traitgen.cli import COMMANDS, _resolve, build_parser, main
from traitgen.generator import LstmConfig, LstmModel
from traitgen.harness import MAX_DOC_TOKENS, SynthSpec, default_synth_spec
from traitgen.lexicon import load_thresholds
from traitgen.numeric import Rng, blas
from traitgen.textproc import Vocabulary, read_corpus
from traitgen.traits import TRAITS


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def small_spec_path(tmp_path_factory) -> Path:
    base = default_synth_spec()
    spec = SynthSpec(
        neutral_tokens=base.neutral_tokens[:40],
        markers=base.markers,
        pi=0.4,
        len_min=6,
        len_max=10,
    )
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    spec.save(path)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, small_spec_path) -> dict[str, Path]:
    """One tiny end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run("synth", "--spec", str(small_spec_path), "--n", "50", "--seed", "9",
               "--out", str(data)) == 0
    cls_dir = root / "cls"
    assert run("train-classifier", "--corpus", str(data / "corpus.jsonl"),
               "--out", str(cls_dir), "--epochs", "1", "--embed-dim", "6",
               "--num-filters", "4", "--max-len", "16") == 0
    gen_dir = root / "gen"
    assert run("train-generator", "--corpus", str(data / "corpus.jsonl"),
               "--out", str(gen_dir), "--epochs", "1", "--embed-dim", "6",
               "--hidden-dim", "6", "--max-len", "16") == 0
    base_dir = root / "base"
    assert run("train-generator", "--corpus", str(data / "corpus.jsonl"),
               "--out", str(base_dir), "--epochs", "1", "--embed-dim", "6",
               "--hidden-dim", "6", "--max-len", "16", "--unconditional") == 0
    thresholds = root / "thresholds.json"
    assert run("calibrate", "--lexicon", str(data / "lexicon.json"),
               "--in", str(data / "corpus.jsonl"), "--out", str(thresholds)) == 0
    pool = root / "pool.txt"
    pool.write_text("\n".join(f"w{i:03d}" for i in range(8)), encoding="utf-8")
    return {
        "root": root,
        "data": data,
        "classifier": cls_dir / "classifier.json",
        "generator": gen_dir / "generator.json",
        "baseline": base_dir / "generator.json",
        "lexicon": data / "lexicon.json",
        "corpus": data / "corpus.jsonl",
        "thresholds": thresholds,
        "pool": pool,
    }


# ----------------------------------------------------------------------- synth


def test_synth_zero_docs_makes_valid_empty_corpus(tmp_path, small_spec_path) -> None:
    out = tmp_path / "empty"
    assert run("synth", "--spec", str(small_spec_path), "--n", "0", "--seed", "3",
               "--out", str(out)) == 0
    assert (out / "corpus.jsonl").read_text() == ""
    assert read_corpus(out / "corpus.jsonl") == []
    assert (out / "lexicon.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3


def test_synth_reruns_are_byte_identical(tmp_path, small_spec_path) -> None:
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("synth", "--spec", str(small_spec_path), "--n", "20", "--seed", "5",
                   "--out", str(out)) == 0
        outs.append(out)
    for fname in ("corpus.jsonl", "lexicon.json", "spec.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_synth_line_count_matches_n(tmp_path, small_spec_path) -> None:
    out = tmp_path / "c"
    assert run("synth", "--spec", str(small_spec_path), "--n", "17", "--seed", "2",
               "--out", str(out)) == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 17
    assert all(json.loads(line)["text"] for line in lines)


def test_synth_bad_spec_exits_2(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert run("synth", "--spec", str(bad), "--n", "5", "--out", str(tmp_path / "o")) == 2


# ------------------------------------------------------------------- training


def test_train_classifier_rejects_unlabeled_corpus(tmp_path, pipeline) -> None:
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(
        "\n".join(json.dumps({"text": f"w{i:03d} w001"}) for i in range(12)) + "\n",
        encoding="utf-8",
    )
    assert run("train-classifier", "--corpus", str(unlabeled),
               "--out", str(tmp_path / "o"), "--epochs", "1") == 2


def test_train_generator_requires_labels_unless_unconditional(tmp_path) -> None:
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(
        "\n".join(json.dumps({"text": "w001 w002 w003"}) for _ in range(6)) + "\n",
        encoding="utf-8",
    )
    assert run("train-generator", "--corpus", str(unlabeled), "--out", str(tmp_path / "g"),
               "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4") == 2
    assert run("train-generator", "--corpus", str(unlabeled), "--out", str(tmp_path / "g2"),
               "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4",
               "--unconditional") == 0


def test_classifier_training_outputs(pipeline) -> None:
    metrics = json.loads((pipeline["root"] / "cls" / "metrics.json").read_text())
    assert set(metrics["best_accuracy"]) == set(TRAITS)
    assert len(metrics["per_epoch_accuracy"]) == 1
    manifest = json.loads((pipeline["root"] / "cls" / "manifest.json").read_text())
    assert "corpus.jsonl" in manifest["inputs"]


def test_generator_training_writes_loss_curve(pipeline) -> None:
    losses = json.loads((pipeline["root"] / "gen" / "losses.json").read_text())
    assert len(losses["epoch_mean_losses"]) == 1


@pytest.mark.parametrize("command, flags, code", [
    ("train-classifier", ["--batch-size", "0"], 2),
    ("train-generator", ["--batch-size", "0"], 2),
    ("train-classifier", ["--epochs", "-1"], 2),
    ("train-generator", ["--epochs", "-1"], 2),
    ("train-classifier", ["--learning-rate", "0"], 2),
    ("train-generator", ["--learning-rate", "nan"], 2),
    ("train-classifier", ["--learning-rate", "inf"], 2),
    ("train-generator", ["--temperature", "nan"], 2),
    ("train-classifier", ["--epochs", "0"], 0),
    ("train-generator", ["--epochs", "0"], 0),
], ids=["classifier-batch-size-0", "generator-batch-size-0", "classifier-epochs-negative",
        "generator-epochs-negative", "classifier-learning-rate-0", "generator-learning-rate-nan",
        "classifier-learning-rate-inf", "generator-temperature-nan", "classifier-epochs-0",
        "generator-epochs-0"])
def test_trainer_schedule_is_validated(tmp_path, pipeline, command, flags, code) -> None:
    out = tmp_path / "out"
    dims = {"train-classifier": ["--num-filters", "4"], "train-generator": ["--hidden-dim", "4"]}
    assert run(command, "--corpus", str(pipeline["corpus"]), "--out", str(out),
               "--embed-dim", "4", "--max-len", "16", *dims[command], *flags) == code
    checkpoint = out / ("classifier.json" if command == "train-classifier" else "generator.json")
    assert checkpoint.exists() == (code == 0)  # a rejected run writes nothing


_HUGE = "1000000000000"  # 10**12


@pytest.mark.parametrize("command, flags, message", [
    ("train-generator", ["--hidden-dim", _HUGE], "weights, more than 100000000"),
    ("train-generator", ["--embed-dim", _HUGE], "weights, more than 100000000"),
    ("train-classifier", ["--num-filters", _HUGE], "weights, more than 100000000"),
    ("train-classifier", ["--embed-dim", _HUGE], "weights, more than 100000000"),
    ("train-generator", ["--max-len", "100000000000"],
     "max_len must be from 2 to 10000, got 100000000000"),
    ("train-classifier", ["--max-len", "100000000000"],
     "max_len 100000000000 must be from window + 2 = 5 to 10000"),
    ("train-classifier", ["--window", "0"], "window must be >= 1, got 0"),
    ("train-classifier", ["--num-filters", "0"], "embed_dim and num_filters must be >= 1"),
    ("train-generator", ["--embed-dim", "0"], "embed_dim and hidden_dim must be >= 1"),
], ids=["generator-hidden-dim", "generator-embed-dim", "classifier-num-filters",
        "classifier-embed-dim", "generator-max-len", "classifier-max-len", "classifier-window-0",
        "classifier-num-filters-0", "generator-embed-dim-0"])
def test_absurd_size_flags_exit_2_without_checkpoint(tmp_path, pipeline, capsys, command, flags,
                                                     message) -> None:
    """Sizes past the model limits are one user error, raised before any allocation."""
    out = tmp_path / "out"
    assert run(command, "--corpus", str(pipeline["corpus"]), "--out", str(out), *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: ") and message in err, err
    assert err.count("\n") == 1
    assert not out.exists()


def _nan_loss(monkeypatch) -> None:
    real = traitgen.generator._train_batch

    def poisoned(*args):
        _, n_tokens = real(*args)
        return float("nan"), n_tokens

    monkeypatch.setattr(traitgen.generator, "_train_batch", poisoned)


def _infinite_parameter(trainer):
    def inject(monkeypatch) -> None:
        real = trainer.adam_step

        def poisoned(model, lr):
            real(model, lr)
            model.value[0] = float("inf")

        monkeypatch.setattr(trainer, "adam_step", poisoned)

    return inject


@pytest.mark.parametrize("command, flags, inject, message", [
    ("train-generator", ["--hidden-dim", "4"], _nan_loss, "non-finite training loss nan"),
    # one batch per epoch, so the poisoned values reach the end-of-epoch check
    # before any forward pass reads them
    ("train-classifier", ["--num-filters", "4", "--batch-size", "64"],
     _infinite_parameter(traitgen.classifier), "non-finite value in parameter"),
    ("train-generator", ["--hidden-dim", "4", "--batch-size", "64"],
     _infinite_parameter(traitgen.generator), "non-finite value in parameter"),
], ids=["generator-nan-loss", "classifier-infinite-parameter", "generator-infinite-parameter"])
def test_divergence_exits_2_without_checkpoint(tmp_path, pipeline, capsys, monkeypatch, command,
                                               flags, inject, message) -> None:
    inject(monkeypatch)
    out = tmp_path / "out"
    assert run(command, "--corpus", str(pipeline["corpus"]), "--out", str(out),
               "--epochs", "2", "--embed-dim", "4", "--max-len", "16", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: ") and message in err
    assert err.count("\n") == 1
    assert not (out / "classifier.json").exists()
    assert not (out / "generator.json").exists()


def _first_lines(path: Path, n: int, dest: Path) -> Path:
    dest.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:n]),
                    encoding="utf-8")
    return dest


def _unlabeled(path: Path) -> Path:
    path.write_text("\n".join(json.dumps({"text": "w001 w002 w003"}) for _ in range(6)) + "\n",
                    encoding="utf-8")
    return path


def _evaluate(pipeline, pool=None) -> list[str]:
    return ["evaluate", "--model", str(pipeline["generator"]),
            "--baseline", str(pipeline["baseline"]), "--lexicon", str(pipeline["lexicon"]),
            "--thresholds", str(pipeline["thresholds"]), "--n-per-condition", "1",
            "--seed-pool", str(pool or pipeline["pool"])]


def _overflowing_scores(pipeline, tmp_path) -> list[str]:
    """Two categories that both match w000, each weighing 1.7e308 on E."""
    lexicon, corpus = tmp_path / "lexicon.json", tmp_path / "corpus.jsonl"
    lexicon.write_text(json.dumps({
        "trait_order": list(TRAITS),
        "categories": [{"name": "a", "entries": ["w000"]}, {"name": "b", "entries": ["w000"]}],
        "weights": [[1.7e308, 0, 0, 0, 0]] * 2}), encoding="utf-8")
    corpus.write_text(json.dumps({"text": "w000 w000"}) + "\n", encoding="utf-8")
    return ["score", "--lexicon", str(lexicon), "--in", str(corpus)]


def _huge_classifier(pipeline, tmp_path) -> list[str]:
    """A finite classifier whose convolution overflows: embedding and conv_w all 1e300."""
    model = load_model(pipeline["classifier"], "cnn")
    model.embedding.value[...] = 1e300
    model.conv_w.value[...] = 1e300
    model.save(tmp_path / "huge.json")
    return ["label", "--model", str(tmp_path / "huge.json"), "--in", str(pipeline["corpus"])]


def _missing_seed_token(pipeline, tmp_path) -> list[str]:
    pool = tmp_path / "pool.txt"
    pool.write_text("w000\nnot-in-vocab\n", encoding="utf-8")
    return _evaluate(pipeline, pool)


@pytest.mark.parametrize("argv, out_file, message", [
    (lambda pipeline, tmp_path: [
        "train-generator", "--corpus", str(_unlabeled(tmp_path / "unlabeled.jsonl")),
        "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4"], None, "no trait labels"),
    (lambda pipeline, tmp_path: [
        "train-classifier", "--corpus", str(_first_lines(pipeline["corpus"], 2,
                                                         tmp_path / "two.jsonl")),
        "--epochs", "1"], None, "need at least 10 documents"),
    (lambda pipeline, tmp_path: [*_evaluate(pipeline), "--max-len", "0"], None,
     "max_len must be >= 1"),
    (lambda pipeline, tmp_path: [*_evaluate(pipeline), "--temperature", "nan"], None,
     "temperature must be finite"),
    (_missing_seed_token, None, "seed tokens not in vocabulary"),
    (lambda pipeline, tmp_path: ["synth", "--n", "-1"], None,
     "n_docs must be non-negative, got -1"),
    (_overflowing_scores, "scored.jsonl", "trait scores are not finite"),
    (_huge_classifier, "labeled.jsonl", "activation input contains non-finite entries"),
], ids=["generator-unlabeled-corpus", "classifier-two-documents", "evaluate-max-len-0",
        "evaluate-temperature-nan", "evaluate-seed-token-not-in-vocabulary", "synth-n-negative",
        "score-not-finite", "label-not-finite"])
def test_failed_run_leaves_no_out_dir(tmp_path, pipeline, capsys, argv, out_file,
                                      message) -> None:
    """``out`` is the output directory, or the directory a single output file would need."""
    out = tmp_path / "out"
    assert run(*argv(pipeline, tmp_path), "--out", str(out / out_file if out_file else out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------------------------ labelling


def test_label_empty_corpus(tmp_path, pipeline) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "labeled.jsonl"
    assert run("label", "--model", str(pipeline["classifier"]), "--in", str(empty),
               "--out", str(out)) == 0
    assert out.read_text() == ""


def test_label_idempotent_and_order_preserving(tmp_path, pipeline) -> None:
    out1 = tmp_path / "l1.jsonl"
    out2 = tmp_path / "l2.jsonl"
    assert run("label", "--model", str(pipeline["classifier"]),
               "--in", str(pipeline["corpus"]), "--out", str(out1)) == 0
    assert run("label", "--model", str(pipeline["classifier"]),
               "--in", str(out1), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    texts_in = [d.raw_text for d in read_corpus(pipeline["corpus"])]
    texts_out = [d.raw_text for d in read_corpus(out1)]
    assert texts_in == texts_out


def test_label_warns_once_when_some_corpus_tokens_are_unknown(tmp_path, pipeline,
                                                             capsys) -> None:
    known = list(load_model(pipeline["classifier"], "cnn").vocab)[:7]
    corpus, out = tmp_path / "part.jsonl", tmp_path / "labeled.jsonl"
    corpus.write_text(json.dumps({"text": " ".join(known + ["zzz", "qqq", "xxx"])}) + "\n",
                      encoding="utf-8")
    assert run("label", "--model", str(pipeline["classifier"]), "--in", str(corpus),
               "--out", str(out)) == 0
    assert capsys.readouterr().err == (
        "traitgen: warning: 30% of corpus tokens are unknown to the model\n")
    [doc] = read_corpus(out)
    assert set(doc.labels) == set(TRAITS)


def test_label_vocabulary_mismatch_is_hard_error(tmp_path, pipeline) -> None:
    alien = tmp_path / "alien.jsonl"
    alien.write_text(
        "\n".join(json.dumps({"text": "zzz qqq xxx"}) for _ in range(4)) + "\n",
        encoding="utf-8",
    )
    assert run("label", "--model", str(pipeline["classifier"]), "--in", str(alien),
               "--out", str(tmp_path / "o.jsonl")) == 2


# ----------------------------------------------------------------- generation


def test_generate_parses_condition_and_is_reproducible(tmp_path, pipeline) -> None:
    out1, out2 = tmp_path / "g1.jsonl", tmp_path / "g2.jsonl"
    for out in (out1, out2):
        assert run("generate", "--model", str(pipeline["generator"]),
                   "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "4",
                   "--seed-pool", str(pipeline["pool"]), "--seed", "11",
                   "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 4
    assert all(r["condition"] == "E=1,A=0,C=1,N=0,O=1" for r in records)
    assert all(r["text"].startswith(r["seed_word"]) for r in records)


def test_generate_greedy_single_text(tmp_path, pipeline) -> None:
    outs = []
    for i, seed in enumerate(("3", "4")):
        out = tmp_path / f"greedy{i}.jsonl"
        assert run("generate", "--model", str(pipeline["baseline"]), "--n", "1",
                   "--seed-pool", str(pipeline["pool"]), "--seed", seed,
                   "--temperature", "0", "--out", str(out)) == 0
        outs.append(json.loads(out.read_text()))
    # greedy continuation depends only on the seed word
    if outs[0]["seed_word"] == outs[1]["seed_word"]:
        assert outs[0]["text"] == outs[1]["text"]


def test_generate_malformed_condition_exits_2(tmp_path, pipeline, capsys) -> None:
    assert run("generate", "--model", str(pipeline["generator"]),
               "--condition", "E=9", "--n", "1",
               "--seed-pool", str(pipeline["pool"]),
               "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "E=1,A=0,C=1,N=0,O=1" in err  # error shows the valid syntax


@pytest.mark.parametrize("temperature, code", [("nan", 2), ("inf", 2), ("-1", 0)])
def test_generate_temperature_must_be_finite(tmp_path, pipeline, temperature, code) -> None:
    out = tmp_path / "t.jsonl"
    assert run("generate", "--model", str(pipeline["baseline"]), "--n", "2",
               "--seed-pool", str(pipeline["pool"]), "--temperature", temperature,
               "--out", str(out)) == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("n, code", [("-1", 2), ("-5", 2), ("0", 0)])
def test_generate_count_must_not_be_negative(tmp_path, pipeline, capsys, n, code) -> None:
    out = tmp_path / "n.jsonl"
    assert run("generate", "--model", str(pipeline["baseline"]), "--n", n,
               "--seed-pool", str(pipeline["pool"]), "--out", str(out)) == code
    if code == 2:
        assert not out.exists() and not list(tmp_path.iterdir())
        assert capsys.readouterr().err.splitlines() == [
            f"traitgen: error: --n must be >= 0, got {n}"]
    else:
        assert out.read_text() == ""


@pytest.mark.parametrize("argv, message", [
    (lambda pipeline: ["generate", "--model", str(pipeline["generator"]),
                       "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "100000000000",
                       "--seed-pool", str(pipeline["pool"])],
     "--n must be at most 1000000, got 100000000000"),
    (lambda pipeline: [*_evaluate(pipeline), "--n-per-condition", "100000000000"],
     "n_per_condition must be positive and at most 1000000, got 100000000000"),
], ids=["generate-n", "evaluate-n-per-condition"])
def test_text_counts_are_bounded(tmp_path, pipeline, capsys, argv, message) -> None:
    out = tmp_path / "out"
    assert run(*argv(pipeline), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"traitgen: error: {message}"]
    assert not list(tmp_path.iterdir())


def test_generate_condition_against_unconditional_model_exits_2(tmp_path, pipeline) -> None:
    assert run("generate", "--model", str(pipeline["baseline"]),
               "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "1",
               "--seed-pool", str(pipeline["pool"]),
               "--out", str(tmp_path / "x.jsonl")) == 2


def _set(path: list, value):
    def mutate(payload: dict) -> None:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _shadow_vocab_token(payload: dict) -> None:
    """Store a sentinel-prefixed copy of a plain token: two stored forms of one token."""
    payload["vocab"][5] = "\x1f" + payload["vocab"][4]


def _b64(values) -> str:
    """Checkpoint ``data``: base64 of the values as row-major little-endian float64s."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _floats(data: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data), "<f8")


def _per_trait_head(payload: dict) -> None:
    """Split the five-column classifier head into the earlier per-trait layout."""
    params = payload["params"]
    head_w, head_b = params.pop("head_w"), params.pop("head_b")
    rows = head_w["shape"][0]
    w, b = _floats(head_w["data"]), _floats(head_b["data"])
    for i, t in enumerate(TRAITS):
        params[f"head_w_{t}"] = {"shape": [rows, 1], "data": _b64(w[i::len(TRAITS)])}
        params[f"head_b_{t}"] = {"shape": [1, 1], "data": _b64(b[i:i + 1])}


def _non_finite_data(payload: dict) -> None:
    entry = payload["params"]["gates_w"]
    values = _floats(entry["data"]).copy()
    values[0] = float("nan")
    entry["data"] = _b64(values)


@pytest.mark.parametrize("checkpoint, mutate", [
    ("baseline", _set(["config", "bogus_key"], 1)),
    ("baseline", _set(["config"], [8, 16])),
    ("baseline", _set(["config", "hidden_dim"], "8")),
    ("baseline", _set(["vocab"], {"<pad>": 0})),
    ("baseline", _shadow_vocab_token),
    ("baseline", _set(["vocab", 5], "\ud800")),
    ("baseline", _set(["params", "out_b", "shape"], [1])),
    ("baseline", _set(["params", "out_b", "data"], "not base64!")),
    ("baseline", _non_finite_data),
    ("classifier", _per_trait_head),
    ("classifier", _set(["config", "num_filters"], 10 ** 12)),
    ("classifier", _set(["config", "max_len"], 10 ** 11)),
    ("baseline", _set(["params"], [])),
], ids=["unknown-config-key", "config-not-object", "string-hidden-dim",
        "vocab-not-list", "non-canonical-vocab-token", "lone-surrogate-vocab-token",
        "shape-not-pair", "non-numeric-data",
        "non-finite-data", "per-trait-classifier-head", "oversized-num-filters",
        "oversized-max-len", "params-not-object"])
def test_generate_malformed_checkpoint_exits_2(tmp_path, pipeline, capsys, checkpoint,
                                               mutate) -> None:
    payload = json.loads(pipeline[checkpoint].read_text(encoding="utf-8"))
    mutate(payload)
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(payload), encoding="utf-8")
    command = {"baseline": ["generate", "--n", "1", "--seed-pool", str(pipeline["pool"])],
               "classifier": ["label", "--in", str(pipeline["corpus"])]}[checkpoint]
    assert run(*command, "--model", str(model), "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"traitgen: error: {model}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@functools.cache
def _tiny_generator() -> str:
    """A valid unconditional checkpoint: V = 8 (four specials, a-d), k = H = 2."""
    vocab = Vocabulary.build([["a", "b", "c", "d"]] * 2)
    config = LstmConfig(vocab_size=len(vocab), embed_dim=2, hidden_dim=2, cond_dim=0, max_len=6)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generator.json"
        LstmModel.init(config, vocab, Rng(5)).save(path)
        return path.read_text(encoding="utf-8")


_LSTM_PARAMS = ["embedding", "gates_w", "gates_b", "out_w", "out_b"]
_ODD_SCALARS = st.one_of(st.text(max_size=4), st.booleans(), st.floats(), st.integers(-5, -1),
                         st.integers(0, 40), st.none())
# One edit of a parameter's base64 ``data`` string, applied by _edit_data.
_DATA_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("replace"), st.integers(0, 400),
              st.sampled_from(string.ascii_letters + string.digits + "+/")),
    st.tuples(st.just("insert"), st.integers(0, 400), st.sampled_from(["!", " ", "\n", "-", "é"])),
    st.tuples(st.just("pad"), st.integers(1, 3)),
    st.tuples(st.just("v1-list")),
    st.tuples(st.just("swap"), _ODD_SCALARS | st.just(float("nan"))),
)
_CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.sampled_from([f.name for f in dataclasses.fields(LstmConfig)])
              .map(lambda key: ("config", key)), _ODD_SCALARS),
    st.tuples(st.integers(0, 7).map(lambda i: ("vocab", i)),
              _ODD_SCALARS | st.sampled_from(["<pad>", "a", " a", "\ud800"])),
    st.tuples(st.sampled_from(_LSTM_PARAMS).map(lambda name: ("params", name, "shape")),
              st.lists(st.integers(-1, 40) | st.floats(0, 40) | st.text(max_size=2), max_size=3)
              | _ODD_SCALARS),
    st.tuples(st.sampled_from(_LSTM_PARAMS).map(lambda name: ("params", name, "data")),
              _DATA_EDITS),
)


def _edit_data(data: str, edit: tuple):
    kind, *args = edit
    if kind == "swap":  # a value in place of the string
        return args[0]
    if kind == "v1-list":  # the float list of the first checkpoint format
        return _floats(data).tolist()
    if kind == "pad":
        return data + "=" * args[0]
    i = args[0] % len(data)
    if kind == "truncate":
        return data[:i]
    return data[:i] + args[1] + data[i + (kind == "replace"):]


@given(edit=_CHECKPOINT_EDITS)
@example(edit=(("config", "max_len"), 1))
@example(edit=(("params", "out_b", "data"), ("swap", _b64([float("nan")] + [0.0] * 7))))
@example(edit=(("params", "out_b", "data"), ("swap", _b64([0.0] * 7 + [float("inf")]))))
@example(edit=(("params", "out_b", "data"), ("swap", _b64([0.0] * 7))))
@example(edit=(("params", "out_b", "data"), ("swap", _b64([0.5] * 8))))
@example(edit=(("params", "out_b", "data"), ("v1-list",)))
@example(edit=(("params", "out_b", "data"), ("swap", True)))
@example(edit=(("params", "gates_w", "data"), ("insert", 4, "\n")))
@example(edit=(("config", "temperature"), 10 ** 400))
@example(edit=(("config", "learning_rate"), float("inf")))
@example(edit=(("config", "hidden_dim"), 10 ** 12))  # shapes no parameter could hold
@example(edit=(("config", "embed_dim"), 10 ** 6))
@example(edit=(("config", "vocab_size"), 10 ** 13))
@example(edit=(("config", "max_len"), 10 ** 11))  # a setting, not a shape
@settings(max_examples=120, deadline=None, derandomize=True)
def test_checkpoint_with_one_field_changed_exits_0_or_2(edit) -> None:
    """generate on a mutated checkpoint either succeeds or is one clean user error."""
    path, value = edit
    payload = json.loads(_tiny_generator())
    if path[-1] == "data":
        value = _edit_data(payload["params"][path[1]]["data"], value)
    _set(list(path), value)(payload)
    with tempfile.TemporaryDirectory() as tmp:
        model, pool, out = (Path(tmp) / name for name in ("generator.json", "pool.txt", "out.jsonl"))
        model.write_text(json.dumps(payload), encoding="utf-8")
        pool.write_text("a\nb\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("generate", "--model", str(model), "--n", "2", "--seed-pool", str(pool),
                       "--out", str(out))
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("traitgen: error: ")
            assert err.getvalue().count("\n") == 1
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["generator.json", "pool.txt"]
        else:
            assert len(out.read_text(encoding="utf-8").splitlines()) == 2
            if path[-1] == "data":  # only the base64 of shape-many finite float64s loads
                assert isinstance(value, str), value
                values = np.frombuffer(base64.b64decode(value, validate=True), "<f8")
                assert values.size == math.prod(payload["params"][path[1]]["shape"])
                assert np.isfinite(values).all()


def test_checkpoint_of_an_earlier_format_exits_2_asking_to_retrain(tmp_path, capsys) -> None:
    payload = json.loads(_tiny_generator())
    payload["format_version"] = 1
    for entry in payload["params"].values():  # the first format's float lists
        entry["data"] = _floats(entry["data"]).tolist()
    model, pool = tmp_path / "generator.json", tmp_path / "pool.txt"
    model.write_text(json.dumps(payload), encoding="utf-8")
    pool.write_text("a\n", encoding="utf-8")
    assert run("generate", "--model", str(model), "--n", "1", "--seed-pool", str(pool),
               "--out", str(tmp_path / "out.jsonl")) == 2
    assert capsys.readouterr().err == (
        f"traitgen: error: {model}: checkpoint format_version is 1, expected {FORMAT_VERSION}; "
        "retrain the model to write this format\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["generator.json", "pool.txt"]


# -------------------------------------------------------------- score/calibrate


def test_score_empty_input(tmp_path, pipeline) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "scored.jsonl"
    assert run("score", "--lexicon", str(pipeline["lexicon"]), "--in", str(empty),
               "--out", str(out)) == 0
    assert out.read_text() == ""


def test_score_hand_checked_two_documents(tmp_path, pipeline) -> None:
    corpus = tmp_path / "two.jsonl"
    corpus.write_text(
        json.dumps({"text": "ehi0 ehi1 w000 w001"}) + "\n"
        + json.dumps({"text": "elo0 elo0"}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "scored.jsonl"
    assert run("score", "--lexicon", str(pipeline["lexicon"]), "--in", str(corpus),
               "--out", str(out)) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0]["scores"]["E"] == pytest.approx(0.5)   # 2 high hits / 4 tokens
    assert rows[1]["scores"]["E"] == pytest.approx(-1.0)  # all low markers
    assert rows[0]["scores"]["A"] == 0.0


def test_score_levels_require_thresholds(tmp_path, pipeline) -> None:
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(json.dumps({"text": "w000"}) + "\n", encoding="utf-8")
    assert run("score", "--lexicon", str(pipeline["lexicon"]), "--in", str(corpus),
               "--levels", "--out", str(tmp_path / "s.jsonl")) == 2
    assert run("score", "--lexicon", str(pipeline["lexicon"]), "--in", str(corpus),
               "--levels", "--thresholds", str(pipeline["thresholds"]),
               "--out", str(tmp_path / "s.jsonl")) == 0
    row = json.loads((tmp_path / "s.jsonl").read_text())
    assert set(row["levels"]) == set(TRAITS)


@pytest.mark.parametrize("p_low, p_high", [("nan", "0.5"), ("0.2", "inf"), ("-0.1", "0.5"),
                                           ("0.2", "1.5"), ("0.7", "0.3")])
def test_calibrate_rejects_bad_percentiles(tmp_path, pipeline, capsys, p_low, p_high) -> None:
    out = tmp_path / "th.json"
    assert run("calibrate", "--lexicon", str(pipeline["lexicon"]), "--in", str(pipeline["corpus"]),
               "--p-low", p_low, "--p-high", p_high, "--out", str(out)) == 2
    assert "p_low <= p_high" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_matches_library(tmp_path, pipeline) -> None:
    from traitgen.lexicon import calibrate_thresholds, load_lexicon, scores_by_trait

    docs = read_corpus(pipeline["corpus"])
    lexicon = load_lexicon(pipeline["lexicon"])
    expected = calibrate_thresholds(scores_by_trait((d.tokens for d in docs), lexicon))
    actual = load_thresholds(pipeline["thresholds"])
    assert actual.cuts == expected.cuts


_CUT_VALUES = st.one_of(
    st.text(max_size=4), st.sampled_from(["-0.1", "-inf", "inf", "nan"]), st.booleans(),
    st.none(), st.lists(st.floats(-1, 1), max_size=2), st.floats(), st.integers(-3, 3),
)
_THRESHOLD_EDITS = st.one_of(
    st.tuples(st.tuples(st.sampled_from(TRAITS), st.sampled_from(["low_cut", "high_cut"])),
              _CUT_VALUES),
    # an extra key, beside a trait's two cuts or beside the five traits
    st.tuples(st.tuples(st.sampled_from(TRAITS), st.sampled_from(["mid_cut", "low", ""])),
              _CUT_VALUES),
    st.tuples(st.sampled_from(["X", "e", "", "low_cut"]).map(lambda key: (key,)),
              st.just({"low_cut": -1.0, "high_cut": 1.0}) | _CUT_VALUES),
)


@given(edit=_THRESHOLD_EDITS)
@example(edit=(("E", "low_cut"), "-0.1"))
@example(edit=(("E", "low_cut"), True))
@example(edit=(("A", "high_cut"), "inf"))
@example(edit=(("C", "low_cut"), "-inf"))
@example(edit=(("N", "high_cut"), float("inf")))
@example(edit=(("O", "mid_cut"), 0.0))
@example(edit=(("X",), {"low_cut": -1.0, "high_cut": 1.0}))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_thresholds_with_one_field_changed_exits_0_or_2(pipeline, edit) -> None:
    """score --levels on a mutated thresholds file either succeeds or is one clean user error."""
    path, value = edit
    payload = json.loads(pipeline["thresholds"].read_text(encoding="utf-8"))
    _set(list(path), value)(payload)
    with tempfile.TemporaryDirectory() as tmp:
        thresholds, out = Path(tmp) / "thresholds.json", Path(tmp) / "scored.jsonl"
        thresholds.write_text(json.dumps(payload), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("score", "--lexicon", str(pipeline["lexicon"]),
                       "--in", str(pipeline["corpus"]), "--thresholds", str(thresholds),
                       "--levels", "--out", str(out))
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("traitgen: error: ")
            assert err.getvalue().count("\n") == 1
            assert [p.name for p in Path(tmp).iterdir()] == ["thresholds.json"]
        else:  # the one valid edit: a finite JSON number in place of a cut
            assert len(path) == 2 and path[1] in ("low_cut", "high_cut"), path
            assert type(value) in (int, float) and math.isfinite(value), value


_LEXICON_VALUES = st.one_of(
    st.text(max_size=4), st.sampled_from(["w000", "w00*", "*", "E_low"]), st.booleans(),
    st.none(), st.floats(), st.integers(-3, 3), st.just(10 ** 400),
    st.lists(st.text(max_size=3), max_size=2),
    st.lists(st.floats() | st.integers(-2, 2), min_size=4, max_size=6),
)
# the synth lexicon: 10 categories of 6 entries each, a 10 x 5 weight matrix
_LEXICON_EDITS = st.one_of(
    st.tuples(st.just(("trait_order",)), _LEXICON_VALUES | st.permutations(TRAITS)),
    st.tuples(st.integers(0, 9).map(lambda c: ("categories", c, "name")), _LEXICON_VALUES),
    st.tuples(st.integers(0, 9).map(lambda c: ("categories", c, "entries")), _LEXICON_VALUES),
    st.tuples(st.tuples(st.just("categories"), st.integers(0, 9), st.just("entries"),
                        st.integers(0, 5)), _LEXICON_VALUES),
    st.tuples(st.integers(0, 9).map(lambda r: ("weights", r)), _LEXICON_VALUES),
    st.tuples(st.tuples(st.just("weights"), st.integers(0, 9), st.integers(0, 4)),
              _LEXICON_VALUES),
)


@given(edit=_LEXICON_EDITS)
@example(edit=(("weights", 0, 0), 10 ** 400))
@example(edit=(("weights", 1, 2), float("nan")))
@example(edit=(("weights", 2, 4), float("-inf")))
@example(edit=(("weights", 3, 1), True))
@example(edit=(("weights", 4), [1, 0.5, -2, 0, 1e308]))
@example(edit=(("categories", 5, "entries", 0), "*"))
@example(edit=(("categories", 6, "name"), "E_low"))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_lexicon_with_one_field_changed_exits_0_or_2(pipeline, edit) -> None:
    """score on a mutated lexicon either succeeds or is one clean user error."""
    path, value = edit
    payload = json.loads(pipeline["lexicon"].read_text(encoding="utf-8"))
    _set(list(path), value)(payload)
    with tempfile.TemporaryDirectory() as tmp:
        lexicon, out = Path(tmp) / "lexicon.json", Path(tmp) / "scored.jsonl"
        lexicon.write_text(json.dumps(payload), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("score", "--lexicon", str(lexicon), "--in", str(pipeline["corpus"]),
                       "--out", str(out))
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("traitgen: error: ")
            assert err.getvalue().count("\n") == 1
            assert [p.name for p in Path(tmp).iterdir()] == ["lexicon.json"]
        elif path[0] == "weights":  # a weight edit loads only as finite JSON numbers
            row = value if len(path) == 2 else [value]
            assert isinstance(row, list) and len(row) in (1, len(TRAITS)), value
            assert all(type(v) in (int, float) and math.isfinite(v) for v in row), value


_CORPUS_VALUES = st.one_of(
    st.text(max_size=6), st.sampled_from(["", " ", "w000 \ud800 w001", "\ud800", "low", "1"]),
    st.booleans(), st.none(), st.floats(), st.integers(-2, 3),
    st.lists(st.integers(0, 1) | st.text(max_size=2), max_size=5),
    st.dictionaries(st.sampled_from([*TRAITS, "X", "e"]), st.integers(0, 2) | st.text(max_size=4),
                    max_size=6),
)
# One edit of one corpus line: a record field (``text``, or ``labels`` or
# ``levels`` whole or one trait), dropped or set to a value that json.dumps
# writes with its lone surrogates escaped; or the line's bytes.
_CORPUS_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from([("text",), ("labels",), ("levels",)])
              | st.tuples(st.sampled_from(["labels", "levels"]), st.sampled_from(TRAITS)),
              _CORPUS_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(["text", "labels"])),
    st.tuples(st.just("insert"), st.integers(0, 400),
              st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])),
    st.tuples(st.just("truncate"), st.integers(0, 400)),
)
_VALID_TRAIT_MAPS = {"labels": dict.fromkeys(TRAITS, 1), "levels": dict.fromkeys(TRAITS, "medium")}


def _edit_line(line: bytes, edit: tuple) -> bytes:
    kind, *args = edit
    if kind == "insert":
        i = args[0] % len(line)
        return line[:i] + args[1] + line[i:]
    if kind == "truncate":
        return line[:args[0] % len(line)] + b"\n"
    record = json.loads(line)
    if kind == "drop":
        del record[args[0]]
    else:
        path, value = args
        if len(path) == 2:
            record.setdefault(path[0], dict(_VALID_TRAIT_MAPS[path[0]]))
        _set(list(path), value)(record)
    return json.dumps(record).encode() + b"\n"


@given(line=st.integers(0, 39), edit=_CORPUS_EDITS)
@example(line=0, edit=("set", ("text",), "w000 \ud800 w001"))
@example(line=5, edit=("set", ("labels", "E"), 2))
@example(line=7, edit=("set", ("levels",), dict.fromkeys(TRAITS, "high")))
@example(line=9, edit=("set", ("levels", "O"), "mid"))
@example(line=39, edit=("drop", "labels"))
@example(line=3, edit=("insert", 20, b"\xff"))
@example(line=11, edit=("truncate", 30))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_corpus_with_one_line_changed_exits_0_or_2(pipeline, line, edit) -> None:
    """Each command that reads a corpus runs on a mutated one or is one clean user error."""
    lines = pipeline["corpus"].read_bytes().splitlines(True)[:40]
    lines[line] = _edit_line(lines[line], edit)
    tiny = ["--epochs", "1", "--embed-dim", "4", "--max-len", "16"]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"".join(lines))
        for command, flags in {
            "train-classifier": ["--corpus", str(corpus), *tiny, "--num-filters", "4"],
            "train-generator": ["--corpus", str(corpus), *tiny, "--hidden-dim", "4"],
            "label": ["--model", str(pipeline["classifier"]), "--in", str(corpus)],
            "score": ["--lexicon", str(pipeline["lexicon"]), "--in", str(corpus)],
            "calibrate": ["--lexicon", str(pipeline["lexicon"]), "--in", str(corpus)],
        }.items():
            work = Path(tmp) / command
            work.mkdir()
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(command, *flags, "--out", str(work / "out"))
            assert code in (0, 2), (command, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith("traitgen: error: "), command
                assert err.getvalue().count("\n") == 1, command
                assert not any(work.iterdir()), command
            else:
                assert (work / "out").exists(), command


# --------------------------------------------------------------- output files


@pytest.mark.parametrize("command", ["score", "calibrate"])
def test_single_file_out_that_is_a_directory_exits_2(tmp_path, pipeline, capsys,
                                                     command) -> None:
    out = tmp_path / "taken"
    out.mkdir()
    assert run(command, "--lexicon", str(pipeline["lexicon"]), "--in", str(pipeline["corpus"]),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: ") and err.count("\n") == 1
    assert out.is_dir() and not any(out.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no temp file left


def test_label_overflow_prints_one_error_line(tmp_path, pipeline) -> None:
    """numpy's overflow warning once came before the error; a subprocess shows
    it, since pytest captures warnings raised in-process."""
    src = str(Path(traitgen.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "new" / "sub" / "labeled.jsonl"
    done = subprocess.run([sys.executable, "-m", "traitgen", *_huge_classifier(pipeline, tmp_path),
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "traitgen: error: activation input contains non-finite entries\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_lands_inside_a_directory_out_and_beside_a_file_out(tmp_path, pipeline,
                                                                     command) -> None:
    config, out = tmp_path / "run.ini", tmp_path / "out"
    config.write_text("\n".join([f"[{command}]", *(f"{key} = {value}" for key, value
                                                   in _valid_config(pipeline, command).items())]),
                      encoding="utf-8")
    assert run(command, *_BOUNDING_FLAGS[command], "--config", str(config),
               "--out", str(out)) == 0
    if command in ("synth", "train-classifier", "train-generator", "evaluate"):
        manifest = out / "manifest.json"
    else:
        manifest = tmp_path / "out.manifest.json"
        assert out.is_file()
    assert json.loads(manifest.read_text(encoding="utf-8"))["command"] == command


def test_synth_into_a_non_ascii_directory_records_its_path(tmp_path, small_spec_path) -> None:
    out = tmp_path / "输出"
    assert run("synth", "--spec", str(small_spec_path), "--n", "2", "--out", str(out)) == 0
    text = (out / "manifest.json").read_text(encoding="utf-8")
    assert json.loads(text)["config"]["out"] == str(out)
    assert "输出" in text  # kept as UTF-8, not escaped


# ------------------------------------------------------------------- evaluate


def test_evaluate_writes_report_and_table(tmp_path, pipeline) -> None:
    out = tmp_path / "eval"
    assert run("evaluate", "--model", str(pipeline["generator"]),
               "--baseline", str(pipeline["baseline"]),
               "--lexicon", str(pipeline["lexicon"]),
               "--thresholds", str(pipeline["thresholds"]),
               "--n-per-condition", "2", "--seed-pool", str(pipeline["pool"]),
               "--seed", "13", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    for t in TRAITS:
        for row in ("low_condition", "high_condition", "unconditional"):
            assert sum(report["dimensions"][t][row].values()) == pytest.approx(1.0, abs=1e-9)
    table = (out / "table.txt").read_text()
    assert table.count("Low condition") == 5
    gens = (out / "generations.jsonl").read_text().splitlines()
    assert len(gens) == 5 * 2 * 2 + 2


def test_evaluate_is_byte_identical_across_reruns(tmp_path, pipeline) -> None:
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert run("evaluate", "--model", str(pipeline["generator"]),
                   "--baseline", str(pipeline["baseline"]),
                   "--lexicon", str(pipeline["lexicon"]),
                   "--thresholds", str(pipeline["thresholds"]),
                   "--n-per-condition", "2", "--seed-pool", str(pipeline["pool"]),
                   "--seed", "13", "--out", str(out)) == 0
        outs.append(out)
    for fname in ("report.json", "table.txt", "generations.jsonl"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_evaluate_is_byte_identical_across_reruns_with_two_blas_threads(
        tmp_path, pipeline) -> None:
    """Decoding's two threads write the same texts on every run, with
    OPENBLAS_NUM_THREADS asking for two BLAS threads: no token depends on
    thread timing.

    The generators are wide enough that the decoding matmuls would pass
    OpenBLAS's size threshold for splitting a product across threads, and
    200 conditional texts make two decoding chunks.
    """
    models = {}
    for name, extra in (("gen", ()), ("base", ("--unconditional",))):
        assert run("train-generator", "--corpus", str(pipeline["corpus"]),
                   "--out", str(tmp_path / name), "--epochs", "1", "--embed-dim", "16",
                   "--hidden-dim", "96", "--max-len", "16", *extra) == 0
        models[name] = tmp_path / name / "generator.json"
    src = str(Path(traitgen.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "traitgen", "evaluate",
                        "--model", str(models["gen"]), "--baseline", str(models["base"]),
                        "--lexicon", str(pipeline["lexicon"]),
                        "--thresholds", str(pipeline["thresholds"]),
                        "--n-per-condition", "20", "--seed-pool", str(pipeline["pool"]),
                        "--seed", "17", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outs.append(out)
    for fname in ("report.json", "generations.jsonl"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_frozen_decoding_bytes(tmp_path, small_spec_path) -> None:
    """Pins the bytes that generate and evaluate write on a tiny seeded
    pipeline: a reordered stream draw or a changed decoding step changes
    them. The digests date from 64-row chunks, when 130 texts made three
    chunks; they hold for any chunking (see test_generator.py). The 400
    texts make three chunks (150, 150 and 100), so both decoding threads
    run."""
    data, gen, base = tmp_path / "data", tmp_path / "gen", tmp_path / "base"
    assert run("synth", "--spec", str(small_spec_path), "--n", "60", "--seed", "3",
               "--out", str(data)) == 0
    for out, extra in ((gen, ()), (base, ("--unconditional",))):
        assert run("train-generator", "--corpus", str(data / "corpus.jsonl"), "--out", str(out),
                   "--epochs", "2", "--embed-dim", "6", "--hidden-dim", "8",
                   "--max-len", "16", "--seed", "4", *extra) == 0
    thresholds, pool = tmp_path / "thresholds.json", tmp_path / "pool.txt"
    assert run("calibrate", "--lexicon", str(data / "lexicon.json"),
               "--in", str(data / "corpus.jsonl"), "--out", str(thresholds)) == 0
    pool.write_text("\n".join(f"w{i:03d}" for i in range(8)), encoding="utf-8")
    digests = {}
    for temperature in ("1.0", "0.0"):
        out = tmp_path / f"texts-{temperature}.jsonl"
        assert run("generate", "--model", str(gen / "generator.json"),
                   "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "130",
                   "--seed-pool", str(pool), "--temperature", temperature, "--seed", "5",
                   "--out", str(out)) == 0
        digests[f"generate-{temperature}"] = _sha256(out)
    out = tmp_path / "texts-400.jsonl"
    assert run("generate", "--model", str(gen / "generator.json"),
               "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "400",
               "--seed-pool", str(pool), "--temperature", "1.0", "--seed", "5",
               "--out", str(out)) == 0
    digests["generate-1.0-400"] = _sha256(out)
    ev = tmp_path / "eval"
    assert run("evaluate", "--model", str(gen / "generator.json"),
               "--baseline", str(base / "generator.json"), "--lexicon", str(data / "lexicon.json"),
               "--thresholds", str(thresholds), "--n-per-condition", "13",
               "--seed-pool", str(pool), "--seed", "7", "--out", str(ev)) == 0
    for name in ("report.json", "generations.jsonl"):
        digests[name] = _sha256(ev / name)
    assert digests == {
        "generate-1.0": "102ad8b51f18a245f0896a45de78c742340d1c79854e948dfca687574efb2651",
        "generate-0.0": "a0d31908b2ea2b7ef151e5437165fef6d04d0c554d41489f3e9d08f42469716c",
        "generate-1.0-400": "58d76d9cce7a4f1e55c50901acc539bb1ff0e8faa125211e207e7329531241fe",
        "report.json": "fa63994ddd1d6f9eaa42152481baa4e292edd88c948e3eac4e01fde0e748a52d",
        "generations.jsonl": "364279a96e60651e28182e4a418fe52139aec433c45504e0d187e27cabc7af69",
    }


def test_frozen_training_bytes(tmp_path, small_spec_path) -> None:
    """Pins the bytes that train-classifier, label and a conditional
    train-generator write on a tiny seeded pipeline: a changed gradient
    (the embedding scatter included), a reordered draw or a changed label
    rule changes them."""
    data, cls, gen = tmp_path / "data", tmp_path / "cls", tmp_path / "gen"
    labeled = tmp_path / "labeled.jsonl"
    assert run("synth", "--spec", str(small_spec_path), "--n", "60", "--seed", "3",
               "--out", str(data)) == 0
    assert run("train-classifier", "--corpus", str(data / "corpus.jsonl"), "--out", str(cls),
               "--epochs", "2", "--embed-dim", "6", "--num-filters", "4", "--max-len", "16",
               "--seed", "4") == 0
    assert run("label", "--model", str(cls / "classifier.json"),
               "--in", str(data / "corpus.jsonl"), "--out", str(labeled)) == 0
    assert run("train-generator", "--corpus", str(labeled), "--out", str(gen),
               "--epochs", "2", "--embed-dim", "6", "--hidden-dim", "8", "--max-len", "16",
               "--seed", "5") == 0
    digests = {p.name: _sha256(p) for p in (cls / "classifier.json", cls / "metrics.json",
                                            labeled, gen / "generator.json", gen / "losses.json")}
    assert digests == {
        "classifier.json": "f9def121b988ebea48487a94b215c8acd1c1be6a1c47ca412e07469ffbf31767",
        "metrics.json": "110ee622e623281510d8d6c7becb4c8caa50e7f7c644efa26f1f9e04b85cee62",
        "labeled.jsonl": "a9f70676e9b98aca6975771a3109bee48c38825f0a95916032254b8ddfdc2c7e",
        "generator.json": "cf11a8bcda69b724f18442288efdb243e82d2a8d5fbfcfa93d30c02c96a91a89",
        "losses.json": "f6648d971a46afac1d84d2192e46c31668c952f7198e5d704e9c774bf9d6a74a",
    }


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path) -> None:
    """train-generator and generate write the same bytes whether
    OPENBLAS_NUM_THREADS asks for one BLAS thread or two. The corpus is
    large enough (600 documents, a few hundred word types) for OpenBLAS to
    split the vocabulary-wide products across two threads, which changes
    the trained weights unless the package pins one thread."""
    data = tmp_path / "data"
    assert run("synth", "--n", "600", "--seed", "7", "--out", str(data)) == 0
    pool = tmp_path / "pool.txt"
    pool.write_text("\n".join(read_corpus(data / "corpus.jsonl")[0].tokens[:3]), encoding="utf-8")
    src = str(Path(traitgen.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"threads-{threads}"
        for argv in (["train-generator", "--corpus", str(data / "corpus.jsonl"),
                      "--out", str(out), "--epochs", "2", "--seed", "7"],
                     ["generate", "--model", str(out / "generator.json"),
                      "--condition", "E=1,A=0,C=1,N=0,O=1", "--n", "200",
                      "--seed-pool", str(pool), "--out", str(out / "texts.jsonl")]):
            subprocess.run([sys.executable, "-m", "traitgen", *argv],
                           env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for fname in ("generator.json", "losses.json", "texts.jsonl"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_blas_pin_warns_when_no_openblas_is_found(monkeypatch) -> None:
    """Without an OpenBLAS thread setter to call, the pin warns and the
    package still works."""
    monkeypatch.setattr(blas, "_loaded_openblas", lambda: [])
    with pytest.warns(RuntimeWarning, match="no OpenBLAS thread setter found"):
        blas.pin_one_thread()


def test_evaluate_vocabulary_mismatch_exits_2(tmp_path, pipeline) -> None:
    alien_lexicon = tmp_path / "alien.json"
    alien_lexicon.write_text(json.dumps({
        "trait_order": list(TRAITS),
        "categories": [{"name": "x", "entries": ["zzzz"]}],
        "weights": [[1, 0, 0, 0, 0]],
    }), encoding="utf-8")
    assert run("evaluate", "--model", str(pipeline["generator"]),
               "--baseline", str(pipeline["baseline"]),
               "--lexicon", str(alien_lexicon),
               "--thresholds", str(pipeline["thresholds"]),
               "--n-per-condition", "2", "--seed-pool", str(pipeline["pool"]),
               "--out", str(tmp_path / "ev")) == 2


@pytest.mark.parametrize("entries, code", [
    (["w00*"], 0),
    (["zz*", "zzzz"], 2),
], ids=["wildcard-matching-vocabulary", "nothing-matching-vocabulary"])
def test_evaluate_needs_a_vocabulary_token_the_lexicon_matches(tmp_path, pipeline, capsys,
                                                               entries, code) -> None:
    """The overlap check matches vocabulary tokens as scoring does, so a
    lexicon of wildcards alone is accepted when a wildcard matches."""
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_bytes(_lexicon_with([1, 0, 0, 0, 0], entries=entries))
    assert run("evaluate", "--model", str(pipeline["generator"]),
               "--baseline", str(pipeline["baseline"]),
               "--lexicon", str(lexicon),
               "--thresholds", str(pipeline["thresholds"]),
               "--n-per-condition", "2", "--seed-pool", str(pipeline["pool"]),
               "--out", str(tmp_path / "ev")) == code
    err = capsys.readouterr().err
    assert ("model vocabulary shares no tokens with the lexicon" in err) == (code == 2)


# ------------------------------------------------------------------ config file


def test_config_file_supplies_values_and_flags_win(tmp_path, small_spec_path) -> None:
    config = tmp_path / "run.ini"
    config.write_text(
        f"[synth]\nspec = {small_spec_path}\nn = 7\nseed = 21\n", encoding="utf-8"
    )
    out_a = tmp_path / "a"
    assert run("synth", "--config", str(config), "--out", str(out_a)) == 0
    assert len((out_a / "corpus.jsonl").read_text().splitlines()) == 7

    out_b = tmp_path / "b"
    assert run("synth", "--config", str(config), "--n", "3", "--out", str(out_b)) == 0
    assert len((out_b / "corpus.jsonl").read_text().splitlines()) == 3
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["config"]["n"] == 3
    assert manifest["config"]["seed"] == 21


def test_missing_config_file_exits_2(tmp_path) -> None:
    assert run("synth", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o")) == 2


def test_missing_required_option_exits_2(tmp_path) -> None:
    assert run("label", "--out", str(tmp_path / "x.jsonl")) == 2


def test_nonexistent_input_file_exits_2(tmp_path, capsys) -> None:
    assert run("synth", "--spec", str(tmp_path / "missing.json"), "--n", "2",
               "--out", str(tmp_path / "o")) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, ini", [
    ("synth", b"n = 5\n"),
    ("synth", b"[synth]\nn = 5\nn = 6\n"),
    ("synth", b"[synth]\n# caf\xe9\nn = 5\n"),
    ("synth", b"[synth]\nspec = %(x)s\n"),
    ("train-generator", b"[train-generator]\nunconditional = maybe\n"),
    ("score", b"[score]\nlevels = maybe\n"),
    ("score", b"[score]\ntokenize-mode = bogus\n"),
    ("synth", b"[synth]\nbogus-key = 3\n"),
    ("synth", b"[DEFAULT]\nepoch = 5\n"),
    ("synth", b"[DEFAULT]\nepochs = 3\n[synth]\nn = 2\nepochs = 4\n"),
], ids=["no-section-header", "duplicate-key", "not-utf8", "bad-interpolation",
        "boolean-maybe", "levels-maybe", "choice-not-allowed", "unknown-key",
        "unknown-default-key", "section-key-shadowing-a-default"])
def test_malformed_config_exits_2(tmp_path, pipeline, capsys, command, ini) -> None:
    config = tmp_path / "run.ini"
    config.write_bytes(ini)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    flags = {
        "synth": ["--n", "2"],
        "train-generator": ["--corpus", str(pipeline["corpus"]), "--epochs", "1",
                            "--embed-dim", "4", "--hidden-dim", "4", "--max-len", "16"],
        "score": ["--lexicon", str(pipeline["lexicon"]), "--in", str(empty)],
    }[command]
    assert run(command, *flags, "--config", str(config), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: config ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl", "run.ini"]


def test_config_keys_of_other_sections_and_defaults_are_not_checked(tmp_path) -> None:
    config = tmp_path / "run.ini"
    config.write_text("[DEFAULT]\nepochs = 3\n[synth]\nn = 2\n[score]\nbogus-key = 3\n",
                      encoding="utf-8")
    assert run("synth", "--config", str(config), "--out", str(tmp_path / "out")) == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["n"] == 2


def test_config_defaults_apply_without_a_section(tmp_path) -> None:
    config = tmp_path / "run.ini"
    config.write_text("[DEFAULT]\nn = 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("synth", "--config", str(config), "--out", str(out)) == 0
    assert len(read_corpus(out / "corpus.jsonl")) == 2


def _valid_config(pipeline, command: str) -> dict[str, str]:
    """A config section that runs ``command`` on the pipeline's files."""
    p = {key: str(value) for key, value in pipeline.items()}
    train = {"corpus": p["corpus"], "seed": "3", "epochs": "1", "batch-size": "8",
             "learning-rate": "0.01", "embed-dim": "4", "max-len": "16",
             "tokenize-mode": "whitespace"}
    return {
        "synth": {"spec": str(pipeline["data"] / "spec.json"), "n": "3", "seed": "3"},
        "train-classifier": {**train, "window": "3", "num-filters": "4"},
        "label": {"model": p["classifier"], "in": p["corpus"], "tokenize-mode": "whitespace"},
        "train-generator": {**train, "unconditional": "false", "hidden-dim": "4",
                            "temperature": "1.0"},
        "generate": {"model": p["generator"], "condition": "E=1,A=0,C=1,N=0,O=1", "n": "2",
                     "seed-pool": p["pool"], "temperature": "0.5", "max-len": "8", "seed": "3"},
        "score": {"lexicon": p["lexicon"], "in": p["corpus"], "thresholds": p["thresholds"],
                  "levels": "true", "tokenize-mode": "whitespace"},
        "calibrate": {"lexicon": p["lexicon"], "in": p["corpus"], "p-low": "0.3",
                      "p-high": "0.7", "tokenize-mode": "whitespace"},
        "evaluate": {"model": p["generator"], "baseline": p["baseline"],
                     "lexicon": p["lexicon"], "thresholds": p["thresholds"],
                     "n-per-condition": "2", "seed-pool": p["pool"], "temperature": "1.0",
                     "max-len": "8", "seed": "3"},
    }[command]


# Flags that bound each command's run time; a flag wins over the config file.
_BOUNDING_FLAGS = {
    "synth": ["--n", "3"],
    "train-classifier": ["--epochs", "1", "--embed-dim", "4", "--num-filters", "4",
                         "--max-len", "16"],
    "label": [],
    "train-generator": ["--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4",
                        "--max-len", "16"],
    "generate": ["--n", "2", "--max-len", "8"],
    "score": [],
    "calibrate": [],
    "evaluate": ["--n-per-condition", "2", "--max-len", "8"],
}
_INI_KEYS = st.sampled_from(sorted({o.name for c in COMMANDS.values() for o in c.opts})
                            + ["", "bogus", "Seed", "epoch", "n n", "#n", "[x]", "%(n)s"])
_INI_VALUES = st.text(max_size=6) | st.sampled_from(
    ["", "0", "1", "-1", "0.5", "1e400", "nan", "inf", "false", "maybe", "%(x)s", "%", "/",
     "missing.json", "cjk_char", "E=2", "a\x00b", "9" * 30])
# One edit of a valid config file: a key or a value of the i-th option line,
# the section header, or one byte inserted, replaced or deleted.
_INI_EDITS = st.one_of(
    st.tuples(st.just("key"), st.integers(0, 20), _INI_KEYS),
    st.tuples(st.just("value"), st.integers(0, 20), _INI_VALUES),
    st.tuples(st.just("header"), st.sampled_from(  # "{}" stands for the command
        ["", "[DEFAULT]", "[synth]", "[score]", "[]", "[{}", "{}]", "[ {} ]", "[{}]\n[{}]",
         "[%(x)s]"])),
    st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 2000),
              st.sampled_from([b"\xff", b"\x00", b"[", b"]", b"=", b":", b"\n", b"%", b" ",
                               b"#", b"\t", b"x"])),
)


def _edited_config(command: str, section: dict[str, str], edit: tuple) -> bytes:
    kind, *args = edit
    header = f"[{command}]"
    items = list(section.items())
    if kind == "header":
        header = args[0].format(command, command)
    elif kind == "key":
        i = args[0] % len(items)
        items[i] = (args[1], items[i][1])
    elif kind == "value":
        i = args[0] % len(items)
        items[i] = (items[i][0], args[1])
    data = "\n".join([header, *(f"{key} = {value}" for key, value in items), ""]).encode()
    if kind in ("insert", "replace", "delete"):
        i = args[0] % len(data)
        data = data[:i] + (b"" if kind == "delete" else args[1]) + data[i + (kind != "insert"):]
    return data


@given(command=st.sampled_from(sorted(COMMANDS)), edit=_INI_EDITS)
@example(command="score", edit=("value", 1, "a\x00b"))
@example(command="label", edit=("value", 1, "/"))
@example(command="score", edit=("value", 3, "maybe"))
@example(command="train-generator", edit=("key", 0, "bogus"))
@example(command="evaluate", edit=("header", "[DEFAULT]"))
@example(command="generate", edit=("value", 1, "E=2"))
@example(command="calibrate", edit=("insert", 12, b"\xff"))
@example(command="train-classifier", edit=("insert", 20, b"%"))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_config_with_one_edit_exits_0_or_2(pipeline, command, edit) -> None:
    """Every command either runs from a mutated config file or is one clean user error."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.ini", Path(tmp) / "out"
        config.write_bytes(_edited_config(command, _valid_config(pipeline, command), edit))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, *_BOUNDING_FLAGS[command], "--config", str(config),
                       "--out", str(out))
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("traitgen: error: ")
            assert err.getvalue().count("\n") == 1
            assert [p.name for p in Path(tmp).iterdir()] == ["run.ini"]
        else:
            assert out.exists()


def test_manifest_keeps_the_hash_of_each_input_sharing_a_file_name(tmp_path, pipeline) -> None:
    out = tmp_path / "eval"
    assert run("evaluate", "--model", str(pipeline["generator"]),
               "--baseline", str(pipeline["baseline"]),
               "--lexicon", str(pipeline["lexicon"]),
               "--thresholds", str(pipeline["thresholds"]),
               "--n-per-condition", "1", "--seed-pool", str(pipeline["pool"]),
               "--out", str(out)) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    digest = {name: hashlib.sha256(pipeline[name].read_bytes()).hexdigest()
              for name in ("generator", "baseline")}
    assert digest["generator"] != digest["baseline"]
    assert inputs["generator.json"] == {"model": digest["generator"],
                                        "baseline": digest["baseline"]}
    assert sorted(inputs) == ["generator.json", "lexicon.json", "pool.txt", "thresholds.json"]


def _spec_with(path: tuple, value) -> bytes:
    spec = dataclasses.asdict(default_synth_spec())
    *parents, last = path
    node = spec
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(spec).encode()


@pytest.mark.parametrize("path, value", [
    (("neutral_tokens",), [1, 2, 3]),
    (("neutral_tokens",), ["w000", None]),
    (("markers", "E", "high"), ["ok", 4.5]),
    (("markers", "O", "low"), [["nested"]]),
    (("neutral_tokens",), ["w000", "\ud800"]),
    (("markers", "C", "high"), ["chi0", "c\udfffx"]),
    (("neutral_tokens",), ["w000", "w\t001"]),
], ids=["neutral-ints", "neutral-null", "marker-float", "marker-list",
        "neutral-lone-surrogate", "marker-lone-surrogate", "neutral-inner-tab"])
def test_spec_with_non_string_tokens_exits_2(tmp_path, capsys, path, value) -> None:
    spec = tmp_path / "spec.json"
    spec.write_bytes(_spec_with(path, value))
    assert run("synth", "--spec", str(spec), "--n", "2", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: ") and "invalid token" in err
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("path, value", [
    (("neutral_tokens",), "abcdefghij"),
    (("markers", "E", "high"), "xyz"),
    (("markers", "N", "low"), {"nlo0": 1}),
], ids=["neutral-string", "marker-string", "marker-object"])
def test_spec_token_set_must_be_a_list(tmp_path, capsys, path, value) -> None:
    spec = tmp_path / "spec.json"
    spec.write_bytes(_spec_with(path, value))
    assert run("synth", "--spec", str(spec), "--n", "2", "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"traitgen: error: token set {'neutral' if len(path) == 1 else '_'.join(path[1:])} "
        f"must be a JSON list, got {type(value).__name__}"]
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("patch, message", [
    ({"pi": "0.5"}, "spec.pi must be a number, got str"),
    ({"pi": True}, "spec.pi must be a number, got bool"),
    ({"len_min": "40"}, "spec.len_min must be an integer, got str"),
    ({"len_min": 40.9}, "spec.len_min must be an integer, got float"),
    ({"neutral_bigram_smoothing": None},
     "spec.neutral_bigram_smoothing must be a number, got NoneType"),
    ({"len_mx": 60}, "spec has unknown key 'len_mx'"),
    ({"len_max": 1_000_000_000}, f"len_max must be at most {MAX_DOC_TOKENS}, got 1000000000"),
    ({"markers": []}, "markers must be a JSON object, got list"),
    ({"neutral_bigram_smoothing": 1.5}, "neutral_bigram_smoothing must lie in [0, 1]"),
    ({"markers": {t: v for t, v in default_synth_spec().markers.items() if t != "O"}},
     f"markers must cover exactly the traits {TRAITS}"),
    ({"markers": {**default_synth_spec().markers, "E": {"high": ["ehi0"]}}},
     "markers for trait E need 'high' and 'low' sets"),
], ids=["pi-string", "pi-bool", "len-min-string", "len-min-float", "smoothing-null",
        "unknown-key", "len-max-huge", "markers-list", "smoothing-past-1", "markers-without-O",
        "trait-markers-without-low"])
def test_spec_numbers_are_checked_not_coerced(tmp_path, capsys, patch, message) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**dataclasses.asdict(default_synth_spec()), **patch}),
                    encoding="utf-8")
    assert run("synth", "--spec", str(spec), "--n", "2", "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [f"traitgen: error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_spec_len_max_cap_is_inclusive(tmp_path) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**dataclasses.asdict(default_synth_spec()), "pi": 1,
                                "len_min": MAX_DOC_TOKENS, "len_max": MAX_DOC_TOKENS}),
                    encoding="utf-8")
    assert run("synth", "--spec", str(spec), "--n", "1", "--out", str(tmp_path / "out")) == 0
    written = json.loads((tmp_path / "out" / "spec.json").read_text(encoding="utf-8"))
    assert written["pi"] == 1.0 and isinstance(written["pi"], float)  # an integer pi reads as 1.0
    doc = json.loads((tmp_path / "out" / "corpus.jsonl").read_text(encoding="utf-8"))
    assert len(doc["text"].split()) == MAX_DOC_TOKENS


@pytest.mark.parametrize("size, code", [(64, 0), (65, 2)])
def test_synth_with_an_oversized_marker_set_exits_2_promptly(tmp_path, size, code) -> None:
    """A 65-token set once sent synth into an endless rejection loop; it is
    now one user error, and 64 tokens, the largest set, still work."""
    spec = tmp_path / "spec.json"
    spec.write_bytes(_spec_with(("markers", "E", "high"), [f"ehx{j}" for j in range(size)]))
    src = str(Path(traitgen.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "traitgen", "synth", "--spec", str(spec),
                           "--n", "50", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stderr == "traitgen: error: token set E_high has 65 tokens, more than 64\n"
        assert not out.exists()
    else:
        assert len((out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()) == 50


_SPEC_FIELDS = [("pi",), ("len_min",), ("len_max",), ("neutral_bigram_smoothing",),
                ("neutral_tokens",), ("markers",),
                *[("markers", t) for t in TRAITS],
                *[("markers", t, k) for t in TRAITS for k in ("high", "low")]]
_SPEC_PATHS = st.one_of(
    st.sampled_from(_SPEC_FIELDS),
    st.tuples(st.just("neutral_tokens"), st.integers(0, 339)),
    st.tuples(st.just("markers"), st.sampled_from(TRAITS), st.sampled_from(["high", "low"]),
              st.integers(0, 5)),
)
_WRONG_TYPES = st.one_of(
    st.text(max_size=12),
    st.integers(-10, 100) | st.integers() | st.floats(),  # the len_max cap bounds any integer
    st.none(),
    st.lists(st.lists(st.text(max_size=3) | st.integers(), max_size=2), min_size=1, max_size=3),
    st.sampled_from(["\ud800", "w\udfff", "\udc80abc"]),  # lone surrogates
)


@given(path=_SPEC_PATHS, value=_WRONG_TYPES)
@example(path=("len_min",), value=float("inf"))
@example(path=("len_max",), value=1e30)
@example(path=("len_max",), value=1_000_000_000)
@example(path=("pi",), value=True)
@example(path=("markers", "A", "low"), value=[f"alx{j}" for j in range(65)])  # one past the cap
@settings(max_examples=150, deadline=None, derandomize=True)
def test_spec_with_one_field_of_a_wrong_type_exits_0_or_2(path, value) -> None:
    """A mutated spec either round-trips its token sets or is one clean user error."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_bytes(_spec_with(path, value))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("synth", "--spec", str(spec), "--n", "3", "--out", str(out))
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("traitgen: error: ")
            assert err.getvalue().count("\n") == 1
            assert not out.exists()
        else:  # no token set was split, coerced or dropped on its way to the output
            given_spec = json.loads(spec.read_text(encoding="utf-8"))
            written = json.loads((out / "spec.json").read_text(encoding="utf-8"))
            for key in ("neutral_tokens", "markers"):
                assert written[key] == given_spec[key]


def _lexicon_with(weights, entries=("w000",)) -> bytes:
    return json.dumps({"trait_order": list(TRAITS),
                       "categories": [{"name": "x", "entries": entries}],
                       "weights": [weights]}).encode()


@pytest.mark.parametrize("option, content", [
    ("--lexicon", b"{not json"),
    ("--lexicon", _lexicon_with(0.5)),
    ("--lexicon", _lexicon_with([1, 0, "x", 0, 0])),
    ("--lexicon", _lexicon_with([1, 0, 0, 0, 0], entries=5)),
    ("--lexicon", _lexicon_with([0, 10 ** 400, 0, 0, 0])),
    ("--lexicon", _lexicon_with([0, float("nan"), 0, 0, 0])),
    ("--lexicon", _lexicon_with([0, 0, float("inf"), 0, 0])),
    ("--lexicon", _lexicon_with([0, 0, 0, float("-inf"), 0])),
    ("--lexicon", _lexicon_with([0, 0, 0, 0, True])),
    ("--lexicon", b"[]"),
    ("--lexicon", json.dumps({"trait_order": list(TRAITS), "categories": [],
                              "weights": []}).encode()),
    ("--lexicon", json.dumps({"trait_order": list(TRAITS),
                              "categories": [{"name": "x", "entries": ["w000"]}]}).encode()),
    ("--thresholds", b"[1, 2"),
    ("--thresholds", json.dumps({t: {"low_cut": "x", "high_cut": 1} for t in TRAITS}).encode()),
    ("--spec", b"\n\n}"),
    ("--spec", json.dumps({**dataclasses.asdict(default_synth_spec()), "len_min": "x"}).encode()),
    ("--seed-pool", b"w000\n\xff\n"),
    ("--model", b"\xff{}"),
    ("--corpus", json.dumps({"text": "a b", "labels": "EACNO"}).encode()),
    ("--in", json.dumps({"text": "a b", "levels": list(TRAITS)}).encode()),
    ("--model", b'{"format_version": 1' + b"0" * 5000 + b"}"),
    ("--in", b'{"text": "a b", "n": 1' + b"0" * 5000 + b"}\n"),
    ("--seed-pool", b"w000\n\xed\xa0\x80\n"),
    ("--seed-pool", b"\n \n"),
    ("--seed-pool", b"zzz\n"),
], ids=["lexicon-not-json", "lexicon-scalar-weight-row", "lexicon-string-weight",
        "lexicon-entries-not-list", "lexicon-weight-past-float-range", "lexicon-nan-weight",
        "lexicon-inf-weight", "lexicon-negative-inf-weight", "lexicon-boolean-weight",
        "lexicon-list", "lexicon-no-categories", "lexicon-no-weights",
        "thresholds-not-json", "thresholds-string-cut",
        "spec-not-json", "spec-string-length", "seed-pool-not-utf8", "checkpoint-not-utf8",
        "corpus-labels-not-object", "corpus-levels-not-object", "checkpoint-integer-too-long",
        "corpus-integer-too-long", "seed-pool-encoded-surrogate", "seed-pool-blank-lines-only",
        "seed-pool-out-of-vocabulary"])
def test_malformed_json_input_exits_2(tmp_path, pipeline, capsys, option, content) -> None:
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    out = tmp_path / "out"
    command = {
        "--lexicon": ["score", "--in", str(pipeline["corpus"])],
        "--thresholds": ["score", "--lexicon", str(pipeline["lexicon"]),
                         "--in", str(pipeline["corpus"]), "--levels"],
        "--spec": ["synth", "--n", "2"],
        "--seed-pool": ["generate", "--model", str(pipeline["baseline"]), "--n", "1"],
        "--model": ["generate", "--seed-pool", str(pipeline["pool"]), "--n", "1"],
        "--corpus": ["train-generator"],
        "--in": ["score", "--lexicon", str(pipeline["lexicon"])],
    }[option]
    assert run(*command, option, str(bad), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("traitgen: error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad"]


# ------------------------------------------------------------------ option table

MANIFEST_CONFIG_KEYS = {
    "synth": ["n", "out", "seed", "spec"],
    "train-classifier": ["batch-size", "corpus", "embed-dim", "epochs", "learning-rate",
                         "max-len", "num-filters", "out", "seed", "tokenize-mode", "window"],
    "label": ["in", "model", "out", "tokenize-mode"],
    "train-generator": ["batch-size", "corpus", "embed-dim", "epochs", "hidden-dim",
                        "learning-rate", "max-len", "out", "seed", "temperature",
                        "tokenize-mode", "unconditional"],
    "generate": ["condition", "max-len", "model", "n", "out", "seed", "seed-pool",
                 "temperature"],
    "score": ["in", "levels", "lexicon", "out", "thresholds", "tokenize-mode"],
    "calibrate": ["in", "lexicon", "out", "p-high", "p-low", "tokenize-mode"],
    "evaluate": ["baseline", "lexicon", "max-len", "model", "n-per-condition", "out", "seed",
                 "seed-pool", "temperature", "thresholds"],
}


def _sample(opt) -> str:
    if opt.type is bool:
        return "true"
    if opt.choices:
        return opt.choices[-1]
    return {int: "7", float: "0.25", str: "some/file.txt"}[opt.type]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flag_and_config_value_resolve_alike(tmp_path, command) -> None:
    opts = COMMANDS[command].opts
    assert sorted(opt.name for opt in opts) == MANIFEST_CONFIG_KEYS[command]
    parser = build_parser()
    for opt in opts:
        others = [arg for o in opts if o.required and o is not opt
                  for arg in (f"--{o.name}", f"{o.name}.txt")]
        value = _sample(opt)
        flag = [f"--{opt.name}"] if opt.type is bool else [f"--{opt.name}", value]
        config = tmp_path / f"{opt.name}.ini"
        config.write_text(f"[{command}]\n{opt.name} = {value}\n", encoding="utf-8")
        by_flag = _resolve(parser.parse_args([command, *others, *flag]), command)
        by_config = _resolve(parser.parse_args([command, *others, "--config", str(config)]),
                             command)
        assert by_flag == by_config, opt.name
        assert list(by_flag) == [o.name for o in opts]
        assert by_flag[opt.name] != opt.default
        if not opt.required:
            by_default = _resolve(parser.parse_args([command, *others]), command)
            assert by_default[opt.name] == opt.default


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_every_option(capsys, command) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    for opt in COMMANDS[command].opts:
        assert f"--{opt.name}" in usage
