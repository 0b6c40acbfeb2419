from __future__ import annotations

import json
from pathlib import Path

import pytest

from traitgen.cli import main
from traitgen.harness import SynthSpec, default_synth_spec
from traitgen.lexicon import load_thresholds
from traitgen.textproc import read_corpus
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


@pytest.mark.parametrize("mutate", [
    _set(["config", "bogus_key"], 1),
    _set(["config"], [8, 16]),
    _set(["config", "hidden_dim"], "8"),
    _set(["vocab"], {"<pad>": 0}),
    _set(["params", "out_b", "shape"], [1]),
    _set(["params", "out_b", "data", 0], "x"),
    _set(["params", "gates_w", "data", 0], float("nan")),
], ids=["unknown-config-key", "config-not-object", "string-hidden-dim",
        "vocab-not-list", "shape-not-pair", "non-numeric-data", "non-finite-data"])
def test_generate_malformed_checkpoint_exits_2(tmp_path, pipeline, capsys, mutate) -> None:
    payload = json.loads(pipeline["baseline"].read_text(encoding="utf-8"))
    mutate(payload)
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(payload), encoding="utf-8")
    assert run("generate", "--model", str(model), "--n", "1",
               "--seed-pool", str(pipeline["pool"]),
               "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"traitgen: error: {model}: ")
    assert err.count("\n") == 1


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


def test_calibrate_matches_library(tmp_path, pipeline) -> None:
    from traitgen.lexicon import calibrate_thresholds, load_lexicon, scores_by_trait

    docs = read_corpus(pipeline["corpus"])
    lexicon = load_lexicon(pipeline["lexicon"])
    expected = calibrate_thresholds(scores_by_trait((d.tokens for d in docs), lexicon))
    actual = load_thresholds(pipeline["thresholds"])
    assert actual.cuts == expected.cuts


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
