"""The three benchmark workloads, driven through ``traitgen.cli.main`` in-process.

Each workload has an untimed set-up, which writes its files into a
directory (``run.py`` runs it in a child process), ``use``, which points
the workload at those files, and an iteration: the CLI commands a user
waits on, run closed-loop (the next command starts when the last
returns). Iteration ``i`` takes its command seeds from (seed, i), so the
same seed always gives the same inputs and byte-identical artifacts;
``run.py`` reruns iteration 0 to check that. Output checks run after the
commands, outside the timed region, and a failed check counts the
command that produced the artifact as a failed operation.

Model dimensions stay at the CLI defaults and are passed explicitly so a
changed default cannot silently change the workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import traitgen.cli

MAX_LEN = 64
GEN_DIMS = ["--embed-dim", "32", "--hidden-dim", "128", "--max-len", str(MAX_LEN),
            "--batch-size", "32"]
CLF_DIMS = ["--embed-dim", "32", "--num-filters", "64", "--window", "3",
            "--max-len", str(MAX_LEN), "--batch-size", "32"]
POOL_SIZE = 50  # the acceptance suite's seed-pool shape

# Sizes scale the work of one iteration; "tiny" exists for the smoke test.
# agreement_floor bounds the mean auto-label agreement with the planted
# labels; a 400-document classifier cannot reliably reach the full size's.
SIZES = {
    "full": {
        "train-gen": {"docs": 500, "epochs": 2},
        "evaluate": {"docs": 300, "epochs": 1, "n_per_condition": 60},
        "prepare": {"docs": 1500, "epochs": 2, "agreement_floor": 0.7},
    },
    "tiny": {
        "train-gen": {"docs": 40, "epochs": 2},
        "evaluate": {"docs": 40, "epochs": 1, "n_per_condition": 2},
        "prepare": {"docs": 400, "epochs": 4, "agreement_floor": 0.6},
    },
}


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{seed}/{tag}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Iteration:
    walls: dict[str, float] = field(default_factory=dict)  # command -> seconds
    tokens: float = 0.0       # work done, in the workload's token unit
    docs: dict[str, float] = field(default_factory=dict)   # command -> docs handled

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Runner:
    """Runs CLI commands, times each one and counts failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, argv: list[str], check=None) -> float:
        """Run one command; returns its wall seconds (failures are recorded)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = traitgen.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        wall = time.perf_counter() - start
        try:
            require(code == 0, f"exit {code}: {err.getvalue().strip()}")
            if check is not None:
                check()
        except Exception as exc:  # any malformed artifact is a failed operation
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
        return wall


def corpus_tokens(path: Path) -> list[list[str]]:
    return [rec["text"].split() for rec in read_jsonl(path)]


# ------------------------------------------------------------------ train-gen


class TrainGen:
    """train-generator, then train-generator --unconditional, on one corpus."""

    name = "train-gen"

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def setup(self, runner: Runner, work: Path) -> None:
        runner.run("synth", ["synth", "--n", str(self.size["docs"]),
                             "--seed", str(derive_seed(self.seed, "corpus")),
                             "--out", str(work / "data")])

    def use(self, work: Path) -> None:
        self.corpus = work / "data" / "corpus.jsonl"
        # target tokens per epoch: each document's tokens plus EOS, after truncation
        self.epoch_tokens = sum(min(len(t), MAX_LEN - 2) + 1
                                for t in corpus_tokens(self.corpus))

    def iteration(self, runner: Runner, work: Path, i: int) -> Iteration:
        it = Iteration()
        seed = str(derive_seed(self.seed, "train", i))
        epochs = self.size["epochs"]
        for label, extra in (("train-generator", []),
                             ("train-generator --unconditional", ["--unconditional"])):
            out = work / label.replace(" --", "-")

            def check(out=out):
                losses = json.loads((out / "losses.json").read_text())["epoch_mean_losses"]
                require(len(losses) == epochs, f"{len(losses)} epoch losses for {epochs} epochs")
                require(all(math.isfinite(x) for x in losses), f"non-finite loss in {losses}")
                require(losses[-1] < losses[0], f"loss did not fall: {losses}")

            it.walls[label] = runner.run(label, [
                "train-generator", "--corpus", str(self.corpus), "--out", str(out),
                "--seed", seed, "--epochs", str(epochs), *GEN_DIMS, *extra], check)
            it.docs[label] = self.size["docs"] * epochs
        it.tokens = 2 * epochs * self.epoch_tokens
        return it


# ------------------------------------------------------------------- evaluate


class Evaluate:
    """evaluate on generators trained in set-up, at the default temperature."""

    name = "evaluate"

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def setup(self, runner: Runner, work: Path) -> None:
        data = work / "data"
        runner.run("synth", ["synth", "--n", str(self.size["docs"]),
                             "--seed", str(derive_seed(self.seed, "corpus")),
                             "--out", str(data)])
        corpus = data / "corpus.jsonl"
        seed = str(derive_seed(self.seed, "models"))
        for name, extra in (("gen", []), ("base", ["--unconditional"])):
            runner.run(f"set-up train-generator {name}", [
                "train-generator", "--corpus", str(corpus), "--out", str(work / name),
                "--seed", seed, "--epochs", str(self.size["epochs"]), *GEN_DIMS, *extra])
        runner.run("calibrate", ["calibrate", "--lexicon", str(data / "lexicon.json"),
                                 "--in", str(corpus), "--out", str(work / "thresholds.json")])
        # seed pool: neutral tokens frequent enough (>= 2) to be in both vocabularies
        counts: dict[str, int] = {}
        for tokens in corpus_tokens(corpus):
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
        neutral = json.loads((data / "spec.json").read_text())["neutral_tokens"]
        frequent = [t for t in neutral if counts.get(t, 0) >= 2]
        pool = random.Random(derive_seed(self.seed, "pool")).sample(
            frequent, min(POOL_SIZE, len(frequent)))
        (work / "pool.txt").write_text("\n".join(pool) + "\n", encoding="utf-8")

    def use(self, work: Path) -> None:
        data = work / "data"
        self.args = ["--model", str(work / "gen" / "generator.json"),
                     "--baseline", str(work / "base" / "generator.json"),
                     "--lexicon", str(data / "lexicon.json"),
                     "--thresholds", str(work / "thresholds.json"),
                     "--seed-pool", str(work / "pool.txt")]

    def iteration(self, runner: Runner, work: Path, i: int) -> Iteration:
        it = Iteration()
        n = self.size["n_per_condition"]
        out = work / "eval"
        texts: list[str] = []

        def check():
            report = json.loads((out / "report.json").read_text())
            require(report["n_per_condition"] == n, "report n_per_condition mismatch")
            for trait, dim in report["dimensions"].items():
                for row in ("low_condition", "high_condition", "unconditional"):
                    total = sum(dim[row].values())
                    require(abs(total - 1.0) < 1e-9, f"{trait} {row} fractions sum to {total}")
            records = read_jsonl(out / "generations.jsonl")
            require(len(records) == 11 * n, f"{len(records)} texts, expected {11 * n}")
            texts.extend(r["text"] for r in records)
            require(all(t.strip() for t in texts), "empty generated text")

        it.walls["evaluate"] = runner.run("evaluate", [
            "evaluate", *self.args, "--n-per-condition", str(n),
            "--seed", str(derive_seed(self.seed, "evaluate", i)), "--out", str(out)], check)
        it.tokens = sum(len(t.split()) for t in texts)
        it.docs["evaluate"] = 11 * n
        return it


# -------------------------------------------------------------------- prepare


class Prepare:
    """synth -> train-classifier -> label -> calibrate on a fresh corpus."""

    name = "prepare"

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def setup(self, runner: Runner, work: Path) -> None:
        pass

    def use(self, work: Path) -> None:
        pass

    def iteration(self, runner: Runner, work: Path, i: int) -> Iteration:
        it = Iteration()
        docs, epochs = self.size["docs"], self.size["epochs"]
        seed = str(derive_seed(self.seed, "prepare", i))
        data, corpus = work / "data", work / "data" / "corpus.jsonl"
        labeled, thresholds = work / "labeled.jsonl", work / "thresholds.json"

        it.walls["synth"] = runner.run("synth", [
            "synth", "--n", str(docs), "--seed", seed, "--out", str(data)],
            lambda: require(len(corpus_tokens(corpus)) == docs, "wrong document count"))
        it.walls["train-classifier"] = runner.run("train-classifier", [
            "train-classifier", "--corpus", str(corpus), "--out", str(work / "clf"),
            "--seed", seed, "--epochs", str(epochs), *CLF_DIMS])

        def check_labels():
            planted = [r["labels"] for r in read_jsonl(corpus)]
            predicted = [r["labels"] for r in read_jsonl(labeled)]
            require(len(predicted) == len(planted), "labeled corpus lost documents")
            agree = [sum(p[t] == q[t] for p, q in zip(planted, predicted)) / len(planted)
                     for t in planted[0]]
            mean, floor = sum(agree) / len(agree), self.size["agreement_floor"]
            require(mean > floor, f"label agreement {mean:.3f} <= {floor}")

        it.walls["label"] = runner.run("label", [
            "label", "--model", str(work / "clf" / "classifier.json"), "--in", str(corpus),
            "--out", str(labeled)], check_labels)

        def check_cuts():
            cuts = json.loads(thresholds.read_text())
            require(len(cuts) == 5, "thresholds must cover five traits")
            for trait, cut in cuts.items():
                require(cut["low_cut"] <= cut["high_cut"], f"{trait}: low_cut > high_cut")

        it.walls["calibrate"] = runner.run("calibrate", [
            "calibrate", "--lexicon", str(data / "lexicon.json"), "--in", str(labeled),
            "--out", str(thresholds)], check_cuts)
        it.tokens = sum(len(t) for t in corpus_tokens(corpus))
        it.docs = {"synth": docs, "train-classifier": docs * epochs, "label": docs,
                   "calibrate": docs}
        return it


WORKLOADS = {cls.name: cls for cls in (TrainGen, Evaluate, Prepare)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
