"""Command-line front end for the full pipeline.

Subcommands: synth, train-classifier, label, train-generator, generate,
score, calibrate, evaluate. Every option can also come from an INI config
file (one section per command, ``--config path``); explicit flags win.
Runs are deterministic given their resolved options and seed, and every
command records its resolved configuration, master seed, and input hashes
in a manifest next to its outputs.

Exit codes: 0 success, 1 internal failure, 2 user error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .checkpoint import load_model
from .classifier import CnnConfig, CnnModel, train_classifier, label_corpus
from .errors import ConfigError, TraitgenError
from .generator import (
    BfpCondition,
    LstmConfig,
    LstmModel,
    generate,
    train_generator,
)
from .harness import (
    EVAL_TEMPERATURE,
    SynthSpec,
    default_synth_spec,
    evaluate_generation,
    render_table,
    synth_corpus,
)
from .lexicon import (
    assign_levels,
    calibrate_thresholds,
    load_lexicon,
    load_thresholds,
    save_lexicon,
    save_thresholds,
    score_tokens,
    scores_by_trait,
)
from .numeric import Rng
from .textproc import UNK_ID, read_corpus, write_corpus
from .traits import TRAITS

PROG = "traitgen"


class _Resolver:
    """Merge builtin defaults, config-file section values, and flags."""

    def __init__(self, args: argparse.Namespace, section: str):
        self.args = vars(args)
        self.section: dict[str, str] = {}
        config_path = self.args.get("config")
        if config_path:
            parser = configparser.ConfigParser()
            read = parser.read(config_path)
            if not read:
                raise ConfigError(f"config file not found: {config_path}")
            if parser.has_section(section):
                self.section = dict(parser.items(section))
        self.resolved: dict[str, Any] = {}

    def get(self, key: str, cast: Callable, default):
        flag = self.args.get(key.replace("-", "_"))
        if flag is not None:
            value = flag
        elif key in self.section:
            raw = self.section[key]
            if cast is bool:
                value = raw.strip().lower() in ("1", "true", "yes", "on")
            else:
                try:
                    value = cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"config value {key}={raw!r}: {exc}") from exc
        else:
            value = default
        self.resolved[key] = value
        return value


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(target: Path, command: str, resolved: dict, seed: int | None,
                    inputs: list[Path]) -> None:
    """Provenance record; deterministic bytes for identical invocations."""
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": {k: resolved[k] for k in sorted(resolved)},
        "inputs": {p.name: _sha256(p) for p in inputs},
    }
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


def _require_path(res: "_Resolver", key: str) -> Path:
    value = res.get(key, str, None)
    if not value:
        raise ConfigError(f"missing required option --{key}")
    return Path(value)


def _out_dir(res: _Resolver) -> Path:
    value = res.get("out", str, None)
    if not value:
        raise ConfigError("an output directory is required (--out)")
    out = Path(value)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out_file(res: _Resolver) -> Path:
    out = res.get("out", str, None)
    if not out:
        raise ConfigError("an output file is required (--out)")
    path = Path(out)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _read_seed_pool(path: str) -> list[str]:
    tokens = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    return [t for t in tokens if t]


def _unk_rate(docs, vocab) -> float:
    total = sum(len(d.tokens) for d in docs)
    if total == 0:
        return 0.0
    unk = sum(1 for d in docs for tok in d.tokens if vocab.id_of(tok) == UNK_ID)
    return unk / total


# ------------------------------------------------------------------- commands


def cmd_synth(args: argparse.Namespace) -> int:
    res = _Resolver(args, "synth")
    spec_path = res.get("spec", str, None)
    n = res.get("n", int, 4000)
    seed = res.get("seed", int, 42)
    out = _out_dir(res)
    spec = SynthSpec.load(spec_path) if spec_path else default_synth_spec()
    docs, lexicon = synth_corpus(spec, n, Rng(seed))
    write_corpus(out / "corpus.jsonl", docs)
    save_lexicon(lexicon, out / "lexicon.json")
    spec.save(out / "spec.json")
    inputs = [Path(spec_path)] if spec_path else []
    _write_manifest(out / "manifest.json", "synth", res.resolved, seed, inputs)
    print(f"wrote {n} documents to {out / 'corpus.jsonl'}")
    return 0


def cmd_train_classifier(args: argparse.Namespace) -> int:
    res = _Resolver(args, "train-classifier")
    corpus_path = _require_path(res, "corpus")
    seed = res.get("seed", int, 42)
    mode = res.get("tokenize-mode", str, "whitespace")
    config = CnnConfig(
        vocab_size=0,
        embed_dim=res.get("embed-dim", int, 32),
        window=res.get("window", int, 3),
        num_filters=res.get("num-filters", int, 64),
        max_len=res.get("max-len", int, 64),
        epochs=res.get("epochs", int, 10),
        batch_size=res.get("batch-size", int, 32),
        learning_rate=res.get("learning-rate", float, 1e-3),
    )
    out = _out_dir(res)
    docs = read_corpus(corpus_path, mode=mode)
    result = train_classifier(docs, config, Rng(seed))
    result.model.save(out / "classifier.json")
    metrics = {
        "best_epoch": result.best_epoch,
        "best_accuracy": result.best_accuracy,
        "per_epoch_accuracy": result.history,
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    _write_manifest(out / "manifest.json", "train-classifier", res.resolved, seed,
                    [corpus_path])
    print(f"best epoch {result.best_epoch}: "
          + " ".join(f"{t}={result.best_accuracy[t]:.4f}" for t in TRAITS))
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    res = _Resolver(args, "label")
    model_path = _require_path(res, "model")
    in_path = _require_path(res, "in")
    mode = res.get("tokenize-mode", str, "whitespace")
    out = _out_file(res)
    model = load_model(model_path)
    if not isinstance(model, CnnModel):
        raise ConfigError(f"{model_path} is not a classifier checkpoint")
    docs = read_corpus(in_path, mode=mode)
    rate = _unk_rate(docs, model.vocab)
    if rate > 0.5:
        raise ConfigError(
            f"vocabulary mismatch: {rate:.0%} of corpus tokens are unknown to the model"
        )
    if rate > 0.1:
        print(f"{PROG}: warning: {rate:.0%} of corpus tokens are unknown to the model",
              file=sys.stderr)
    write_corpus(out, label_corpus(docs, model))
    _write_manifest(out.with_name(out.name + ".manifest.json"), "label", res.resolved,
                    None, [model_path, in_path])
    print(f"labeled {len(docs)} documents -> {out}")
    return 0


def cmd_train_generator(args: argparse.Namespace) -> int:
    res = _Resolver(args, "train-generator")
    corpus_path = _require_path(res, "corpus")
    seed = res.get("seed", int, 42)
    mode = res.get("tokenize-mode", str, "whitespace")
    unconditional = bool(res.get("unconditional", bool, False))
    config = LstmConfig(
        vocab_size=0,
        embed_dim=res.get("embed-dim", int, 32),
        hidden_dim=res.get("hidden-dim", int, 128),
        cond_dim=0 if unconditional else 5,
        max_len=res.get("max-len", int, 64),
        epochs=res.get("epochs", int, 15),
        batch_size=res.get("batch-size", int, 32),
        learning_rate=res.get("learning-rate", float, 1e-3),
        temperature=res.get("temperature", float, 1.0),
    )
    out = _out_dir(res)
    docs = read_corpus(corpus_path, mode=mode)
    result = train_generator(docs, config, Rng(seed))
    result.model.save(out / "generator.json")
    (out / "losses.json").write_text(
        json.dumps({"epoch_mean_losses": result.epoch_mean_losses}, indent=2) + "\n",
        encoding="utf-8",
    )
    _write_manifest(out / "manifest.json", "train-generator", res.resolved, seed,
                    [corpus_path])
    losses = result.epoch_mean_losses
    trend = f"; loss {losses[0]:.4f} -> {losses[-1]:.4f}" if losses else ""
    print(f"trained {config.epochs} epochs{trend}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    res = _Resolver(args, "generate")
    model_path = _require_path(res, "model")
    pool_path = str(_require_path(res, "seed-pool"))
    n = res.get("n", int, 10)
    if n < 0:
        raise ConfigError(f"--n must be >= 0, got {n}")
    seed = res.get("seed", int, 42)
    condition_text = res.get("condition", str, None)
    temperature = res.get("temperature", float, None)
    max_len = res.get("max-len", int, None)
    out = _out_file(res)
    model = load_model(model_path)
    if not isinstance(model, LstmModel):
        raise ConfigError(f"{model_path} is not a generator checkpoint")
    condition = None
    if condition_text:
        try:
            condition = BfpCondition.parse(condition_text)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(
                f"{exc} (valid syntax: \"E=1,A=0,C=1,N=0,O=1\", each trait exactly once)"
            ) from exc
    pool = _read_seed_pool(pool_path)
    rng = Rng(seed)
    streams = [rng.spawn(i) for i in range(n)]  # per-text streams: output independent of batching
    texts = generate(model, [condition] * n, pool, streams,
                     temperature=temperature, max_len=max_len)
    records = [{
        "text": " ".join(tokens),
        "condition": condition.to_string() if condition else None,
        "seed_word": tokens[0],
    } for tokens in texts]
    with open(out, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    _write_manifest(out.with_name(out.name + ".manifest.json"), "generate", res.resolved,
                    seed, [model_path, Path(pool_path)])
    print(f"generated {n} texts -> {out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    res = _Resolver(args, "score")
    lexicon_path = _require_path(res, "lexicon")
    in_path = _require_path(res, "in")
    thresholds_path = res.get("thresholds", str, None)
    want_levels = bool(res.get("levels", bool, False))
    mode = res.get("tokenize-mode", str, "whitespace")
    out = _out_file(res)
    if want_levels and not thresholds_path:
        raise ConfigError("--levels requires --thresholds")
    lexicon = load_lexicon(lexicon_path)
    thresholds = load_thresholds(thresholds_path) if thresholds_path else None
    docs = read_corpus(in_path, mode=mode)
    inputs = [lexicon_path, in_path]
    if thresholds_path:
        inputs.append(Path(thresholds_path))
    with open(out, "w", encoding="utf-8") as fh:
        for doc in docs:
            scores = score_tokens(doc.tokens, lexicon)
            record: dict[str, Any] = {"text": doc.raw_text, "scores": scores}
            if thresholds is not None:
                record["levels"] = assign_levels(scores, thresholds)
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    _write_manifest(out.with_name(out.name + ".manifest.json"), "score", res.resolved,
                    None, inputs)
    print(f"scored {len(docs)} documents -> {out}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    res = _Resolver(args, "calibrate")
    lexicon_path = _require_path(res, "lexicon")
    in_path = _require_path(res, "in")
    p_low = res.get("p-low", float, 1.0 / 3.0)
    p_high = res.get("p-high", float, 2.0 / 3.0)
    mode = res.get("tokenize-mode", str, "whitespace")
    out = _out_file(res)
    lexicon = load_lexicon(lexicon_path)
    docs = read_corpus(in_path, mode=mode)
    thresholds = calibrate_thresholds(
        scores_by_trait((d.tokens for d in docs), lexicon), p_low=p_low, p_high=p_high
    )
    save_thresholds(thresholds, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "calibrate", res.resolved,
                    None, [lexicon_path, in_path])
    print(f"calibrated thresholds -> {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    res = _Resolver(args, "evaluate")
    model_path = _require_path(res, "model")
    baseline_path = _require_path(res, "baseline")
    lexicon_path = _require_path(res, "lexicon")
    thresholds_path = _require_path(res, "thresholds")
    pool_path = str(_require_path(res, "seed-pool"))
    n_per_condition = res.get("n-per-condition", int, 500)
    seed = res.get("seed", int, 42)
    temperature = res.get("temperature", float, EVAL_TEMPERATURE)
    max_len = res.get("max-len", int, None)
    out = _out_dir(res)

    model = load_model(model_path)
    baseline = load_model(baseline_path)
    if not isinstance(model, LstmModel) or not isinstance(baseline, LstmModel):
        raise ConfigError("evaluate needs generator checkpoints")
    lexicon = load_lexicon(lexicon_path)
    thresholds = load_thresholds(thresholds_path)
    model_tokens = set(model.vocab.non_special_tokens())
    entry_tokens = lexicon.all_entry_tokens()
    if not (model_tokens & entry_tokens):
        raise ConfigError("model vocabulary shares no tokens with the lexicon")
    pool = _read_seed_pool(pool_path)

    texts: list[dict] = []
    report = evaluate_generation(
        model, baseline, lexicon, thresholds, n_per_condition, pool, Rng(seed),
        temperature=temperature, max_len=max_len, collect=texts,
    )
    report.save(out / "report.json")
    (out / "table.txt").write_text(render_table(report) + "\n", encoding="utf-8")
    with open(out / "generations.jsonl", "w", encoding="utf-8") as fh:
        for record in texts:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    _write_manifest(out / "manifest.json", "evaluate", res.resolved, seed,
                    [model_path, baseline_path, lexicon_path, thresholds_path,
                     Path(pool_path)])
    print(render_table(report))
    return 0


# --------------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Personality-conditioned short-text generation pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a planted-signal corpus and lexicon")
    p.add_argument("--spec", help="corpus spec JSON (default: built-in)")
    p.add_argument("--n", type=int, help="number of documents (default 4000)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("train-classifier", help="train the CNN trait classifier")
    p.add_argument("--corpus", help="labeled corpus JSONL")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--num-filters", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--tokenize-mode", choices=["whitespace", "cjk_char"])
    _add_common(p)
    p.set_defaults(func=cmd_train_classifier)

    p = commands.add_parser("label", help="auto-label a corpus with a trained classifier")
    p.add_argument("--model", help="classifier checkpoint")
    p.add_argument("--in", dest="in_", help="corpus JSONL to label")
    p.add_argument("--out", help="output JSONL")
    p.add_argument("--tokenize-mode", choices=["whitespace", "cjk_char"])
    _add_common(p)
    p.set_defaults(func=cmd_label)

    p = commands.add_parser("train-generator", help="train the conditional LSTM generator")
    p.add_argument("--corpus", help="labeled corpus JSONL")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--unconditional", action="store_true", default=None,
                   help="train the cond_dim-0 baseline")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--tokenize-mode", choices=["whitespace", "cjk_char"])
    _add_common(p)
    p.set_defaults(func=cmd_train_generator)

    p = commands.add_parser("generate", help="sample texts from a trained generator")
    p.add_argument("--model", help="generator checkpoint")
    p.add_argument("--condition", help='e.g. "E=1,A=0,C=1,N=0,O=1" (omit for unconditional)')
    p.add_argument("--n", type=int)
    p.add_argument("--seed-pool", help="file with one seed token per line")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output JSONL")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = commands.add_parser("score", help="score texts with a lexicon")
    p.add_argument("--lexicon")
    p.add_argument("--in", dest="in_", help="corpus JSONL")
    p.add_argument("--thresholds", help="thresholds JSON for level assignment")
    p.add_argument("--levels", action="store_true", default=None,
                   help="require level assignment (needs --thresholds)")
    p.add_argument("--out", help="output JSONL")
    p.add_argument("--tokenize-mode", choices=["whitespace", "cjk_char"])
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = commands.add_parser("calibrate", help="calibrate tertile thresholds on a corpus")
    p.add_argument("--lexicon")
    p.add_argument("--in", dest="in_", help="reference corpus JSONL")
    p.add_argument("--p-low", type=float)
    p.add_argument("--p-high", type=float)
    p.add_argument("--out", help="thresholds JSON path")
    p.add_argument("--tokenize-mode", choices=["whitespace", "cjk_char"])
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = commands.add_parser("evaluate", help="level-distribution report for a generator pair")
    p.add_argument("--model", help="conditional generator checkpoint")
    p.add_argument("--baseline", help="unconditional generator checkpoint")
    p.add_argument("--lexicon")
    p.add_argument("--thresholds")
    p.add_argument("--n-per-condition", type=int)
    p.add_argument("--seed-pool")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse stores --in as in_; the resolver reads plain keys
    if hasattr(args, "in_"):
        setattr(args, "in", args.in_)
    try:
        return args.func(args)
    except TraitgenError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every path a command touches comes from the user
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - genuine bugs
        print(f"{PROG}: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
