"""Command-line front end for the full pipeline.

Subcommands: synth, train-classifier, label, train-generator, generate,
score, calibrate, evaluate. One table, :data:`COMMANDS`, declares each
command's options once; it drives the argument parser, the INI config
file (one section per command, ``--config path``; explicit flags win)
and the manifest. Runs are deterministic given their resolved options and
seed, and every command records its resolved configuration, master seed,
and input hashes in a manifest next to its outputs.

Exit codes: 0 success, 1 internal failure, 2 user error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .checkpoint import load_model
from .classifier import CnnConfig, CnnModel, train_classifier, label_corpus
from .errors import TraitgenError
from .generator import LstmConfig, LstmModel, generate, train_generator
from .harness import (EVAL_TEMPERATURE, MAX_TEXTS, SynthSpec, default_synth_spec,
                      evaluate_generation, render_table, synth_corpus)
from .lexicon import (assign_levels, calibrate_thresholds, load_lexicon, load_thresholds,
                      save_lexicon, save_thresholds, score_tokens, scores_by_trait)
from .numeric import Lockstep, Rng
from .textproc import read_corpus, write_corpus, write_json, write_jsonl, write_lines
from .traits import TRAITS, format_condition, parse_condition

PROG = "traitgen"


@dataclasses.dataclass(frozen=True)
class Opt:
    """One option: its ``--flag``, its INI key and its manifest ``config`` key.

    ``type`` casts flag and INI strings alike; ``bool`` options are
    ``store_true`` flags whose INI values must be a configparser boolean.
    A ``reads`` option names an input file whose SHA-256 the manifest records.
    """

    name: str
    type: Callable[[str], Any] = str
    default: Any = None
    help: str = ""
    choices: tuple[str, ...] | None = None
    required: bool = False
    reads: bool = False


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand; ``func`` takes the resolved options and writes its outputs."""

    func: Callable[[dict[str, Any]], None]
    help: str
    opts: tuple[Opt, ...]


def _config_section(path: str, command: str) -> dict[str, str]:
    """``command``'s section of a UTF-8 INI file with ``[DEFAULT]`` applied.

    A key no option reads is an error, so a misspelt option cannot leave
    its default silently in force: a key of the section must be an option
    of ``command``, and a ``[DEFAULT]`` key, which every section shares,
    an option of some command. Malformed files are user errors too.
    """
    parser = configparser.ConfigParser()
    # no section header can spell "\n", so this parser reads [DEFAULT] as a
    # plain section and lists only the keys a section sets itself
    own = configparser.ConfigParser(default_section="\n", interpolation=None)
    try:
        if not parser.read(path, encoding="utf-8"):
            raise TraitgenError(f"config file not found: {path}")
        own.read(path, encoding="utf-8")
        shared = set(parser.defaults())
        section_keys = set(own.options(command)) if own.has_section(command) else set()
        values = dict(parser.items(command if parser.has_section(command)
                                   else parser.default_section))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise TraitgenError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    known = {o.name for o in COMMANDS[command].opts}
    known_anywhere = {o.name for c in COMMANDS.values() for o in c.opts}
    for section, unknown in ((parser.default_section, shared - known_anywhere),
                             (command, section_keys - known)):
        if unknown:
            raise TraitgenError(f"config file {path}: unknown key "
                                f"{', '.join(sorted(unknown))} in [{section}]")
    return values


def _cast(opt: Opt, raw: str) -> Any:
    """An INI value checked as strictly as the parser checks the flag."""
    if "\0" in raw:  # no command-line argument can hold one, and no path may
        raise TraitgenError(f"config value {opt.name}={raw!r}: contains a NUL character")
    if opt.type is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
        if value is None:
            raise TraitgenError(f"config value {opt.name}={raw!r}: expected one of "
                                + "/".join(configparser.ConfigParser.BOOLEAN_STATES))
        return value
    try:
        value = opt.type(raw)
    except ValueError as exc:
        raise TraitgenError(f"config value {opt.name}={raw!r}: {exc}") from exc
    if opt.choices and value not in opt.choices:
        raise TraitgenError(f"config value {opt.name}={raw!r}: expected one of "
                            + ", ".join(opt.choices))
    return value


def _resolve(args: argparse.Namespace, command: str) -> dict[str, Any]:
    """Each option of ``command`` from its flag, else its INI value, else its default."""
    flags = vars(args)
    opts = COMMANDS[command].opts
    section = _config_section(flags["config"], command) if flags["config"] else {}
    resolved: dict[str, Any] = {}
    for opt in opts:
        if flags[opt.name] is not None:
            value = flags[opt.name]
        elif opt.name in section:
            value = _cast(opt, section[opt.name])
        else:
            value = opt.default
        if opt.required and not value:
            raise TraitgenError(f"missing required option --{opt.name}")
        resolved[opt.name] = value
    return resolved


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(target: Path, command: str, resolved: dict[str, Any]) -> None:
    """Provenance record; deterministic bytes for identical invocations.

    ``inputs`` maps each input's file name to ``{option name: SHA-256}``,
    so two options reading files of one name both keep their hash.
    """
    inputs: dict[str, dict[str, str]] = {}
    for opt in COMMANDS[command].opts:
        if opt.reads and resolved[opt.name]:
            path = Path(resolved[opt.name])
            inputs.setdefault(path.name, {})[opt.name] = _sha256(path)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": resolved.get("seed"),
        "config": resolved,
        "inputs": inputs,
    }
    write_json(target, manifest)


def _model_config(cls, o: dict[str, Any], **fixed):
    """A model config from the options named like its fields (``embed-dim`` -> ``embed_dim``)."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k.replace("-", "_"): v for k, v in o.items() if k.replace("-", "_") in names},
               **fixed)


def _read_seed_pool(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraitgenError(f"{path}: not valid UTF-8: {exc}") from exc
    return [t for t in (line.strip() for line in text.splitlines()) if t]


def _unk_rate(docs, vocab) -> float:
    counts = Counter(chain.from_iterable(d.tokens for d in docs))
    total = sum(counts.values())
    unk = sum(c for tok, c in counts.items() if tok not in vocab)
    return unk / total if total else 0.0


# ------------------------------------------------------------------- commands


def cmd_synth(o: dict[str, Any]) -> None:
    spec = SynthSpec.load(o["spec"]) if o["spec"] else default_synth_spec()
    docs, lexicon = synth_corpus(spec, o["n"], Rng(o["seed"]))
    out = Path(o["out"])
    write_corpus(out / "corpus.jsonl", docs)
    save_lexicon(lexicon, out / "lexicon.json")
    spec.save(out / "spec.json")
    print(f"wrote {o['n']} documents to {out / 'corpus.jsonl'}")


def cmd_train_classifier(o: dict[str, Any]) -> None:
    config = _model_config(CnnConfig, o)
    docs = read_corpus(o["corpus"], mode=o["tokenize-mode"])
    model, metrics = train_classifier(docs, config, Rng(o["seed"]))
    out = Path(o["out"])
    model.save(out / "classifier.json")
    write_json(out / "metrics.json", metrics)
    print(f"best epoch {metrics['best_epoch']}: "
          + " ".join(f"{t}={metrics['best_accuracy'][t]:.4f}" for t in TRAITS))


def cmd_label(o: dict[str, Any]) -> None:
    model = load_model(o["model"], CnnModel)
    docs = read_corpus(o["in"], mode=o["tokenize-mode"])
    rate = _unk_rate(docs, model.vocab)
    if rate > 0.5:
        raise TraitgenError(
            f"vocabulary mismatch: {rate:.0%} of corpus tokens are unknown to the model"
        )
    if rate > 0.1:
        print(f"{PROG}: warning: {rate:.0%} of corpus tokens are unknown to the model",
              file=sys.stderr)
    out = Path(o["out"])
    write_corpus(out, label_corpus(docs, model))
    print(f"labeled {len(docs)} documents -> {out}")


def cmd_train_generator(o: dict[str, Any]) -> None:
    config = _model_config(LstmConfig, o, cond_dim=0 if o["unconditional"] else 5)
    docs = read_corpus(o["corpus"], mode=o["tokenize-mode"])
    model, losses = train_generator(docs, config, Rng(o["seed"]))
    out = Path(o["out"])
    model.save(out / "generator.json")
    write_json(out / "losses.json", {"epoch_mean_losses": losses})
    trend = f"; loss {losses[0]:.4f} -> {losses[-1]:.4f}" if losses else ""
    print(f"trained {config.epochs} epochs{trend}")


def cmd_generate(o: dict[str, Any]) -> None:
    n = o["n"]
    if n < 0:
        raise TraitgenError(f"--n must be >= 0, got {n}")
    if n > MAX_TEXTS:
        raise TraitgenError(f"--n must be at most {MAX_TEXTS}, got {n}")
    model = load_model(o["model"], LstmModel)
    condition = None
    if o["condition"]:
        try:
            condition = parse_condition(o["condition"])
        except TraitgenError as exc:
            raise TraitgenError(
                f"{exc} (valid syntax: \"E=1,A=0,C=1,N=0,O=1\", each trait exactly once)"
            ) from exc
    pool = _read_seed_pool(o["seed-pool"])
    cond = None if condition is None else np.tile(condition, (n, 1))
    # text i draws from stream i: output independent of batching
    texts = generate(model, cond, pool, Lockstep.spawned(Rng(o["seed"]), 0, n),
                     temperature=o["temperature"], max_len=o["max-len"])
    out = Path(o["out"])
    write_jsonl(out, ({
        "text": " ".join(tokens),
        "condition": None if condition is None else format_condition(condition),
        "seed_word": tokens[0],
    } for tokens in texts))
    print(f"generated {n} texts -> {out}")


def cmd_score(o: dict[str, Any]) -> None:
    if o["levels"] and not o["thresholds"]:
        raise TraitgenError("--levels requires --thresholds")
    lexicon = load_lexicon(o["lexicon"])
    thresholds = load_thresholds(o["thresholds"]) if o["thresholds"] else None
    docs = read_corpus(o["in"], mode=o["tokenize-mode"])

    def record(doc) -> dict[str, Any]:
        scores = score_tokens(doc.tokens, lexicon)
        levels = {} if thresholds is None else {"levels": assign_levels(scores, thresholds)}
        return {"text": doc.raw_text, "scores": scores, **levels}

    records = [record(doc) for doc in docs]  # a scoring error must come before any write
    out = Path(o["out"])
    write_jsonl(out, records)
    print(f"scored {len(docs)} documents -> {out}")


def cmd_calibrate(o: dict[str, Any]) -> None:
    lexicon = load_lexicon(o["lexicon"])
    docs = read_corpus(o["in"], mode=o["tokenize-mode"])
    thresholds = calibrate_thresholds(
        scores_by_trait((d.tokens for d in docs), lexicon), p_low=o["p-low"], p_high=o["p-high"]
    )
    out = Path(o["out"])
    save_thresholds(thresholds, out)
    print(f"calibrated thresholds -> {out}")


def cmd_evaluate(o: dict[str, Any]) -> None:
    model = load_model(o["model"], LstmModel)
    baseline = load_model(o["baseline"], LstmModel)
    lexicon = load_lexicon(o["lexicon"])
    thresholds = load_thresholds(o["thresholds"])
    if not any(map(lexicon.hits, model.vocab)):
        raise TraitgenError("model vocabulary shares no tokens with the lexicon")
    pool = _read_seed_pool(o["seed-pool"])
    report, records = evaluate_generation(
        model, baseline, lexicon, thresholds, o["n-per-condition"], pool, Rng(o["seed"]),
        temperature=o["temperature"], max_len=o["max-len"],
    )
    out = Path(o["out"])
    table = render_table(report)
    write_json(out / "report.json", report)
    write_lines(out / "table.txt", [table])
    write_jsonl(out / "generations.jsonl", records)
    print(table)


# ---------------------------------------------------------------------- table


def _input(name: str, help: str) -> Opt:
    return Opt(name, help=help, required=True, reads=True)


_SEED = Opt("seed", int, 42, "master seed")
_MODE = Opt("tokenize-mode", str, "whitespace", "tokenizer",
            choices=("whitespace", "cjk_char"))
_OUT_DIR = Opt("out", help="output directory", required=True)
_OUT_FILE = Opt("out", help="output file", required=True)
_SCHEDULE = (  # shared by both trainers
    Opt("batch-size", int, 32, "minibatch size"),
    Opt("learning-rate", float, 1e-3, "Adam step size"),
    Opt("embed-dim", int, 32, "token embedding width"),
)

COMMANDS: dict[str, Command] = {
    "synth": Command(cmd_synth, "generate a planted-signal corpus and lexicon", (
        Opt("spec", help="corpus spec JSON (default: built-in)", reads=True),
        Opt("n", int, 4000, "number of documents"),
        _SEED,
        _OUT_DIR,
    )),
    "train-classifier": Command(cmd_train_classifier, "train the CNN trait classifier", (
        _input("corpus", "labeled corpus JSONL"),
        _OUT_DIR,
        _SEED,
        Opt("epochs", int, 10, "training epochs"),
        *_SCHEDULE,
        Opt("window", int, 3, "convolution window width"),
        Opt("num-filters", int, 64, "convolution filters"),
        Opt("max-len", int, 64, "tokens kept per document"),
        _MODE,
    )),
    "label": Command(cmd_label, "auto-label a corpus with a trained classifier", (
        _input("model", "classifier checkpoint"),
        _input("in", "corpus JSONL to label"),
        _OUT_FILE,
        _MODE,
    )),
    "train-generator": Command(cmd_train_generator, "train the conditional LSTM generator", (
        _input("corpus", "labeled corpus JSONL"),
        _OUT_DIR,
        _SEED,
        Opt("unconditional", bool, False, "train the cond_dim-0 baseline"),
        Opt("epochs", int, 15, "training epochs"),
        *_SCHEDULE,
        Opt("hidden-dim", int, 128, "LSTM hidden width"),
        Opt("max-len", int, 64, "tokens kept per document"),
        Opt("temperature", float, 1.0, "sampling temperature stored in the checkpoint"),
        _MODE,
    )),
    "generate": Command(cmd_generate, "sample texts from a trained generator", (
        _input("model", "generator checkpoint"),
        Opt("condition", help='e.g. "E=1,A=0,C=1,N=0,O=1" (omit for unconditional)'),
        Opt("n", int, 10, "number of texts"),
        _input("seed-pool", "file with one seed token per line"),
        Opt("temperature", float, help="sampling temperature (default: the model's)"),
        Opt("max-len", int, help="longest text (default: the model's)"),
        _SEED,
        _OUT_FILE,
    )),
    "score": Command(cmd_score, "score texts with a lexicon", (
        _input("lexicon", "lexicon JSON"),
        _input("in", "corpus JSONL"),
        Opt("thresholds", help="thresholds JSON for level assignment", reads=True),
        Opt("levels", bool, False, "require level assignment (needs --thresholds)"),
        _OUT_FILE,
        _MODE,
    )),
    "calibrate": Command(cmd_calibrate, "calibrate tertile thresholds on a corpus", (
        _input("lexicon", "lexicon JSON"),
        _input("in", "reference corpus JSONL"),
        Opt("p-low", float, 1.0 / 3.0, "low/medium percentile"),
        Opt("p-high", float, 2.0 / 3.0, "medium/high percentile"),
        _OUT_FILE,
        _MODE,
    )),
    "evaluate": Command(cmd_evaluate, "level-distribution report for a generator pair", (
        _input("model", "conditional generator checkpoint"),
        _input("baseline", "unconditional generator checkpoint"),
        _input("lexicon", "lexicon JSON"),
        _input("thresholds", "thresholds JSON"),
        Opt("n-per-condition", int, 500, "texts per trait polarity"),
        _input("seed-pool", "file with one seed token per line"),
        Opt("temperature", float, EVAL_TEMPERATURE, "sampling temperature"),
        Opt("max-len", int, help="longest text (default: the model's)"),
        _SEED,
        _OUT_DIR,
    )),
}


def _help(opt: Opt) -> str:
    if opt.required:
        return f"{opt.help} (required)"
    if opt.default is None or opt.type is bool:
        return opt.help
    return f"{opt.help} (default: {opt.default})"


@functools.cache  # built once per process, however often main() runs in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Personality-conditioned short-text generation pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        for opt in command.opts:
            kind = ({"action": "store_true", "default": None} if opt.type is bool
                    else {"type": opt.type, "choices": opt.choices})
            sub.add_argument(f"--{opt.name}", dest=opt.name, help=_help(opt), **kind)
        sub.add_argument("--config", help="INI config file; flags override its values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        resolved = _resolve(args, args.command)
        command.func(resolved)
        out = Path(resolved["out"])  # beside a file output, inside a directory output
        manifest = (out / "manifest.json" if _OUT_DIR in command.opts
                    else out.with_name(out.name + ".manifest.json"))
        _write_manifest(manifest, args.command, resolved)
        return 0
    except (TraitgenError, OSError) as exc:  # every path a command touches comes from the user
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - genuine bugs
        print(f"{PROG}: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
