"""Tokenization, vocabulary construction, id-sequence encoding, and file I/O.

Two tokenization modes cover the pre-segmented and raw-CJK cases:
``whitespace`` splits on Unicode whitespace, ``cjk_char`` emits each CJK
codepoint as its own token and keeps contiguous non-CJK runs together.
Word segmentation proper is out of scope; corpora are expected to arrive
pre-segmented or be processed character-level.

Every artifact the pipeline writes goes through :func:`write_lines`
(via :func:`write_json` or :func:`write_jsonl`), which makes the file's
directory and replaces the file whole.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import TraitgenError
from .traits import LEVELS, check_trait_map

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")

# Corpus tokens that collide with a special surface form (or start with the
# sentinel itself) are stored with this prefix so the token<->id map stays a
# bijection. ``Vocabulary.token_of`` strips one leading sentinel.
_SENTINEL = "\x1f"

# Vocabulary.build keeps tokens seen at least MIN_COUNT times, at most
# MAX_VOCAB ids in all (specials included).
MIN_COUNT = 2
MAX_VOCAB = 20000
# Longest encoded row (BOS and EOS included) a model config may ask for.
MAX_LEN = 10_000

_CJK_RANGES = (
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified ideographs
    (0xF900, 0xFAFF),    # CJK compatibility ideographs
    (0x20000, 0x2A6DF),  # CJK extension B
)
_CJK_CLASS = "".join(rf"\U{lo:08x}-\U{hi:08x}" for lo, hi in _CJK_RANGES)
# one token per CJK codepoint, or one maximal run of other non-whitespace;
# ``\s`` matches exactly the codepoints for which str.isspace() holds
_CJK_TOKEN = re.compile(rf"[{_CJK_CLASS}]|[^\s{_CJK_CLASS}]+")


def tokenize(raw_text: str, mode: str = "whitespace") -> list[str]:
    """Split text into tokens; never produces empty tokens."""
    try:
        raw_text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TraitgenError(f"text is not valid UTF-8: {exc}") from exc
    if mode == "whitespace":
        return raw_text.split()
    if mode == "cjk_char":
        return _CJK_TOKEN.findall(raw_text)
    raise TraitgenError(f"unknown tokenize mode {mode!r}")


def is_utf8(text: str) -> bool:
    """False for a string holding a lone surrogate, which no UTF-8 file can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _escape(token: str) -> str:
    if token in SPECIAL_TOKENS or token.startswith(_SENTINEL):
        return _SENTINEL + token
    return token


def _unescape(stored: str) -> str:
    return stored[1:] if stored.startswith(_SENTINEL) else stored


class Vocabulary:
    """Bijection between tokens and ids with fixed special ids 0..3.

    Stored tokens after the specials are escaped; lookups are keyed by the
    raw token, so a corpus token is never mistaken for a special.
    """

    def __init__(self, stored_tokens: Sequence[str]):
        if list(stored_tokens[:4]) != list(SPECIAL_TOKENS):
            raise TraitgenError("vocabulary must start with the four special tokens")
        self._id_to_token = list(stored_tokens)
        self._token_to_id = {}
        for i, stored in enumerate(self._id_to_token[4:], start=4):
            if not is_utf8(stored):  # a lone surrogate: no output file could hold it
                raise TraitgenError(f"vocabulary token {i} {stored!r} is not valid UTF-8")
            raw = _unescape(stored)
            if _escape(raw) != stored:  # else two stored tokens could share one raw token
                raise TraitgenError(f"vocabulary token {i} {stored!r} is not escaped canonically")
            self._token_to_id[raw] = i
        if len(self._token_to_id) != len(self._id_to_token) - 4:
            raise TraitgenError("vocabulary contains duplicate tokens")

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]]) -> "Vocabulary":
        """Count tokens across documents and keep the most frequent.

        Tokens with frequency >= :data:`MIN_COUNT` are ranked by (count
        desc, token asc), truncated to ``MAX_VOCAB - 4``, and placed after
        the specials. An empty corpus yields a specials-only vocabulary.
        """
        raw = Counter(chain.from_iterable(corpus))
        # _escape is one-to-one, so escaping each distinct token keeps every count
        counts = {_escape(t): c for t, c in raw.items() if c >= MIN_COUNT}
        kept = sorted(counts, key=lambda t: (-counts[t], t))[: MAX_VOCAB - 4]
        return cls(list(SPECIAL_TOKENS) + kept)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __iter__(self) -> Iterator[str]:
        """The non-special tokens, raw, in id order."""
        return iter(self._token_to_id)

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise TraitgenError(f"id {token_id} outside vocabulary of size {len(self)}")
        return _unescape(self._id_to_token[token_id])

    def to_list(self) -> list[str]:
        """Stored token list (specials first), suitable for checkpoints."""
        return list(self._id_to_token)


def encode(token_lists: Sequence[Sequence[str]], vocab: Vocabulary,
           max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, max_len) int64 id rows and (n,) int64 lengths of n token lists.

    Row r is BOS + the ids of the first ``max_len - 2`` tokens + EOS, then
    PAD; ``lengths[r]`` counts its positions before the PAD. Truncation
    keeps the prefix, and out-of-vocabulary tokens map to UNK.
    """
    if max_len < 2:
        raise TraitgenError(f"max_len must be at least 2, got {max_len}")
    get = vocab._token_to_id.get
    rows = [[BOS_ID, *map(get, tokens[: max_len - 2], repeat(UNK_ID)), EOS_ID]
            for tokens in token_lists]
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    ids = np.full((len(rows), max_len), PAD_ID, dtype=np.int64)
    # the mask's True entries run row by row, in the order of the flat ids
    ids[np.arange(max_len) < lengths[:, None]] = np.fromiter(chain.from_iterable(rows), np.int64)
    return ids, lengths


@dataclass
class Document:
    """One short text with optional trait labels and levels."""

    raw_text: str
    tokens: list[str]
    labels: dict[str, int] | None = None
    levels: dict[str, str] | None = None


def read_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file; undecodable or malformed text raises TraitgenError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also a decode error, or an integer too long to convert
        raise TraitgenError(f"{path}: not valid JSON: {exc}") from exc


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """A JSON number, never a bool, within the float range (exact for a huge integer)."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def config_from_payload(config_cls, config: object, name: str = "config"):
    """Build a dataclass from a JSON object after checking every key and value type.

    Unknown and missing keys are errors. An ``int`` field takes only a JSON
    integer and a ``float`` field any finite JSON number, never a bool or a
    string; a ``float`` field comes back as a Python float, an integer
    given for it included. ``name`` names the object in the messages.
    """
    if not isinstance(config, dict):
        raise TraitgenError(f"'{name}' must be an object, got {type(config).__name__}")
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    for key, value in config.items():
        if key not in fields:
            raise TraitgenError(f"{name} has unknown key {key!r}")
        if fields[key].type == "int" and not is_int(value):
            raise TraitgenError(f"{name}.{key} must be an integer, got {type(value).__name__}")
        if fields[key].type == "float" and not is_finite_number(value):
            if is_int(value) or isinstance(value, float):
                raise TraitgenError(f"{name}.{key} must be a finite number")
            raise TraitgenError(f"{name}.{key} must be a number, got {type(value).__name__}")
    for key, f in fields.items():
        if f.default is dataclasses.MISSING and key not in config:
            raise TraitgenError(f"{name} is missing {key!r}")
    return config_cls(**{key: float(value) if fields[key].type == "float" else value
                         for key, value in config.items()})


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line and a newline as UTF-8, replacing ``path`` whole.

    A path with no file name (``.``, ``/``, ``sub/..``) is refused before
    anything is made; missing parent directories are made first. The text
    goes to ``.<name>.tmp`` in the same directory, which is then renamed
    over ``path``; on any exception the temp file is removed, so a failure
    part-way leaves the old file (or none). Nothing is fsynced: this
    survives a failing process, not a power loss.
    """
    path = Path(path)
    if path.name in ("", ".."):  # pathlib drops "." parts: "." and "/" have no name
        raise TraitgenError(f"output path {str(path)!r} has no file name")
    tmp = path.with_name(f".{path.name}.tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: Any, indent: int | None = 2) -> None:
    """One JSON document with sorted keys, non-ASCII kept as UTF-8."""
    write_lines(path, [json.dumps(payload, ensure_ascii=False, indent=indent, sort_keys=True)])


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    """One compact JSON document per line, keys sorted as in :func:`write_json`."""
    write_lines(path, (json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records))


def read_corpus(path: str | Path, mode: str = "whitespace") -> list[Document]:
    """Read a JSONL corpus: one {"text": ..., "labels"?, "levels"?} per line.

    Records end at a line feed only: a raw U+2028, U+2029 or U+0085, which
    :func:`write_jsonl` leaves unescaped, stays inside its string. Unknown
    fields are ignored; malformed lines are rejected with their line number.
    """
    docs: list[Document] = []
    try:
        raw_lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise TraitgenError(f"{path}: not valid UTF-8: {exc}") from exc
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise TraitgenError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or not isinstance(record.get("text"), str):
            raise TraitgenError(f"{path}:{lineno}: record must be an object with a 'text' string")
        labels = record.get("labels")
        levels = record.get("levels")
        try:
            labels = check_trait_map(labels, (0, 1), "labels") if labels is not None else None
            levels = check_trait_map(levels, LEVELS, "levels") if levels is not None else None
        except TraitgenError as exc:
            raise TraitgenError(f"{path}:{lineno}: {exc}") from exc
        text = record["text"]
        docs.append(Document(text, tokenize(text, mode), labels=labels, levels=levels))
    return docs


def write_corpus(path: str | Path, docs: Iterable[Document]) -> None:
    """Write documents as JSONL records: ``text``, plus ``labels`` and ``levels`` where set."""
    fields = ({"text": d.raw_text, "labels": d.labels, "levels": d.levels} for d in docs)
    write_jsonl(path, ({k: v for k, v in f.items() if v is not None} for f in fields))
