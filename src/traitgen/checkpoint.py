"""Shared JSON checkpoint format for both neural models.

Layout: {"format_version": 1, "kind": "cnn"|"lstm", "config": {...},
"vocab": [stored tokens...], "params": {name: {"shape": [r, c],
"data": [floats...]}}}. Float values are written with Python's
shortest-round-trip repr, so a reload reproduces every bit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .numeric import Matrix, Parameter
from .textproc import Vocabulary

FORMAT_VERSION = 1


def params_to_payload(params: list[Parameter]) -> dict:
    payload = {}
    for p in params:
        payload[p.name] = {
            "shape": [p.value.rows, p.value.cols],
            "data": p.value.flat.tolist(),
        }
    return payload


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(data: object) -> np.ndarray | None:
    """``data`` as a flat numeric array, or None if it is not a list of numbers."""
    if not isinstance(data, list):
        return None
    try:
        values = np.asarray(data)
    except ValueError:  # ragged nesting
        return None
    return values if values.ndim == 1 and values.dtype.kind in "if" else None


def params_from_payload(payload: dict, params: list[Parameter]) -> None:
    """Load values into existing parameters, checking names, shapes and data."""
    if not isinstance(payload, dict):
        raise ValidationError(f"'params' must be an object, got {type(payload).__name__}")
    names = {p.name for p in params}
    if set(payload) != names:
        raise ValidationError(
            f"checkpoint parameters {sorted(payload)} do not match model {sorted(names)}"
        )
    for p in params:
        entry = payload[p.name]
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_int, shape))):
            raise ValidationError(f"params.{p.name}.shape must be a pair of integers")
        if tuple(shape) != p.value.shape:
            raise ValidationError(
                f"parameter {p.name!r}: checkpoint shape {tuple(shape)} != model {p.value.shape}"
            )
        values = _numbers(entry.get("data"))
        size = p.value.rows * p.value.cols
        if values is None or values.size != size or not np.isfinite(values).all():
            raise ValidationError(f"params.{p.name}.data must be a list of {size} finite numbers")
        p.value = Matrix.from_flat(*p.value.shape, values)


def _config_from_payload(config_cls, config: object):
    """Build a model config after checking every key and value type."""
    if not isinstance(config, dict):
        raise ValidationError(f"'config' must be an object, got {type(config).__name__}")
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    for key, value in config.items():
        if key not in fields:
            raise ValidationError(f"config has unknown key {key!r}")
        if fields[key].type == "int" and not _is_int(value):
            raise ValidationError(f"config.{key} must be an integer, got {type(value).__name__}")
        if fields[key].type == "float" and not (_is_int(value) or isinstance(value, float)):
            raise ValidationError(f"config.{key} must be a number, got {type(value).__name__}")
    for name, f in fields.items():
        if f.default is dataclasses.MISSING and name not in config:
            raise ValidationError(f"config is missing {name!r}")
    return config_cls(**config)


def write_checkpoint(path: str | Path, kind: str, config: dict, vocab: list[str],
                     params: list[Parameter]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "vocab": vocab,
        "params": params_to_payload(params),
    }
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_checkpoint(path: str | Path, expect_kind: str | None = None) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not a valid checkpoint: {exc.msg}") from exc
    if not isinstance(payload, dict) or payload.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint format")
    kind = payload.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise ValidationError(f"{path}: expected a {expect_kind!r} checkpoint, found {kind!r}")
    for key in ("config", "vocab", "params"):
        if key not in payload:
            raise ValidationError(f"{path}: checkpoint is missing {key!r}")
    return payload


def load_model(path: str | Path, expect_kind: str | None = None):
    """Build the model a checkpoint holds, dispatching on its kind field.

    The config and vocabulary are validated before the model is built and
    each parameter before it is assigned; a malformed field raises
    :class:`ValidationError` naming the path and the field.
    """
    payload = read_checkpoint(path, expect_kind)
    kind = payload["kind"]
    if kind == "cnn":
        from .classifier import CnnConfig as config_cls, CnnModel as model_cls
    elif kind == "lstm":
        from .generator import LstmConfig as config_cls, LstmModel as model_cls
    else:
        raise ValidationError(f"{path}: unknown model kind {kind!r}")
    try:
        config = _config_from_payload(config_cls, payload["config"])
        vocab = payload["vocab"]
        if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
            raise ValidationError("'vocab' must be a list of strings")
        model = model_cls(config, Vocabulary(vocab))
        params_from_payload(payload["params"], model.params())
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return model
