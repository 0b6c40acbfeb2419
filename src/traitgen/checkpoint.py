"""Shared JSON checkpoint format for both neural models.

Layout: {"format_version": 2, "kind": "cnn"|"lstm", "config": {...},
"vocab": [stored tokens...], "params": {name: {"shape": [r, c],
"data": str}}}. ``data`` is the standard base64 of the parameter's
row-major little-endian float64 bytes, so a reload reproduces every bit.
A checkpoint of any other format version must be retrained.
"""

from __future__ import annotations

import base64
from pathlib import Path

import numpy as np

from .errors import TraitgenError
from .numeric import Parameter
from .textproc import Vocabulary, config_from_payload, is_int, read_json, write_json

FORMAT_VERSION = 2


def params_to_payload(params: list[Parameter]) -> dict:
    return {
        p.name: {
            "shape": list(p.value.shape),
            "data": base64.b64encode(p.value.astype("<f8").tobytes()).decode("ascii"),
        }
        for p in params
    }


def _decode(data: object, size: int) -> np.ndarray | None:
    """``data`` as ``size`` finite float64s, or None if it is not their base64."""
    try:
        values = np.frombuffer(base64.b64decode(data, validate=True), "<f8")
    except (TypeError, ValueError):  # not a string, not ASCII base64, or not whole float64s
        return None
    return values if values.size == size and np.isfinite(values).all() else None


def params_from_payload(payload: dict, params: list[Parameter]) -> None:
    """Load values into existing parameters, checking names, shapes and data."""
    if not isinstance(payload, dict):
        raise TraitgenError(f"'params' must be an object, got {type(payload).__name__}")
    names = {p.name for p in params}
    if set(payload) != names:
        raise TraitgenError(
            f"checkpoint parameters {sorted(payload)} do not match model {sorted(names)}"
        )
    for p in params:
        entry = payload[p.name]
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(is_int, shape))):
            raise TraitgenError(f"params.{p.name}.shape must be a pair of integers")
        if tuple(shape) != p.value.shape:
            raise TraitgenError(
                f"parameter {p.name!r}: checkpoint shape {tuple(shape)} != model {p.value.shape}"
            )
        values = _decode(entry.get("data"), p.value.size)
        if values is None:
            raise TraitgenError(f"params.{p.name}.data must be the base64 of "
                                f"{p.value.size} finite little-endian float64s")
        p.value[...] = values.reshape(p.value.shape)


def write_checkpoint(path: str | Path, kind: str, config: dict, vocab: list[str],
                     params: list[Parameter]) -> None:
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "vocab": vocab,
        "params": params_to_payload(params),
    }, indent=None)


def load_model(path: str | Path, kind: str):
    """Build the ``kind`` ("cnn" or "lstm") model a checkpoint holds.

    The format version and kind are checked first, then the config and
    vocabulary before the model is built, and each parameter before it is
    assigned; a malformed field raises :class:`TraitgenError` naming the
    path and the field.
    """
    payload = read_json(path)
    found = payload.get("format_version") if isinstance(payload, dict) else None
    if found != FORMAT_VERSION:
        raise TraitgenError(f"{path}: checkpoint format_version is {found!r}, expected "
                            f"{FORMAT_VERSION}; retrain the model to write this format")
    found = payload.get("kind")
    if found != kind:
        raise TraitgenError(f"{path}: expected a {kind!r} checkpoint, found {found!r}")
    for key in ("config", "vocab", "params"):
        if key not in payload:
            raise TraitgenError(f"{path}: checkpoint is missing {key!r}")
    if kind == "cnn":
        from .classifier import CnnConfig as config_cls, CnnModel as model_cls
    else:
        from .generator import LstmConfig as config_cls, LstmModel as model_cls
    try:
        config = config_from_payload(config_cls, payload["config"])
        vocab = payload["vocab"]
        if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
            raise TraitgenError("'vocab' must be a list of strings")
        model = model_cls(config, Vocabulary(vocab))
        params_from_payload(payload["params"], model.params())
    except TraitgenError as exc:
        raise TraitgenError(f"{path}: {exc}") from exc
    return model
