"""Shared JSON checkpoint format for both neural models.

Layout: {"format_version": 2, "kind": "cnn"|"lstm", "config": {...,
"vocab_size": V}, "vocab": [V stored tokens], "params": {name: {"shape":
[r, c], "data": str}}}. ``data`` is the standard base64 of the parameter's
row-major little-endian float64 bytes, so a reload reproduces every bit.
A checkpoint of any other format version must be retrained.
"""

from __future__ import annotations

import base64
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import TraitgenError
from .numeric import Parameters
from .textproc import Vocabulary, config_from_payload, is_int, read_json, write_json

FORMAT_VERSION = 2


class Model(Parameters):
    """Parameters of one network, each named and shaped by ``shapes``.

    A subclass sets ``kind`` and ``config_type`` and defines
    ``shapes(config, vocab_size)``, the ``{name: (rows, cols)}`` of its
    parameters in checkpoint order. A new model holds zeros, each
    :class:`Parameter` of ``params`` also the attribute of its name.
    """

    kind: str
    config_type: type

    @staticmethod
    def check(config, vocab: Vocabulary) -> None:
        config.validate()
        if len(vocab) < 5:
            raise TraitgenError(f"vocab_size must include the specials, got {len(vocab)}")

    def __init__(self, config, vocab: Vocabulary):
        self.check(config, vocab)
        self.config = config
        self.vocab = vocab
        super().__init__(self.shapes(config, len(vocab)))
        vars(self).update((p.name, p) for p in self.params)


def _decode(data: object, size: int) -> np.ndarray | None:
    """``data`` as ``size`` finite float64s, or None if it is not their base64."""
    try:
        values = np.frombuffer(base64.b64decode(data, validate=True), "<f8")
    except (TypeError, ValueError):  # not a string, not ASCII base64, or not whole float64s
        return None
    return values if values.size == size and np.isfinite(values).all() else None


def params_from_payload(payload: dict,
                        shapes: dict[str, tuple[int, int]]) -> dict[str, np.ndarray]:
    """Each parameter's values, its name, shape and data checked against ``shapes``."""
    if not isinstance(payload, dict):
        raise TraitgenError(f"'params' must be an object, got {type(payload).__name__}")
    if set(payload) != set(shapes):
        raise TraitgenError(
            f"checkpoint parameters {sorted(payload)} do not match model {sorted(shapes)}"
        )
    arrays = {}
    for name, want in shapes.items():
        entry = payload[name]
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(is_int, shape))):
            raise TraitgenError(f"params.{name}.shape must be a pair of integers")
        if tuple(shape) != want:
            raise TraitgenError(
                f"parameter {name!r}: checkpoint shape {tuple(shape)} != model {want}"
            )
        values = _decode(entry.get("data"), want[0] * want[1])
        if values is None:
            raise TraitgenError(f"params.{name}.data must be the base64 of "
                                f"{want[0] * want[1]} finite little-endian float64s")
        arrays[name] = values.reshape(want)
    return arrays


def write_checkpoint(path: str | Path, model: Model) -> None:
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "config": {**asdict(model.config), "vocab_size": len(model.vocab)},
        "vocab": model.vocab.to_list(),
        "params": {
            p.name: {
                "shape": list(p.value.shape),
                "data": base64.b64encode(p.value.astype("<f8").tobytes()).decode("ascii"),
            }
            for p in model.params
        },
    }, indent=None)


def load_model(path: str | Path, model_cls: type[Model]) -> Model:
    """Build the ``model_cls`` model (a ``Model`` subclass) a checkpoint holds.

    The format version and kind are checked first, then the config and
    vocabulary, then each parameter against the model's ``shapes``, all
    before any parameter is allocated; a malformed field raises
    :class:`TraitgenError` naming the path and the field. The config's
    ``vocab_size`` must be a JSON integer equal to the vocabulary's size.
    """
    payload = read_json(path)
    found = payload.get("format_version") if isinstance(payload, dict) else None
    if found != FORMAT_VERSION:
        raise TraitgenError(f"{path}: checkpoint format_version is {found!r}, expected "
                            f"{FORMAT_VERSION}; retrain the model to write this format")
    found = payload.get("kind")
    if found != model_cls.kind:
        raise TraitgenError(f"{path}: expected a {model_cls.kind!r} checkpoint, found {found!r}")
    for key in ("config", "vocab", "params"):
        if key not in payload:
            raise TraitgenError(f"{path}: checkpoint is missing {key!r}")
    try:
        config = payload["config"]
        size = config.pop("vocab_size", None) if isinstance(config, dict) else None
        config = config_from_payload(model_cls.config_type, config)
        vocab = payload["vocab"]
        if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
            raise TraitgenError("'vocab' must be a list of strings")
        vocab = Vocabulary(vocab)
        if not is_int(size) or size != len(vocab):
            raise TraitgenError(f"vocabulary size {len(vocab)} != config vocab_size {size!r}")
        model_cls.check(config, vocab)
        arrays = params_from_payload(payload["params"], model_cls.shapes(config, len(vocab)))
    except TraitgenError as exc:
        raise TraitgenError(f"{path}: {exc}") from exc
    model = model_cls(config, vocab)
    for p in model.params:
        p.value[...] = arrays[p.name]
    return model
