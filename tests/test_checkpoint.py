from __future__ import annotations

import base64
import contextlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from traitgen.checkpoint import FORMAT_VERSION, load_model, params_from_payload, write_checkpoint
from traitgen.classifier import CnnConfig, CnnModel
from traitgen.cli import main
from traitgen.errors import TraitgenError
from traitgen.generator import LstmConfig, LstmModel
from traitgen.numeric import Rng
from traitgen.textproc import Vocabulary, read_json

_VOCAB = Vocabulary.build([["x", "x", "y", "y"]])


def _tiny_lstm() -> LstmModel:
    config = LstmConfig(embed_dim=3, hidden_dim=8, cond_dim=0, max_len=6)
    return LstmModel(config, _VOCAB)


def _tiny_cnn() -> CnnModel:
    """conv_w is 2 x 3: two filters over a window of three one-wide embeddings."""
    config = CnnConfig(embed_dim=1, window=3, num_filters=2, max_len=6)
    return CnnModel(config, _VOCAB)


def _roundtrip(model, tmp_path) -> dict[str, np.ndarray]:
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, model)
    shapes = model.shapes(model.config, len(model.vocab))
    return params_from_payload(read_json(path)["params"], shapes)


def test_awkward_floats_roundtrip_bit_exact(tmp_path) -> None:
    values = [0.1, 1.0 / 3.0, -0.0, 1e-300, 1e300, -7.234567890123456e-05,
              5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    model = _tiny_lstm()
    for p in model.params:
        p.value[...] = np.resize(values, p.value.shape)
    loaded = _roundtrip(model, tmp_path)
    for p in model.params:
        q = loaded[p.name]
        assert q.tobytes() == p.value.tobytes()
        assert q.ravel().tolist() == p.value.ravel().tolist()
        assert (np.signbit(q) == np.signbit(p.value)).all()


def test_random_values_roundtrip_bit_exact(tmp_path) -> None:
    rng = Rng(101)
    model = _tiny_cnn()
    for p in model.params:
        p.value[...] = [[20.0 * rng.random() - 10.0 for _ in row] for row in p.value]
    loaded = _roundtrip(model, tmp_path)
    for p in model.params:
        assert loaded[p.name].ravel().tolist() == p.value.ravel().tolist()


def test_kind_mismatch_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, _tiny_cnn())
    with pytest.raises(TraitgenError, match="expected a 'lstm'"):
        load_model(path, LstmModel)


def test_not_json_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    path.write_text("definitely not json", encoding="utf-8")
    with pytest.raises(TraitgenError, match="not valid JSON"):
        load_model(path, CnnModel)


def test_missing_sections_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "cnn"}),
                    encoding="utf-8")
    with pytest.raises(TraitgenError, match="missing"):
        load_model(path, CnnModel)


def test_wrong_format_version_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format_version": 99}), encoding="utf-8")
    with pytest.raises(TraitgenError, match="format_version is 99, expected 2"):
        load_model(path, CnnModel)


def test_param_name_and_shape_mismatches_rejected(tmp_path) -> None:
    model = _tiny_cnn()
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, model)
    payload = read_json(path)["params"]
    shapes = model.shapes(model.config, len(model.vocab))
    renamed = {("b" if name == "conv_b" else name): shape for name, shape in shapes.items()}
    with pytest.raises(TraitgenError, match="do not match"):
        params_from_payload(payload, renamed)
    with pytest.raises(TraitgenError, match="shape"):
        params_from_payload(payload, {**shapes, "conv_w": (2, 4)})


def test_load_model_dispatches_by_kind(tmp_path) -> None:
    vocab = Vocabulary.build([["x", "x", "y", "y"]])
    cnn = CnnModel.init(
        CnnConfig(embed_dim=2, window=2, num_filters=2, max_len=6),
        vocab, Rng(1),
    )
    lstm = LstmModel.init(
        LstmConfig(embed_dim=2, hidden_dim=2, cond_dim=0, max_len=6),
        vocab, Rng(2),
    )
    cnn_path, lstm_path = tmp_path / "cnn.json", tmp_path / "lstm.json"
    cnn.save(cnn_path)
    lstm.save(lstm_path)
    for model, path in ((cnn, cnn_path), (lstm, lstm_path)):
        loaded = load_model(path, type(model))
        assert type(loaded) is type(model) and loaded.config == model.config


def test_data_is_base64_of_row_major_little_endian_float64(tmp_path) -> None:
    values = [[1.0, -2.5, 0.1], [3e-310, 7.0, -0.0]]
    model = _tiny_cnn()
    model.conv_w.value[...] = values
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, model)
    entry = read_json(path)["params"]["conv_w"]
    assert entry["shape"] == [2, 3]
    assert entry["data"] == base64.b64encode(struct.pack("<6d", *values[0], *values[1])).decode()


def _traced_peak(path) -> int:
    """Peak bytes traced while loading the generator at ``path``, load errors included."""
    tracemalloc.start()
    try:
        with contextlib.suppress(TraitgenError):
            load_model(path, LstmModel)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shapes_are_checked_before_any_parameter_is_allocated(tmp_path) -> None:
    """A tiny checkpoint whose config implies large parameters costs less to reject
    than the valid one costs to load."""
    valid, oversized = tmp_path / "valid.json", tmp_path / "oversized.json"
    _tiny_lstm().save(valid)
    payload = read_json(valid)
    payload["config"]["embed_dim"] = 10 ** 4
    oversized.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(TraitgenError, match="'embedding': checkpoint shape"):
        load_model(oversized, LstmModel)
    load_model(valid, LstmModel)  # untraced, so neither traced load pays first-call costs
    assert _traced_peak(oversized) < _traced_peak(valid)


def test_integer_float_fields_load_as_floats(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    _tiny_lstm().save(path)
    payload = read_json(path)
    payload["config"].update(temperature=1, learning_rate=1)
    path.write_text(json.dumps(payload), encoding="utf-8")
    config = load_model(path, LstmModel).config
    assert (config.temperature, config.learning_rate) == (1.0, 1.0)
    assert type(config.temperature) is float and type(config.learning_rate) is float


_V = len(_VOCAB)


@pytest.mark.parametrize("size", [None, str(_V), True, float(_V), _V + 1],
                         ids=["missing", "string", "bool", "float", "one-more"])
def test_config_vocab_size_must_be_the_vocabulary_size(tmp_path, capsys, size) -> None:
    """The stored vocab_size is a JSON integer equal to the vocabulary's size."""
    path, pool = tmp_path / "generator.json", tmp_path / "pool.txt"
    write_checkpoint(path, _tiny_lstm())
    payload = read_json(path)
    assert payload["config"]["vocab_size"] == _V
    if size is None:
        del payload["config"]["vocab_size"]
    else:
        payload["config"]["vocab_size"] = size
    path.write_text(json.dumps(payload), encoding="utf-8")
    pool.write_text("x\n", encoding="utf-8")
    assert main(["generate", "--model", str(path), "--seed-pool", str(pool),
                 "--out", str(tmp_path / "texts.jsonl")]) == 2
    assert capsys.readouterr().err == (f"traitgen: error: {path}: vocabulary size {_V} "
                                       f"!= config vocab_size {size!r}\n")
