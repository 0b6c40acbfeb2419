from __future__ import annotations

import base64
import json
import struct

import numpy as np
import pytest

from traitgen.checkpoint import (
    FORMAT_VERSION,
    load_model,
    params_from_payload,
    params_to_payload,
    write_checkpoint,
)
from traitgen.classifier import CnnConfig, CnnModel
from traitgen.errors import TraitgenError
from traitgen.generator import LstmConfig, LstmModel
from traitgen.numeric import Parameter, Rng
from traitgen.textproc import Vocabulary, read_json


def test_awkward_floats_roundtrip_bit_exact(tmp_path) -> None:
    values = [[0.1, 1.0 / 3.0, -0.0], [1e-300, 1e300, -7.234567890123456e-05],
              [5e-324, 1.7976931348623157e308, -1.7976931348623157e308]]
    p = Parameter("w", values)
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, "cnn", {"any": 1}, Vocabulary.build([]).to_list(), [p])
    payload = read_json(path)
    q = Parameter("w", np.zeros((3, 3)))
    params_from_payload(payload["params"], [q])
    assert q.value.tobytes() == p.value.tobytes()
    assert q.value.ravel().tolist() == p.value.ravel().tolist()
    assert (np.signbit(q.value) == np.signbit(p.value)).all()


def test_random_values_roundtrip_bit_exact(tmp_path) -> None:
    rng = Rng(101)
    p = Parameter("w", [[20.0 * rng.random() - 10.0 for _ in range(17)] for _ in range(9)])
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, "lstm", {}, Vocabulary.build([]).to_list(), [p])
    q = Parameter("w", np.zeros((9, 17)))
    params_from_payload(read_json(path)["params"], [q])
    assert q.value.ravel().tolist() == p.value.ravel().tolist()


def test_kind_mismatch_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, "cnn", {}, Vocabulary.build([]).to_list(), [])
    with pytest.raises(TraitgenError, match="expected a 'lstm'"):
        load_model(path, "lstm")


def test_not_json_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    path.write_text("definitely not json", encoding="utf-8")
    with pytest.raises(TraitgenError, match="not valid JSON"):
        load_model(path, "cnn")


def test_missing_sections_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "cnn"}),
                    encoding="utf-8")
    with pytest.raises(TraitgenError, match="missing"):
        load_model(path, "cnn")


def test_wrong_format_version_rejected(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format_version": 99}), encoding="utf-8")
    with pytest.raises(TraitgenError, match="format_version is 99, expected 2"):
        load_model(path, "cnn")


def test_param_name_and_shape_mismatches_rejected() -> None:
    p = Parameter("a", np.zeros((2, 2)))
    payload = params_to_payload([p])
    with pytest.raises(TraitgenError, match="do not match"):
        params_from_payload(payload, [Parameter("b", np.zeros((2, 2)))])
    with pytest.raises(TraitgenError, match="shape"):
        params_from_payload(payload, [Parameter("a", np.zeros((2, 3)))])


def test_load_model_dispatches_by_kind(tmp_path) -> None:
    vocab = Vocabulary.build([["x", "x", "y", "y"]])
    cnn = CnnModel.init(
        CnnConfig(vocab_size=len(vocab), embed_dim=2, window=2, num_filters=2, max_len=6),
        vocab, Rng(1),
    )
    lstm = LstmModel.init(
        LstmConfig(vocab_size=len(vocab), embed_dim=2, hidden_dim=2, cond_dim=0, max_len=6),
        vocab, Rng(2),
    )
    cnn_path, lstm_path = tmp_path / "cnn.json", tmp_path / "lstm.json"
    cnn.save(cnn_path)
    lstm.save(lstm_path)
    assert isinstance(load_model(cnn_path, "cnn"), CnnModel)
    assert isinstance(load_model(lstm_path, "lstm"), LstmModel)


def test_data_is_base64_of_row_major_little_endian_float64(tmp_path) -> None:
    values = [[1.0, -2.5, 0.1], [3e-310, 7.0, -0.0]]
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, "cnn", {}, Vocabulary.build([]).to_list(), [Parameter("w", values)])
    entry = read_json(path)["params"]["w"]
    assert entry["shape"] == [2, 3]
    assert entry["data"] == base64.b64encode(struct.pack("<6d", *values[0], *values[1])).decode()
