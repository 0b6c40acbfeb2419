from __future__ import annotations

import json
import string
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitgen import textproc
from traitgen.errors import TraitgenError
from traitgen.textproc import (
    BOS_ID,
    EOS_ID,
    MAX_VOCAB,
    MIN_COUNT,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Document,
    Vocabulary,
    encode,
    read_corpus,
    tokenize,
    write_corpus,
    write_json,
    write_jsonl,
    _escape,
)

# ------------------------------------------------------------------- tokenize


def test_whitespace_mode_collapses_runs() -> None:
    assert tokenize("a b  c") == ["a", "b", "c"]
    assert tokenize(" a\tb\nc ") == ["a", "b", "c"]


def test_empty_text_yields_no_tokens() -> None:
    assert tokenize("") == []
    assert tokenize("   ") == []
    assert tokenize("", mode="cjk_char") == []


def test_cjk_char_mode_splits_ideographs_and_groups_latin() -> None:
    assert tokenize("我爱NLP", mode="cjk_char") == ["我", "爱", "NLP"]
    assert tokenize("深度learning模型", mode="cjk_char") == ["深", "度", "learning", "模", "型"]
    assert tokenize("hello 世界!", mode="cjk_char") == ["hello", "世", "界", "!"]


def test_cjk_char_mode_keeps_emoticons_as_tokens() -> None:
    assert tokenize("好开心😊", mode="cjk_char") == ["好", "开", "心", "😊"]


# the CJK blocks of the cjk_char mode, written out independently of textproc
REFERENCE_CJK_RANGES = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF), (0x20000, 0x2A6DF))


def reference_cjk_tokens(text: str) -> list[str]:
    """The cjk_char mode as a per-character loop: each CJK codepoint is a
    token, and each maximal run of other non-whitespace characters is one."""
    tokens: list[str] = []
    run: list[str] = []
    for ch in text:
        if ch.isspace():
            if run:
                tokens.append("".join(run))
                run = []
        elif any(lo <= ord(ch) <= hi for lo, hi in REFERENCE_CJK_RANGES):
            if run:
                tokens.append("".join(run))
                run = []
            tokens.append(ch)
        else:
            run.append(ch)
    if run:
        tokens.append("".join(run))
    return tokens


CJK_ALPHABET = sorted(
    {chr(c) for c in range(0x110000) if chr(c).isspace()}
    | {chr(c) for lo, hi in REFERENCE_CJK_RANGES for c in (lo - 1, lo, hi, hi + 1)}
    | set(string.ascii_letters) | {"😊"}
    | set("]\\-^")  # special inside a regular expression's character class
)


@given(st.text(alphabet=st.sampled_from(CJK_ALPHABET), max_size=40))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_cjk_char_mode_equals_the_per_character_loop(text: str) -> None:
    assert tokenize(text, mode="cjk_char") == reference_cjk_tokens(text)


def test_unknown_mode_rejected() -> None:
    with pytest.raises(TraitgenError, match="unknown tokenize mode"):
        tokenize("abc", mode="bpe")


def test_lone_surrogate_rejected() -> None:
    with pytest.raises(TraitgenError, match="text is not valid UTF-8"):
        tokenize("bad \ud800 text")


# ----------------------------------------------------------------- vocabulary


def test_empty_corpus_gives_specials_only() -> None:
    v = Vocabulary.build([])
    assert len(v) == 4
    assert v.token_of(PAD_ID) == "<pad>"
    assert v.token_of(UNK_ID) == "<unk>"
    assert v.token_of(BOS_ID) == "<s>"
    assert v.token_of(EOS_ID) == "</s>"


def test_min_count_filters_rare_tokens() -> None:
    v = Vocabulary.build([["x", "x"], ["x", "y"]])
    assert len(v) == 5
    assert v.id_of("x") == 4
    assert v.id_of("y") == UNK_ID


def test_frequency_ties_break_lexicographically() -> None:
    v = Vocabulary.build([["b", "a", "c"]] * 2)
    assert [v.token_of(i) for i in range(4, 7)] == ["a", "b", "c"]


def test_ranking_is_frequency_first() -> None:
    v = Vocabulary.build([["z", "z", "z", "a"]] * 2)
    assert v.token_of(4) == "z"
    assert v.token_of(5) == "a"


def test_max_size_truncates() -> None:
    # one frequent token, then more tied ones than the ids left for them
    tied = [f"t{i:05d}" for i in range(MAX_VOCAB)]
    v = Vocabulary.build([["zz"] * 3, tied * 2])
    assert len(v) == MAX_VOCAB
    assert v.id_of("zz") == 4  # frequency first
    assert v.id_of(tied[0]) == 5  # then ties in token order, up to the cap
    assert v.id_of(tied[MAX_VOCAB - 6]) == MAX_VOCAB - 1
    assert v.id_of(tied[MAX_VOCAB - 5]) == UNK_ID


def test_build_is_deterministic() -> None:
    corpus = [["m", "n", "m"], ["n", "o"]]
    assert Vocabulary.build(corpus).to_list() == Vocabulary.build(corpus).to_list()


def test_special_surface_forms_are_escaped_not_collided() -> None:
    v = Vocabulary.build([["<pad>", "<pad>", "</s>", "</s>"]])
    tok_id = v.id_of("<pad>")
    assert tok_id >= 4
    assert v.token_of(tok_id) == "<pad>"
    assert v.token_of(PAD_ID) == "<pad>"  # the true special keeps its surface
    row = encode([["<pad>", "</s>"]], v, max_len=6)[0][0].tolist()
    assert row[1] == tok_id
    assert [v.token_of(i) for i in row[1:3]] == ["<pad>", "</s>"]


def test_token_of_rejects_out_of_range() -> None:
    v = Vocabulary.build([])
    with pytest.raises(TraitgenError, match="id 4 outside vocabulary"):
        v.token_of(4)
    with pytest.raises(TraitgenError, match="id -1 outside vocabulary"):
        v.token_of(-1)


# --------------------------------------------------------------------- encode


def test_encode_empty_tokens() -> None:
    v = Vocabulary.build([])
    ids, lengths = encode([[]], v, max_len=4)
    assert ids.tolist() == [[BOS_ID, EOS_ID, PAD_ID, PAD_ID]]
    assert lengths.tolist() == [2]


def test_encode_unknown_token_maps_to_unk() -> None:
    v = Vocabulary.build([])
    ids, _ = encode([["mystery"]], v, max_len=4)
    assert ids[0, 1] == UNK_ID


def test_encode_truncates_keeping_prefix_and_eos() -> None:
    corpus = [[f"w{i}" for i in range(10)]]
    v = Vocabulary.build(corpus * 2)
    tokens = [f"w{i}" for i in range(10)]
    ids, lengths = encode([tokens], v, max_len=6)
    row = ids[0].tolist()
    assert len(row) == 6 and lengths.tolist() == [6]
    assert row[0] == BOS_ID
    assert row[5] == EOS_ID
    assert [v.token_of(i) for i in row[1:5]] == tokens[:4]


def test_encode_rejects_tiny_max_len() -> None:
    with pytest.raises(TraitgenError, match="max_len must be at least 2"):
        encode([], Vocabulary.build([]), max_len=1)


def test_pad_exactly_past_length() -> None:
    v = Vocabulary.build([["a", "b", "a", "b"]])
    ids, lengths = encode([["a", "b"], [], ["b"] * 9], v, max_len=8)
    for row, length in zip(ids.tolist(), lengths.tolist()):
        assert [i == PAD_ID for i in row] == [t >= length for t in range(8)]


_token_alphabet = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=6
)


@given(st.lists(_token_alphabet, min_size=0, max_size=10))
@settings(max_examples=60, deadline=None)
def test_decode_encode_roundtrip_for_in_vocab_tokens(tokens: list[str]) -> None:
    v = Vocabulary.build([tokens] * 2)
    ids, _ = encode([tokens], v, max_len=len(tokens) + 2)
    assert [v.token_of(i) for i in ids[0, 1:-1].tolist()] == tokens


_awkward_token = st.one_of(
    _token_alphabet,
    st.sampled_from(SPECIAL_TOKENS),
    _token_alphabet.map(lambda t: "\x1f" + t),
    st.sampled_from(SPECIAL_TOKENS).map(lambda t: "\x1f" + t),
    st.just("\x1f"),
    st.just("\x1f\x1f"),
)


@given(st.lists(_awkward_token, max_size=12), st.lists(_awkward_token, max_size=6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_id_of_agrees_with_escape_reference(corpus: list[str], queries: list[str]) -> None:
    v = Vocabulary.build([corpus] * 2)
    stored = {t: i for i, t in enumerate(v.to_list())}
    for token in corpus + queries:
        expected = stored.get(_escape(token), UNK_ID)
        assert v.id_of(token) == expected
        assert (token in v) == (expected != UNK_ID)
    for token_id in range(4, len(v)):
        assert v.id_of(v.token_of(token_id)) == token_id


def _reference_build(corpus: list[list[str]], cap: int) -> list[str]:
    """The stored token list of a vocabulary built by escaping every token, then counting."""
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(_escape(t) for t in tokens)
    kept = sorted((t for t, c in counts.items() if c >= MIN_COUNT),
                  key=lambda t: (-counts[t], t))[: cap - 4]
    return list(SPECIAL_TOKENS) + kept


@given(st.lists(st.lists(_awkward_token, max_size=12), max_size=8),
       st.sampled_from([4, 5, 6, 8, 12, MAX_VOCAB]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_build_agrees_with_escape_every_token_reference(corpus: list[list[str]],
                                                        cap: int) -> None:
    """A small cap puts tied awkward tokens on both sides of the cut."""
    with mock.patch.object(textproc, "MAX_VOCAB", cap):
        assert Vocabulary.build(corpus).to_list() == _reference_build(corpus, cap)


@given(st.lists(_awkward_token, max_size=12), st.lists(st.lists(_awkward_token, max_size=14),
                                                       max_size=6), st.integers(2, 12))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_encode_rows_are_bos_ids_eos_then_pad(corpus: list[str], token_lists: list[list[str]],
                                              max_len: int) -> None:
    v = Vocabulary.build([corpus] * 2)
    stored = {t: i for i, t in enumerate(v.to_list())}
    ids, lengths = encode(token_lists, v, max_len)
    assert ids.shape == (len(token_lists), max_len) and ids.dtype == np.int64
    assert lengths.shape == (len(token_lists),) and lengths.dtype == np.int64
    for row, length, tokens in zip(ids.tolist(), lengths.tolist(), token_lists):
        assert length == min(len(tokens), max_len - 2) + 2
        body = [stored.get(_escape(t), UNK_ID) for t in tokens[:length - 2]]
        assert row == [BOS_ID, *body, EOS_ID] + [PAD_ID] * (max_len - length)
    none_ids, none_lengths = encode([], v, max_len)
    assert none_ids.shape == (0, max_len) and none_lengths.shape == (0,)


# --------------------------------------------------------------- corpus files


def test_corpus_roundtrip(tmp_path) -> None:
    docs = [
        Document("a b c", ["a", "b", "c"], labels={"E": 1, "A": 0, "C": 1, "N": 0, "O": 1}),
        Document("d e", ["d", "e"]),
        Document(
            "f", ["f"], levels={"E": "low", "A": "medium", "C": "high", "N": "low", "O": "low"}
        ),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, docs)
    loaded = read_corpus(path)
    assert [d.raw_text for d in loaded] == ["a b c", "d e", "f"]
    assert loaded[0].labels == {"E": 1, "A": 0, "C": 1, "N": 0, "O": 1}
    assert loaded[1].labels is None
    assert loaded[2].levels["A"] == "medium"
    assert loaded[0].tokens == ["a", "b", "c"]


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_corpus_records_end_at_line_feeds_only(tmp_path, separator) -> None:
    """write_jsonl leaves these characters raw; str.splitlines once split a record at them."""
    text = f"a{separator}b"
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [Document(text, tokenize(text)), Document("c", ["c"])])
    assert [d.raw_text for d in read_corpus(path)] == [text, "c"]
    path.write_bytes(b'{"text": "a"}\r\n\r\n{"text": "b"}\r\n')  # CRLF still reads
    assert [d.raw_text for d in read_corpus(path)] == ["a", "b"]


def test_corpus_write_is_byte_deterministic(tmp_path) -> None:
    docs = [Document("x y", ["x", "y"], labels={"E": 0, "A": 1, "C": 0, "N": 1, "O": 0})]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(p1, docs)
    write_corpus(p2, docs)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_json_sorts_keys_and_keeps_utf8(tmp_path) -> None:
    path = tmp_path / "x.json"
    write_json(path, {"b": "é", "a": [1]})
    assert path.read_bytes() == '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'.encode()
    write_json(path, {"b": 1, "a": 2}, indent=None)
    assert path.read_bytes() == b'{"a": 2, "b": 1}\n'


def test_write_jsonl_failing_part_way_keeps_the_old_file(tmp_path) -> None:
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"a": 1}])
    old = path.read_bytes()

    def records():
        for i in range(5000):  # well past one write buffer
            yield {"i": i, "pad": "x" * 50}
        assert (tmp_path / ".out.jsonl.tmp").stat().st_size > 0
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        write_jsonl(path, records())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_malformed_line_reports_line_number(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(TraitgenError, match=":2:"):
        read_corpus(path)


def test_json_boolean_labels_read_and_write_back_as_integers(tmp_path) -> None:
    path = tmp_path / "in.jsonl"
    labels = {"E": True, "A": False, "C": 1, "N": 0.0, "O": 1.0}
    path.write_text(json.dumps({"text": "a", "labels": labels}) + "\n", encoding="utf-8")
    docs = read_corpus(path)
    assert docs[0].labels == {"E": 1, "A": 0, "C": 1, "N": 0, "O": 1}
    assert all(type(v) is int for v in docs[0].labels.values())
    write_corpus(tmp_path / "out.jsonl", docs)
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == (
        '{"labels": {"A": 0, "C": 1, "E": 1, "N": 0, "O": 1}, "text": "a"}\n')


@pytest.mark.parametrize("field, value", [
    ("labels", {"E": 2, "A": 0, "C": 1, "N": 0, "O": 1}),
    ("labels", {"E": "1", "A": 0, "C": 1, "N": 0, "O": 1}),
    ("levels", {"E": "mid", "A": "low", "C": "low", "N": "low", "O": "low"}),
    ("levels", {"E": "low", "A": "low", "C": "low", "N": "low", "O": "low", "X": "low"}),
    ("levels", ["low"] * 5),
])
def test_bad_trait_map_names_the_line_and_the_map(tmp_path, field, value) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"text": "a", field: value}) + "\n", encoding="utf-8")
    with pytest.raises(TraitgenError, match=f":1: {field}"):
        read_corpus(path)


def test_missing_text_field_rejected(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"label": 1}\n', encoding="utf-8")
    with pytest.raises(TraitgenError, match=":1:"):
        read_corpus(path)


def test_partial_labels_rejected(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"text": "a", "labels": {"E": 1}}) + "\n", encoding="utf-8")
    with pytest.raises(TraitgenError, match="labels must be an object keyed by exactly the traits"):
        read_corpus(path)


def test_unknown_fields_ignored(tmp_path) -> None:
    path = tmp_path / "ok.jsonl"
    path.write_text(json.dumps({"text": "a b", "meta": {"x": 1}}) + "\n", encoding="utf-8")
    docs = read_corpus(path)
    assert docs[0].tokens == ["a", "b"]
