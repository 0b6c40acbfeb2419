from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traitgen.errors import TraitgenError
from traitgen.generator import LstmConfig, LstmModel
from traitgen.harness import (
    MAX_MARKER_SET,
    SynthSpec,
    _bit_length,
    _chain_successors,
    _report,
    default_synth_spec,
    evaluate_generation,
    matched_lexicon,
    render_table,
    synth_corpus,
)
from traitgen.lexicon import (
    assign_levels,
    calibrate_thresholds,
    save_lexicon,
    score_tokens,
    scores_by_trait,
)
from traitgen.numeric import Rng
from traitgen.textproc import Document, Vocabulary, write_corpus, write_json
from traitgen.traits import HIGH, LOW, MEDIUM, TRAITS, parse_condition


def small_spec(pi=0.3, len_min=8, len_max=14, n_neutral=30) -> SynthSpec:
    markers = {
        t: {
            "high": [f"{t.lower()}hi{j}" for j in range(3)],
            "low": [f"{t.lower()}lo{j}" for j in range(3)],
        }
        for t in TRAITS
    }
    return SynthSpec(
        neutral_tokens=[f"n{i:02d}" for i in range(n_neutral)],
        markers=markers,
        pi=pi,
        len_min=len_min,
        len_max=len_max,
    )


# ----------------------------------------------------------------------- spec


def test_default_spec_is_valid_and_sized_as_documented() -> None:
    spec = default_synth_spec()
    spec.validate()
    assert len(spec.neutral_tokens) == 340
    assert sum(len(spec.markers[t][k]) for t in TRAITS for k in ("high", "low")) == 60


def test_spec_rejects_overlapping_sets() -> None:
    spec = small_spec()
    spec.markers["E"]["high"][0] = spec.neutral_tokens[0]
    with pytest.raises(TraitgenError, match="appears in both"):
        spec.validate()


def test_spec_rejects_empty_sets_and_bad_pi() -> None:
    spec = small_spec()
    spec.markers["A"]["low"] = []
    with pytest.raises(TraitgenError, match="token set A_low is empty"):
        spec.validate()
    spec = small_spec()
    spec.pi = 0.0
    with pytest.raises(TraitgenError, match=r"pi must be in \(0, 1\]"):
        spec.validate()
    spec = small_spec()
    spec.len_min = 3
    with pytest.raises(TraitgenError, match="len_min must be at least 4"):
        spec.validate()


def test_spec_caps_marker_sets_at_64_tokens() -> None:
    spec = small_spec()
    spec.markers["E"]["high"] = [f"ehi{j}" for j in range(MAX_MARKER_SET)]
    spec.neutral_tokens = [f"n{j}" for j in range(MAX_MARKER_SET + 1)]  # neutral is uncapped
    spec.validate()
    spec.markers["O"]["low"] = [f"olo{j}" for j in range(MAX_MARKER_SET + 1)]
    with pytest.raises(TraitgenError, match="token set O_low has 65 tokens, more than 64"):
        spec.validate()


def test_spec_file_roundtrip(tmp_path) -> None:
    spec = small_spec()
    path = tmp_path / "spec.json"
    spec.save(path)
    loaded = SynthSpec.load(path)
    assert loaded == spec


def test_spec_file_integer_pi_loads_and_saves_as_a_float(tmp_path) -> None:
    path = tmp_path / "spec.json"
    small_spec(pi=1).save(path)
    assert json.loads(path.read_text(encoding="utf-8"))["pi"] == 1  # written as an integer
    loaded = SynthSpec.load(path)
    assert loaded.pi == 1.0 and type(loaded.pi) is float
    loaded.save(path)
    assert type(json.loads(path.read_text(encoding="utf-8"))["pi"]) is float  # written as 1.0


@pytest.mark.parametrize("path, value, message", [
    (("neutral_tokens",), "abcdef", "token set neutral must be a JSON list, got str"),
    (("markers", "E", "high"), "xyz", "token set E_high must be a JSON list, got str"),
    (("markers",), [["ehi0"], ["elo0"]], "markers must be a JSON object, got list"),
    (("markers", "E"), [["ehi0"], ["elo0"]], "markers.E must be a JSON object, got list"),
], ids=["neutral-string", "marker-string", "markers-list", "trait-markers-list"])
def test_spec_rejects_token_sets_and_marker_maps_of_the_wrong_json_type(path, value,
                                                                        message) -> None:
    """A string token set once passed as a set of its characters."""
    spec = small_spec()
    node = vars(spec)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    for call in (spec.validate, lambda: synth_corpus(spec, 3, Rng(1))):
        with pytest.raises(TraitgenError) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("pi", "0.5", "spec.pi must be a number, got str"),
    ("pi", math.nan, "spec.pi must be a finite number"),
    ("len_min", 8.0, "spec.len_min must be an integer, got float"),
    ("len_max", True, "spec.len_max must be an integer, got bool"),
    ("neutral_bigram_smoothing", None,
     "spec.neutral_bigram_smoothing must be a number, got NoneType"),
], ids=["pi-string", "pi-nan", "len-min-float", "len-max-bool", "smoothing-null"])
def test_spec_rejects_numbers_of_the_wrong_json_type(tmp_path, field, value, message) -> None:
    """The library path once raised TypeError here; it now gives a spec file's message."""
    spec = small_spec()
    setattr(spec, field, value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(vars(spec)), encoding="utf-8")
    for call in (spec.validate, lambda: synth_corpus(spec, 3, Rng(1)),
                 lambda: SynthSpec.load(path)):
        with pytest.raises(TraitgenError) as raised:
            call()
        assert str(raised.value) == message


# --------------------------------------------------------------------- corpus


def test_zero_docs_still_emits_lexicon() -> None:
    docs, lex = synth_corpus(small_spec(), 0, Rng(1))
    assert docs == []
    assert lex.num_categories == 10


def test_corpus_is_byte_deterministic(tmp_path) -> None:
    spec = small_spec()
    docs1, _ = synth_corpus(spec, 25, Rng(9))
    docs2, _ = synth_corpus(spec, 25, Rng(9))
    p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    write_corpus(p1, docs1)
    write_corpus(p2, docs2)
    assert p1.read_bytes() == p2.read_bytes()


def corpus_sha256(docs: list[Document]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_corpus(path, docs)
        return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("n, seed, digest", [
    (1, 0, "17fee4ff6d8f8ab6648f0a65b5e00f879430dab67d0c65b2e759aa2267f16f3e"),
    (40, 0, "fe1287b6ec8e5221655149a804ba75e4c09dda42ff8d5adf24f0c0a3b294c4dd"),
    (57, 1, "c1512f4eb12a5b72182614752cc262061811af03ce663ed65c51e7b9f08d65b7"),
    (128, 12345, "5ad59a4ab5c20a80abbffe18fbd020e58b5f9a8db50fb9bc0e4204637a621391"),
    (300, 2 ** 64 - 1, "62704d18000e97156be8f16e1540ce0a57006d0165fd3723edcd47063001bd80"),
    (1500, 1, "243e879567e631136d9fe604195bef8ec29c797ee7d19b766baf5fdf21d42f73"),
])
def test_frozen_corpus_bytes(n, seed, digest) -> None:
    # pins the draw order of the default corpus, as test_frozen_regression_values
    # pins the generator: a reordered draw changes these bytes
    docs, _ = synth_corpus(default_synth_spec(), n, Rng(seed))
    assert corpus_sha256(docs) == digest


@pytest.mark.parametrize("make_spec, spec_digest, lexicon_digest", [
    (small_spec, "965b6d3e6077075aa205d17acfbf275f704aa4318f16e681cf830cfe349c3213",
     "b8daccb0a12bdadf1a2d7ed5615022c92d4dcaa690032505c1b72eda75d6adb3"),
    (default_synth_spec, "81f9cd28be3e3f94548a1b416ebce04e64ec8a365093c503976612528e66a7c4",
     "fe2b843b7f26ff45fbd1ca3dfd82d18fa4d4216982274af73b66f6dfe2bd8a6e"),
])
def test_frozen_spec_and_lexicon_bytes(tmp_path, make_spec, spec_digest, lexicon_digest) -> None:
    # synth's other two outputs: spec.json's key set and order, and the matched lexicon
    spec = make_spec()
    _, lexicon = synth_corpus(spec, 0, Rng(1))
    spec.save(tmp_path / "spec.json")
    save_lexicon(lexicon, tmp_path / "lexicon.json")
    assert hashlib.sha256((tmp_path / "spec.json").read_bytes()).hexdigest() == spec_digest
    assert hashlib.sha256((tmp_path / "lexicon.json").read_bytes()).hexdigest() == lexicon_digest


def test_doc_lengths_respect_bounds_and_labels_present() -> None:
    spec = small_spec(len_min=5, len_max=9)
    docs, _ = synth_corpus(spec, 40, Rng(3))
    for doc in docs:
        assert 5 <= len(doc.tokens) <= 9
        assert set(doc.labels) == set(TRAITS)


def test_label_marginals_near_half() -> None:
    docs, _ = synth_corpus(small_spec(), 1000, Rng(5))
    for t in TRAITS:
        frac = sum(d.labels[t] for d in docs) / len(docs)
        # binomial 3 sigma at n=1000
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 1000)


def test_pi_one_all_high_documents_contain_only_high_markers() -> None:
    spec = small_spec(pi=1.0)
    docs, lex = synth_corpus(spec, 200, Rng(7))
    high_tokens = set().union(*(spec.markers[t]["high"] for t in TRAITS))
    all_high_docs = [d for d in docs if all(d.labels[t] == 1 for t in TRAITS)]
    assert all_high_docs, "with 200 docs some should draw the all-high latent"
    for doc in all_high_docs:
        assert set(doc.tokens) <= high_tokens
        scores = score_tokens(doc.tokens, lex)
        assert all(v >= 0.0 for v in scores.values())


# -------------------------------------------------------------------- oracles


def marker_count_label(tokens: list[str], spec: SynthSpec) -> dict[str, int | None]:
    """Independent counting check: sign of (high hits - low hits) per trait.

    Returns None for a trait when the counts tie (including zero markers),
    meaning the check abstains.
    """
    out: dict[str, int | None] = {}
    for t in TRAITS:
        high = sum(tok in set(spec.markers[t]["high"]) for tok in tokens)
        low = sum(tok in set(spec.markers[t]["low"]) for tok in tokens)
        out[t] = None if high == low else int(high > low)
    return out


def test_counting_oracle_abstains_without_markers() -> None:
    spec = small_spec()
    out = marker_count_label(["n00", "n01"], spec)
    assert all(v is None for v in out.values())


def test_counting_oracle_tracks_latent_bits_as_signal_grows() -> None:
    spec = small_spec(pi=0.8, len_min=20, len_max=25)
    docs, _ = synth_corpus(spec, 150, Rng(13))
    checked = correct = 0
    for doc in docs:
        guess = marker_count_label(doc.tokens, spec)
        for t in TRAITS:
            if guess[t] is not None:
                checked += 1
                correct += int(guess[t] == doc.labels[t])
    assert checked > 500
    assert correct / checked > 0.97


# ----------------------------------------------------------- scalar reference


def reference_marker_index(rng: Rng, n: int) -> int:
    """Token j of a set of n carries weight 2^(n-1-j): walk the partial sums."""
    r = rng.randint((1 << n) - 1)
    acc = 0
    for j in range(n):
        acc += 1 << (n - 1 - j)
        if r < acc:
            return j
    return n - 1


def reference_document(spec: SynthSpec, rng: Rng) -> Document:
    """One document, token by token, from one scalar stream."""
    bits = {t: rng.coin() for t in TRAITS}
    length = spec.len_min + rng.randint(spec.len_max - spec.len_min + 1)
    n_neutral = len(spec.neutral_tokens)
    tokens: list[str] = []
    prev_neutral: int | None = None
    for _ in range(length):
        if rng.random() < spec.pi:
            trait = TRAITS[rng.randint(len(TRAITS))]
            pool = spec.markers[trait]["high" if bits[trait] else "low"]
            tokens.append(pool[reference_marker_index(rng, len(pool))])
        else:
            if prev_neutral is None or rng.random() < spec.neutral_bigram_smoothing:
                idx = rng.randint(n_neutral)
            else:
                successors = _chain_successors(prev_neutral, n_neutral)
                idx = successors[rng.randint(len(successors))]
            tokens.append(spec.neutral_tokens[idx])
            prev_neutral = idx
    return Document(raw_text=" ".join(tokens), tokens=tokens, labels=bits)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.integers(1, 2 ** 64 - 1), max_size=20))
@example(values=[1, 2, 3, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1])
@example(values=[(1 << k) - 1 for k in range(1, 65)] + [1 << k for k in range(64)])
def test_bit_length_is_exact_over_uint64(values) -> None:
    got = _bit_length(np.array(values, dtype=np.uint64))
    assert got.tolist() == [v.bit_length() for v in values]


@st.composite
def synth_specs(draw) -> SynthSpec:
    sizes = draw(st.lists(st.integers(1, MAX_MARKER_SET), min_size=10, max_size=10))
    sizes = iter(sizes)
    markers = {t: {k: [f"{t.lower()}{k}{j}" for j in range(next(sizes))]
                   for k in ("high", "low")} for t in TRAITS}
    len_min = draw(st.integers(4, 12))
    return SynthSpec(
        neutral_tokens=[f"n{i}" for i in range(draw(st.integers(1, 40)))],
        markers=markers,
        pi=draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True)),
        len_min=len_min,
        len_max=len_min + draw(st.integers(0, 8)),
        neutral_bigram_smoothing=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=synth_specs(), n_docs=st.integers(0, 60), seed=st.integers(0, 2 ** 64 - 1))
@example(spec=default_synth_spec(), n_docs=60, seed=2 ** 64 - 1)
@example(spec=SynthSpec(  # 64- and 1-token sets; 34 neutral tokens dedupe to 2 successors
    neutral_tokens=[f"n{i}" for i in range(34)],
    markers={t: {"high": [f"{t}h{j}" for j in range(MAX_MARKER_SET)], "low": [f"{t}l"]}
             for t in TRAITS},
    pi=0.5, len_min=12, len_max=12, neutral_bigram_smoothing=0.0), n_docs=60, seed=0)
def test_synth_corpus_equals_the_scalar_reference(spec, n_docs, seed) -> None:
    """Document i is the token-by-token draw from ``rng.spawn(i)``, whatever
    the set sizes, successor lists, pi and smoothing."""
    docs, _ = synth_corpus(spec, n_docs, Rng(seed))
    expected = [reference_document(spec, Rng(seed).spawn(i)) for i in range(n_docs)]
    assert [d.tokens for d in docs] == [d.tokens for d in expected]
    assert [d.raw_text for d in docs] == [d.raw_text for d in expected]
    assert [d.labels for d in docs] == [d.labels for d in expected]
    assert all(type(v) is int for d in docs for v in d.labels.values())
    assert corpus_sha256(docs) == corpus_sha256(expected)


# ------------------------------------------------------------ matched lexicon


def test_matched_lexicon_has_plus_minus_one_structure() -> None:
    spec = small_spec()
    lex = matched_lexicon(spec)
    assert [c.name for c in lex.categories] == [
        f"{t}_{p}" for t in TRAITS for p in ("high", "low")
    ]
    for ti, t in enumerate(TRAITS):
        high_row = lex.weights[2 * ti]
        low_row = lex.weights[2 * ti + 1]
        assert high_row[ti] == 1.0 and low_row[ti] == -1.0
        assert sum(abs(v) for v in high_row) == 1.0
        assert sum(abs(v) for v in low_row) == 1.0


def test_high_marker_only_document_scores_positive_on_its_trait_only() -> None:
    spec = small_spec()
    lex = matched_lexicon(spec)
    tokens = spec.markers["E"]["high"] * 2
    scores = score_tokens(tokens, lex)
    assert scores["E"] > 0.0
    assert all(scores[t] == 0.0 for t in TRAITS if t != "E")


def test_tertile_calibration_separates_planted_clusters_purely() -> None:
    # with pi = 1 every Low/High assignment must be polarity-correct:
    # the extreme buckets contain only their own cluster
    spec = small_spec(pi=1.0, len_min=15, len_max=25)
    docs, lex = synth_corpus(spec, 300, Rng(17))
    thresholds = calibrate_thresholds(scores_by_trait((d.tokens for d in docs), lex))
    for doc in docs:
        levels = assign_levels(score_tokens(doc.tokens, lex), thresholds)
        for t in TRAITS:
            if levels[t] == HIGH:
                assert doc.labels[t] == 1
            elif levels[t] == LOW:
                assert doc.labels[t] == 0


# ----------------------------------------------------------------- evaluation


def eval_fixture():
    spec = small_spec()
    docs, lex = synth_corpus(spec, 60, Rng(19))
    markers = [tok for t in TRAITS for k in ("high", "low") for tok in spec.markers[t][k]]
    vocab = Vocabulary.build([spec.neutral_tokens + markers] * 2)
    cond = LstmModel.init(
        LstmConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, cond_dim=5, max_len=10),
        vocab, Rng(23),
    )
    uncond = LstmModel.init(
        LstmConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, cond_dim=0, max_len=10),
        vocab, Rng(29),
    )
    thresholds = calibrate_thresholds(scores_by_trait((d.tokens for d in docs), lex))
    pool = spec.neutral_tokens[:5]
    return cond, uncond, lex, thresholds, pool


def test_evaluation_distributions_sum_to_one() -> None:
    cond, uncond, lex, thresholds, pool = eval_fixture()
    report, _ = evaluate_generation(cond, uncond, lex, thresholds, 4, pool, Rng(31))
    for t in TRAITS:
        for row in ("low_condition", "high_condition", "unconditional"):
            assert sum(report["dimensions"][t][row].values()) == pytest.approx(1.0, abs=1e-9)
    assert report["n_per_condition"] == 4


def test_evaluation_is_deterministic() -> None:
    cond, uncond, lex, thresholds, pool = eval_fixture()
    r1 = evaluate_generation(cond, uncond, lex, thresholds, 3, pool, Rng(37))
    r2 = evaluate_generation(cond, uncond, lex, thresholds, 3, pool, Rng(37))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_evaluation_requires_proper_models() -> None:
    cond, uncond, lex, thresholds, pool = eval_fixture()
    with pytest.raises(TraitgenError, match="evaluation needs a conditional model"):
        evaluate_generation(uncond, uncond, lex, thresholds, 2, pool, Rng(0))
    with pytest.raises(TraitgenError, match="baseline model must be unconditional"):
        evaluate_generation(cond, cond, lex, thresholds, 2, pool, Rng(0))
    with pytest.raises(TraitgenError, match="n_per_condition must be positive"):
        evaluate_generation(cond, uncond, lex, thresholds, 0, pool, Rng(0))


def test_evaluation_collects_per_text_records() -> None:
    cond, uncond, lex, thresholds, pool = eval_fixture()
    report, rows = evaluate_generation(cond, uncond, lex, thresholds, 2, pool, Rng(41))
    assert len(rows) == 5 * 2 * 2 + 2  # conditional batches plus shared pool
    assert all("text" in r and "levels" in r for r in rows)
    conditional, unconditional = rows[:20], rows[20:]
    assert all(r["condition"] is not None for r in conditional)
    assert all(r["condition"] is None and r["dimension"] is None for r in unconditional)
    # the report tallies exactly the levels the records carry
    for t in TRAITS:
        dim = report["dimensions"][t]
        ours = [r for r in conditional if r["dimension"] == t]
        pinned = [parse_condition(r["condition"])[TRAITS.index(t)] for r in ours]
        hits = sum(r["levels"][t] == (HIGH if p else LOW) for r, p in zip(ours, pinned))
        assert dim["accuracy"] == hits / 4
        for level in (LOW, MEDIUM, HIGH):
            assert dim["unconditional"][level] == sum(
                r["levels"][t] == level for r in unconditional) / 2


# ------------------------------------------------------------------- accuracy


def hand_report() -> dict:
    # four texts per condition, tabulated by hand
    counts = {
        t: {
            "low_condition": {LOW: 3, MEDIUM: 1, HIGH: 0},
            "high_condition": {LOW: 0, MEDIUM: 2, HIGH: 2},
            "unconditional": {LOW: 1, MEDIUM: 2, HIGH: 1},
        }
        for t in TRAITS
    }
    return _report(counts, 4)


def test_generation_accuracy_matches_hand_arithmetic() -> None:
    report = hand_report()
    # (3 consistent low + 2 consistent high) / 8 conditional texts
    for t in TRAITS:
        dim = report["dimensions"][t]
        assert dim["accuracy"] == 5 / 8
        assert dim["low_condition"] == {LOW: 3 / 4, MEDIUM: 1 / 4, HIGH: 0.0}
        assert dim["unconditional"] == {LOW: 1 / 4, MEDIUM: 2 / 4, HIGH: 1 / 4}
    assert report["average_accuracy"] == pytest.approx(5 / 8)
    assert report["n_per_condition"] == 4


def test_render_table_shows_all_dimensions_and_rows() -> None:
    table = render_table(hand_report())
    for name in ("Extraversion", "Agreeableness", "Conscientiousness",
                 "Neuroticism", "Openness"):
        assert name in table
    assert table.count("Low condition") == 5
    assert table.count("High condition") == 5
    assert table.count("Unconditional") == 5
    assert [line.strip() for line in table.splitlines()].count("accuracy: 62.50%") == 5
    assert "average generation accuracy: 62.50%" in table


def test_report_save_is_valid_json(tmp_path) -> None:
    path = tmp_path / "report.json"
    write_json(path, hand_report())
    payload = json.loads(path.read_text())
    assert payload == hand_report()
    assert payload["average_accuracy"] == pytest.approx(5 / 8)
