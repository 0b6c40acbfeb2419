from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traitgen.errors import TraitgenError
from traitgen.lexicon import (
    Category,
    LevelThresholds,
    assign_levels,
    calibrate_thresholds,
    category_frequencies,
    lexicon_from_dict,
    load_lexicon,
    load_thresholds,
    save_lexicon,
    save_thresholds,
    score_tokens,
    trait_scores,
)
from traitgen.numeric import Rng
from traitgen.traits import HIGH, LOW, MEDIUM, TRAITS


def two_category_payload(weights=None) -> dict:
    return {
        "trait_order": list(TRAITS),
        "categories": [
            {"name": "pos", "entries": ["good", "happ*"]},
            {"name": "neg", "entries": ["bad"]},
        ],
        "weights": weights or [[1, 0, 0, 0, 0], [-1, 0, 0, 0, 0]],
    }


# -------------------------------------------------------------------- loading


def test_loads_well_formed_lexicon() -> None:
    lex = lexicon_from_dict(two_category_payload())
    assert lex.num_categories == 2
    assert lex.categories[0].name == "pos"


def test_weight_shape_mismatch_names_problem() -> None:
    payload = two_category_payload(weights=[[1, 0, 0, 0, 0]] * 3)
    with pytest.raises(TraitgenError, match="3 rows"):
        lexicon_from_dict(payload)


def test_short_weight_row_rejected() -> None:
    payload = two_category_payload(weights=[[1, 0], [0, 1]])
    with pytest.raises(TraitgenError, match="pos"):
        lexicon_from_dict(payload)


def test_duplicate_category_names_rejected() -> None:
    payload = two_category_payload()
    payload["categories"][1]["name"] = "pos"
    with pytest.raises(TraitgenError, match="pos"):
        lexicon_from_dict(payload)


def test_empty_entry_rejected() -> None:
    payload = two_category_payload()
    payload["categories"][0]["entries"] = ["good", ""]
    with pytest.raises(TraitgenError, match="pos"):
        lexicon_from_dict(payload)


def test_bare_wildcard_rejected() -> None:
    payload = two_category_payload()
    payload["categories"][0]["entries"] = ["*"]
    with pytest.raises(TraitgenError, match="bare wildcard entry"):
        lexicon_from_dict(payload)


def test_wrong_trait_order_rejected() -> None:
    payload = two_category_payload()
    payload["trait_order"] = ["O", "C", "E", "A", "N"]
    with pytest.raises(TraitgenError, match="trait_order"):
        lexicon_from_dict(payload)


def test_duplicate_entries_deduplicated() -> None:
    payload = two_category_payload()
    payload["categories"][0]["entries"] = ["good", "good", "happ*", "happ*"]
    lex = lexicon_from_dict(payload)
    assert lex.categories[0].literals == frozenset({"good"})
    assert lex.categories[0].prefixes == ("happ",)


def test_lexicon_file_roundtrip(tmp_path) -> None:
    lex = lexicon_from_dict(two_category_payload())
    path = tmp_path / "lex.json"
    save_lexicon(lex, path)
    loaded = load_lexicon(path)
    assert loaded.weights == lex.weights
    assert [c.name for c in loaded.categories] == ["pos", "neg"]
    assert loaded.categories[0].matches("happy")


# ------------------------------------------------------------------- matching


def test_prefix_wildcard_matches() -> None:
    cat = Category("pos", frozenset({"good"}), ("happ",))
    assert cat.matches("happy")
    assert cat.matches("happiness")
    assert cat.matches("good")
    assert not cat.matches("sad")
    assert not cat.matches("hap")


def test_literal_and_wildcard_hit_counts_once() -> None:
    payload = two_category_payload()
    payload["categories"][0]["entries"] = ["happy", "happ*"]
    lex = lexicon_from_dict(payload)
    assert category_frequencies(["happy"], lex)[0] == 1.0


# ---------------------------------------------------------------- frequencies


def test_empty_tokens_give_zero_vector() -> None:
    lex = lexicon_from_dict(two_category_payload())
    assert category_frequencies([], lex) == [0.0, 0.0]


def test_hand_counted_frequencies() -> None:
    lex = lexicon_from_dict(two_category_payload())
    freqs = category_frequencies(["good", "good", "bad", "x"], lex)
    assert freqs == [0.5, 0.25]


def test_token_matching_two_categories_counts_in_both() -> None:
    payload = {
        "trait_order": list(TRAITS),
        "categories": [
            {"name": "a", "entries": ["dual"]},
            {"name": "b", "entries": ["du*"]},
        ],
        "weights": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
    }
    lex = lexicon_from_dict(payload)
    assert category_frequencies(["dual"], lex) == [1.0, 1.0]


def test_frequencies_bounded_and_permutation_invariant() -> None:
    lex = lexicon_from_dict(two_category_payload())
    tokens = ["good", "bad", "x", "y", "good", "happy"]
    f1 = category_frequencies(tokens, lex)
    f2 = category_frequencies(list(reversed(tokens)), lex)
    assert f1 == f2
    assert all(0.0 <= f <= 1.0 for f in f1)


def rescan_frequencies(tokens: list[str], lexicon) -> list[float]:
    """Reference: ask every category about every token, with no table."""
    counts = [sum(1 for t in tokens if cat.matches(t)) for cat in lexicon.categories]
    return [c / max(1, len(tokens)) for c in counts]


def lexicon_of(categories: list[tuple[list[str], list[str]]]):
    return lexicon_from_dict({
        "trait_order": list(TRAITS),
        "categories": [{"name": f"c{i}", "entries": literals + [p + "*" for p in prefixes]}
                       for i, (literals, prefixes) in enumerate(categories)],
        "weights": [[0, 0, 0, 0, 0]] * len(categories),
    })


# a small alphabet with non-ASCII letters makes overlapping prefixes, literals
# inside a prefix, prefixes equal to whole tokens, and tokens with no hit common
_WORDS = st.text("abé字", min_size=1, max_size=3)
_CATEGORIES = st.lists(st.tuples(st.lists(_WORDS, max_size=4), st.lists(_WORDS, max_size=3)),
                       min_size=1, max_size=5)


@given(_CATEGORIES, _CATEGORIES, st.lists(st.lists(_WORDS, max_size=12), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True)
@example(
    # overlapping prefixes "a"/"ab", literal "ab" inside a prefix and equal to
    # one, non-ASCII tokens, a token that hits only the second lexicon ("b")
    # and one that hits neither ("字")
    [(["ab"], ["a", "ab"]), (["é字"], ["é"])], [([], ["b"])],
    [["ab", "abé", "a", "b", "字", "é字", "é", "ab"]],
)
def test_category_frequencies_match_rescan(first, second, token_lists) -> None:
    for tokens in token_lists:
        # fresh lexicons, so each list is scored with a cold and then a warm
        # table, and the two lexicons score the same tokens in turn
        lexicons = [lexicon_of(first), lexicon_of(second)]
        expected = [rescan_frequencies(tokens, lex) for lex in lexicons]
        for _ in ("cold", "warm"):
            assert [category_frequencies(tokens, lex) for lex in lexicons] == expected


def test_lexicon_categories_are_a_tuple() -> None:
    # the hit table is only valid while the categories cannot change
    assert isinstance(lexicon_from_dict(two_category_payload()).categories, tuple)


# --------------------------------------------------------------- trait scores


def test_zero_frequencies_give_zero_scores() -> None:
    lex = lexicon_from_dict(two_category_payload())
    scores = trait_scores([0.0, 0.0], lex)
    assert scores == {t: 0.0 for t in TRAITS}


def test_hand_computed_scores() -> None:
    lex = lexicon_from_dict(two_category_payload())
    scores = trait_scores([0.5, 0.25], lex)
    assert list(scores) == list(TRAITS)
    assert scores["E"] == 0.25
    assert scores["A"] == scores["C"] == scores["N"] == scores["O"] == 0.0


def test_linearity_under_convex_combinations() -> None:
    lex = lexicon_from_dict(two_category_payload())
    rng = Rng(77)
    for _ in range(100):
        f1 = [rng.random(), rng.random()]
        f2 = [rng.random(), rng.random()]
        alpha = rng.random()
        mixed = [alpha * a + (1 - alpha) * b for a, b in zip(f1, f2)]
        s_mix = trait_scores(mixed, lex)
        s1 = trait_scores(f1, lex)
        s2 = trait_scores(f2, lex)
        for t in TRAITS:
            assert abs(s_mix[t] - (alpha * s1[t] + (1 - alpha) * s2[t])) < 1e-12


def test_score_tokens_convenience() -> None:
    lex = lexicon_from_dict(two_category_payload())
    assert score_tokens(["good", "good", "bad", "x"], lex)["E"] == 0.25


def test_frequency_length_checked() -> None:
    lex = lexicon_from_dict(two_category_payload())
    with pytest.raises(TraitgenError, match="1 frequencies for 2 categories"):
        trait_scores([0.1], lex)


# ---------------------------------------------------------------- calibration


def test_nearest_rank_tertiles_of_1_to_9() -> None:
    scores = {t: list(range(1, 10)) for t in TRAITS}
    th = calibrate_thresholds(scores)
    for t in TRAITS:
        assert th.cuts[t] == (3.0, 6.0)


def test_degenerate_equal_scores() -> None:
    th = calibrate_thresholds({t: [5.0, 5.0, 5.0, 5.0] for t in TRAITS})
    for t in TRAITS:
        assert th.cuts[t] == (5.0, 5.0)
    levels = assign_levels(dict.fromkeys(TRAITS, 5.0), th)
    assert all(v == MEDIUM for v in levels.values())


def test_calibration_is_permutation_invariant() -> None:
    base = [4.0, -1.0, 2.5, 0.0, 9.0, 3.0]
    shuffled = [9.0, 0.0, 4.0, 3.0, -1.0, 2.5]
    th1 = calibrate_thresholds({t: base for t in TRAITS})
    th2 = calibrate_thresholds({t: shuffled for t in TRAITS})
    assert th1.cuts == th2.cuts


def test_calibration_needs_three_scores() -> None:
    with pytest.raises(TraitgenError, match="trait E"):
        calibrate_thresholds({t: [1.0, 2.0] for t in TRAITS})


def test_thresholds_file_roundtrip(tmp_path) -> None:
    th = calibrate_thresholds({t: list(range(1, 10)) for t in TRAITS})
    path = tmp_path / "th.json"
    save_thresholds(th, path)
    assert load_thresholds(path).cuts == th.cuts


def test_thresholds_validate_ordering() -> None:
    cuts = {t: (0.0, 1.0) for t in TRAITS}
    cuts["E"] = (2.0, 1.0)
    with pytest.raises(TraitgenError, match="E"):
        LevelThresholds(cuts)


# --------------------------------------------------------------------- levels


def test_boundary_scores_are_medium() -> None:
    th = LevelThresholds({t: (3.0, 6.0) for t in TRAITS})
    levels = assign_levels(dict(zip(TRAITS, (3.0, 6.0, 2.9, 6.1, 4.0))), th)
    assert levels == {"E": MEDIUM, "A": MEDIUM, "C": LOW, "N": HIGH, "O": MEDIUM}


def test_levels_monotone_in_score() -> None:
    th = LevelThresholds({t: (0.0, 1.0) for t in TRAITS})
    rank = {LOW: 0, MEDIUM: 1, HIGH: 2}
    previous = -1
    for value in [-5.0, -0.001, 0.0, 0.5, 1.0, 1.001, 8.0]:
        level = assign_levels(dict(zip(TRAITS, (value, 0.5, 0.5, 0.5, 0.5))), th)["E"]
        assert rank[level] >= previous
        previous = rank[level]
