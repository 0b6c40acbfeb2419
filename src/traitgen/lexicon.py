"""LIWC-style lexicon scoring and three-level trait bucketing.

A lexicon is a list of named word categories (literal entries plus
``prefix*`` wildcards) and a category-by-trait weight matrix. Scoring a
document means counting category hits per token, normalising by document
length, and mapping the frequency vector through the weight matrix. The
resulting linear scores are bucketed into low/medium/high levels via
thresholds calibrated as nearest-rank percentiles over a reference corpus.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import TraitgenError
from .textproc import config_from_payload, is_finite_number, read_json, write_json
from .traits import HIGH, LOW, MEDIUM, TRAITS


@dataclass(frozen=True)
class Category:
    name: str
    literals: frozenset[str]
    prefixes: tuple[str, ...]

    def matches(self, token: str) -> bool:
        # a literal hit takes precedence but contributes the same single count
        if token in self.literals:
            return True
        return any(token.startswith(p) for p in self.prefixes)


class Lexicon:
    """Immutable category tuple plus a C x 5 trait weight matrix.

    Each distinct token's category hits are computed once, through
    :meth:`Category.matches`, and kept in a per-lexicon table that grows
    with the number of distinct tokens scored. The categories are a tuple
    of frozen records, so the table cannot go stale.
    """

    def __init__(self, categories: Sequence[Category], weights: Sequence[Sequence[float]]):
        names = [c.name for c in categories]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TraitgenError(f"duplicate category names: {dupes}")
        if len(weights) != len(categories):
            raise TraitgenError(
                f"weight matrix has {len(weights)} rows for {len(categories)} categories"
            )
        for name, row in zip(names, weights):
            if not (isinstance(row, (list, tuple)) and all(map(is_finite_number, row))):
                raise TraitgenError(
                    f"weight row for category {name!r} must be a list of finite numbers"
                )
            if len(row) != len(TRAITS):
                raise TraitgenError(
                    f"weight row for category {name!r} has {len(row)} entries, expected {len(TRAITS)}"
                )
        self.categories = tuple(categories)
        self.weights = [[float(v) for v in row] for row in weights]
        self._hits: dict[str, tuple[int, ...]] = {}

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def hits(self, token: str) -> tuple[int, ...]:
        """Indices of the categories ``token`` matches, in category order."""
        found = self._hits.get(token)
        if found is None:
            found = self._hits[token] = tuple(
                ci for ci, cat in enumerate(self.categories) if cat.matches(token)
            )
        return found


def _parse_entries(name: str, entries: Iterable[str]) -> Category:
    literals: set[str] = set()
    prefixes: set[str] = set()
    for entry in entries:
        if not isinstance(entry, str) or not entry:
            raise TraitgenError(f"category {name!r} contains an empty entry")
        if entry.endswith("*"):
            stem = entry[:-1]
            if not stem:
                raise TraitgenError(f"category {name!r} has a bare wildcard entry")
            prefixes.add(stem)
        else:
            literals.add(entry)
    return Category(name=name, literals=frozenset(literals), prefixes=tuple(sorted(prefixes)))


def lexicon_from_dict(payload: dict) -> Lexicon:
    """Validate and build a lexicon from its JSON document form."""
    if not isinstance(payload, dict):
        raise TraitgenError("lexicon document must be a JSON object")
    order = payload.get("trait_order")
    if order != list(TRAITS):
        raise TraitgenError(f"trait_order must be {list(TRAITS)}, got {order}")
    raw_categories = payload.get("categories")
    weights = payload.get("weights")
    if not isinstance(raw_categories, list) or not raw_categories:
        raise TraitgenError("lexicon needs a non-empty 'categories' list")
    if not isinstance(weights, list):
        raise TraitgenError("lexicon needs a 'weights' matrix")
    categories = []
    for item in raw_categories:
        if not (isinstance(item, dict) and isinstance(item.get("name"), str)
                and isinstance(item.get("entries"), list)):
            raise TraitgenError("each category needs a 'name' string and an 'entries' list")
        categories.append(_parse_entries(item["name"], item["entries"]))
    return Lexicon(categories, weights)


def load_lexicon(path: str | Path) -> Lexicon:
    return lexicon_from_dict(read_json(path))


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    write_json(path, {
        "trait_order": list(TRAITS),
        "categories": [
            {"name": c.name, "entries": sorted(c.literals) + [p + "*" for p in c.prefixes]}
            for c in lexicon.categories
        ],
        "weights": lexicon.weights,
    })


def category_frequencies(tokens: Sequence[str], lexicon: Lexicon) -> list[float]:
    """Per-category hit counts normalised by total token count.

    A token may match several categories and is counted once in each.
    An empty token list yields the zero vector.
    """
    total = len(tokens)
    counts = [0] * lexicon.num_categories
    hits = lexicon.hits
    for token in tokens:
        for ci in hits(token):
            counts[ci] += 1
    return [c / max(1, total) for c in counts]


def trait_scores(freqs: Sequence[float], lexicon: Lexicon) -> dict[str, float]:
    """Linear map of category frequencies through the weight matrix, keyed in TRAITS order."""
    if len(freqs) != lexicon.num_categories:
        raise TraitgenError(
            f"{len(freqs)} frequencies for {lexicon.num_categories} categories"
        )
    sums = [0.0] * len(TRAITS)
    for f, row in zip(freqs, lexicon.weights):
        for j in range(len(TRAITS)):
            sums[j] += f * row[j]
    if not all(math.isfinite(s) for s in sums):
        raise TraitgenError("trait scores are not finite")
    return dict(zip(TRAITS, sums))


def score_tokens(tokens: Sequence[str], lexicon: Lexicon) -> dict[str, float]:
    return trait_scores(category_frequencies(tokens, lexicon), lexicon)


def scores_by_trait(
    token_lists: Iterable[Sequence[str]], lexicon: Lexicon
) -> dict[str, list[float]]:
    """Score many documents and group the results per trait (calibration input)."""
    out: dict[str, list[float]] = {t: [] for t in TRAITS}
    for tokens in token_lists:
        scores = score_tokens(tokens, lexicon)
        for t in TRAITS:
            out[t].append(scores[t])
    return out


@dataclass(frozen=True)
class LevelThresholds:
    """Per-trait (low_cut, high_cut) pairs with low_cut <= high_cut."""

    cuts: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        if set(self.cuts) != set(TRAITS):
            raise TraitgenError(f"thresholds must cover exactly the traits {TRAITS}")
        for t, (lo, hi) in self.cuts.items():
            if not (lo <= hi):
                raise TraitgenError(f"trait {t}: low_cut {lo} exceeds high_cut {hi}")


@dataclass
class _Cuts:  # one trait's entry of a thresholds document
    low_cut: float
    high_cut: float


def save_thresholds(thresholds: LevelThresholds, path: str | Path) -> None:
    write_json(path, {t: {"low_cut": lo, "high_cut": hi}
                      for t, (lo, hi) in thresholds.cuts.items()})


def load_thresholds(path: str | Path) -> LevelThresholds:
    """Read a thresholds file: per trait exactly two finite JSON numbers."""
    payload = read_json(path)
    if not isinstance(payload, dict) or set(payload) != set(TRAITS):
        raise TraitgenError(f"thresholds must be an object keyed by exactly {TRAITS}")
    return LevelThresholds({t: astuple(config_from_payload(_Cuts, payload[t], f"thresholds.{t}"))
                            for t in TRAITS})


def _nearest_rank(sorted_scores: list[float], p: float) -> float:
    """The ceil(p * N)-th smallest value (1-indexed nearest-rank percentile)."""
    n = len(sorted_scores)
    rank = max(1, math.ceil(p * n))
    return sorted_scores[min(rank, n) - 1]


def calibrate_thresholds(
    scores_per_trait: dict[str, Sequence[float]],
    p_low: float = 1.0 / 3.0,
    p_high: float = 2.0 / 3.0,
) -> LevelThresholds:
    """Nearest-rank percentile cuts per trait; needs at least 3 scores each."""
    if not 0.0 <= p_low <= p_high <= 1.0:  # false for NaN too
        raise TraitgenError(f"need 0 <= p_low <= p_high <= 1, got {p_low} and {p_high}")
    cuts = {}
    for t in TRAITS:
        scores = list(scores_per_trait.get(t, ()))
        if len(scores) < 3:
            raise TraitgenError(
                f"trait {t}: need at least 3 scores to calibrate, got {len(scores)}"
            )
        ordered = sorted(scores)
        cuts[t] = (_nearest_rank(ordered, p_low), _nearest_rank(ordered, p_high))
    return LevelThresholds(cuts)


def assign_levels(scores: dict[str, float], thresholds: LevelThresholds) -> dict[str, str]:
    """Bucket each trait score; boundary values are Medium."""
    levels = {}
    for t, value in scores.items():
        lo, hi = thresholds.cuts[t]
        if value < lo:
            levels[t] = LOW
        elif value > hi:
            levels[t] = HIGH
        else:
            levels[t] = MEDIUM
    return levels
