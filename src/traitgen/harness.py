"""Synthetic corpora with planted trait signals and the evaluation pipeline.

Corpus construction: every document draws a latent 5-bit polarity vector
uniformly; each token is, with probability pi, a marker for a uniformly
chosen trait (high or low set per the latent bit) and otherwise a neutral
token. Within a marker set, tokens follow a fixed halving-weight profile
(common and rare markers, Zipf-like). Neutral tokens follow a mixture of
a uniform draw and a fixed successor chain. Both give the corpus
learnable structure without touching per-trait marker rates. The matched
lexicon has one category per marker set with weight +1 (high) or -1
(low) on its own trait, which makes lexicon scoring a direct readout of
the planted signal.

Evaluation mirrors the conditional-versus-unconditional protocol: for
each dimension and polarity, generate a batch of texts with that bit
pinned and the other four drawn uniformly per text, score them with the
lexicon, bucket against calibrated tertile thresholds, and tabulate the
level distribution next to a shared unconditional pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import TraitgenError
from .generator import BfpCondition, LstmModel, generate
from .lexicon import (
    Category,
    LevelThresholds,
    Lexicon,
    assign_levels,
    score_tokens,
)
from .numeric import Rng
from .textproc import Document, config_from_payload, is_utf8, read_json, write_json
from .traits import HIGH, LEVELS, LOW, MEDIUM, TRAITS

# Neutral-chain shape: each neutral token has up to this many successors,
# spaced by a fixed stride so small vocabularies still get a spread.
NEUTRAL_CHAIN_FANOUT = 16
_CHAIN_STRIDE = 17

# Decoding temperature used by the evaluation harness. Tertile thresholds
# calibrated on a balanced two-cluster reference cap a distribution-faithful
# generator at 2/3 consistency, so evaluation sharpens the conditional
# distribution slightly to read out the planted signal.
EVAL_TEMPERATURE = 0.7

_UNCONDITIONAL_STREAM_BASE = 10

# Longest document a spec may ask for; synth's time and memory grow with len_max.
MAX_DOC_TOKENS = 10_000


@dataclass
class SynthSpec:
    """Parameters of the planted-signal corpus generator."""

    neutral_tokens: list[str]
    markers: dict[str, dict[str, list[str]]]  # trait -> {"high": [...], "low": [...]}
    pi: float = 0.3
    len_min: int = 30
    len_max: int = 50
    neutral_bigram_smoothing: float = 0.55  # weight of the uniform mixture component

    def validate(self) -> None:
        if not 0.0 < self.pi <= 1.0:
            raise TraitgenError(f"pi must be in (0, 1], got {self.pi}")
        if self.len_min < 4:
            raise TraitgenError(f"len_min must be at least 4, got {self.len_min}")
        if self.len_max < self.len_min:
            raise TraitgenError("len_max must be at least len_min")
        if self.len_max > MAX_DOC_TOKENS:
            raise TraitgenError(f"len_max must be at most {MAX_DOC_TOKENS}, got {self.len_max}")
        if not 0.0 <= self.neutral_bigram_smoothing <= 1.0:
            raise TraitgenError("neutral_bigram_smoothing must lie in [0, 1]")
        if set(self.markers) != set(TRAITS):
            raise TraitgenError(f"markers must cover exactly the traits {TRAITS}")
        sets = [("neutral", self.neutral_tokens)]
        for t in TRAITS:
            per_trait = self.markers[t]
            if set(per_trait) != {"high", "low"}:
                raise TraitgenError(f"markers for trait {t} need 'high' and 'low' sets")
            sets.append((f"{t}_high", per_trait["high"]))
            sets.append((f"{t}_low", per_trait["low"]))
        seen: dict[str, str] = {}
        for name, tokens in sets:
            if not tokens:
                raise TraitgenError(f"token set {name} is empty")
            for tok in tokens:
                # a token must survive the corpus round trip: whitespace tokenization
                # and a UTF-8 file
                if not isinstance(tok, str) or tok.split() != [tok] or not is_utf8(tok):
                    raise TraitgenError(f"token set {name} contains invalid token {tok!r}")
                if tok in seen:
                    raise TraitgenError(
                        f"token {tok!r} appears in both {seen[tok]} and {name}"
                    )
                seen[tok] = name

    def as_dict(self) -> dict:
        return {
            "pi": self.pi,
            "len_min": self.len_min,
            "len_max": self.len_max,
            "neutral_bigram_smoothing": self.neutral_bigram_smoothing,
            "neutral_tokens": list(self.neutral_tokens),
            "markers": {t: {k: list(v) for k, v in self.markers[t].items()} for t in TRAITS},
        }

    @classmethod
    def from_dict(cls, payload: object) -> "SynthSpec":
        """Build and validate a spec: every key a field, every number of its JSON type."""
        def token_list(value, name: str) -> list:
            if not isinstance(value, list):  # list() would split a string into characters
                raise TraitgenError(
                    f"token set {name} must be a JSON list, got {type(value).__name__}")
            return list(value)

        def json_object(value, name: str) -> dict:
            if not isinstance(value, dict):
                raise TraitgenError(f"{name} must be a JSON object, got {type(value).__name__}")
            return value

        spec = config_from_payload(cls, payload, "spec")
        spec = replace(
            spec,
            neutral_tokens=token_list(spec.neutral_tokens, "neutral"),
            markers={t: {k: token_list(v, f"{t}_{k}")
                         for k, v in json_object(per_trait, f"markers.{t}").items()}
                     for t, per_trait in json_object(spec.markers, "markers").items()},
        )
        spec.validate()
        return replace(spec, pi=float(spec.pi),
                       neutral_bigram_smoothing=float(spec.neutral_bigram_smoothing))

    def save(self, path: str | Path) -> None:
        write_json(path, self.as_dict())

    @classmethod
    def load(cls, path: str | Path) -> "SynthSpec":
        return cls.from_dict(read_json(path))


def default_synth_spec() -> SynthSpec:
    """340 neutral tokens plus 6 high and 6 low markers per trait."""
    markers = {
        t: {
            "high": [f"{t.lower()}hi{j}" for j in range(6)],
            "low": [f"{t.lower()}lo{j}" for j in range(6)],
        }
        for t in TRAITS
    }
    spec = SynthSpec(
        neutral_tokens=[f"w{i:03d}" for i in range(340)],
        markers=markers,
    )
    spec.validate()
    return spec


def _chain_successors(idx: int, n: int) -> list[int]:
    """Fixed successor set for neutral token idx; deduplicated, order stable."""
    seen: list[int] = []
    for j in range(NEUTRAL_CHAIN_FANOUT):
        s = (idx + 1 + _CHAIN_STRIDE * j) % n
        if s not in seen:
            seen.append(s)
    return seen


def _skewed_marker_index(rng: Rng, n: int) -> int:
    """Marker draw within a set: token j carries weight 2^(n-1-j).

    Word use is Zipf-like, so each marker set has common and rare members;
    the skew also gives the corpus learnable within-set structure without
    changing per-trait marker rates.
    """
    r = rng.randint((1 << n) - 1)
    acc = 0
    for j in range(n):
        acc += 1 << (n - 1 - j)
        if r < acc:
            return j
    return n - 1


def matched_lexicon(spec: SynthSpec) -> Lexicon:
    """One category per marker set, +1 / -1 weight on its own trait."""
    categories = []
    weights = []
    for ti, t in enumerate(TRAITS):
        for polarity, value in (("high", 1.0), ("low", -1.0)):
            categories.append(
                Category(
                    name=f"{t}_{polarity}",
                    literals=frozenset(spec.markers[t][polarity]),
                    prefixes=(),
                )
            )
            row = [0.0] * len(TRAITS)
            row[ti] = value
            weights.append(row)
    return Lexicon(categories, weights)


def _synth_document(spec: SynthSpec, rng: Rng) -> Document:
    bits = {t: rng.coin() for t in TRAITS}
    length = spec.len_min + rng.randint(spec.len_max - spec.len_min + 1)
    n_neutral = len(spec.neutral_tokens)
    tokens: list[str] = []
    prev_neutral: int | None = None
    for _ in range(length):
        if rng.random() < spec.pi:
            trait = TRAITS[rng.randint(len(TRAITS))]
            pool = spec.markers[trait]["high" if bits[trait] else "low"]
            tokens.append(pool[_skewed_marker_index(rng, len(pool))])
        else:
            if prev_neutral is None or rng.random() < spec.neutral_bigram_smoothing:
                idx = rng.randint(n_neutral)
            else:
                successors = _chain_successors(prev_neutral, n_neutral)
                idx = successors[rng.randint(len(successors))]
            tokens.append(spec.neutral_tokens[idx])
            prev_neutral = idx
    return Document(raw_text=" ".join(tokens), tokens=tokens, labels=bits)


def synth_corpus(spec: SynthSpec, n_docs: int, rng: Rng) -> tuple[list[Document], Lexicon]:
    """Generate a labeled corpus plus its matched lexicon.

    Document i is drawn entirely from ``rng.spawn(i)``, so corpora are
    byte-identical across runs and independent of any parallel schedule.
    """
    spec.validate()
    if n_docs < 0:
        raise TraitgenError(f"n_docs must be non-negative, got {n_docs}")
    docs = [_synth_document(spec, rng.spawn(i)) for i in range(n_docs)]
    return docs, matched_lexicon(spec)


# ----------------------------------------------------------------- evaluation

# the three rows of a dimension's block in report.json and the table
_ROWS = ("low_condition", "high_condition", "unconditional")
_ROW_LABELS = ("Low condition", "High condition", "Unconditional")

_TRAIT_NAMES = {
    "E": "Extraversion",
    "A": "Agreeableness",
    "C": "Conscientiousness",
    "N": "Neuroticism",
    "O": "Openness",
}


def _report(counts: dict[str, dict[str, dict[str, int]]], n_per_condition: int) -> dict:
    """The ``report.json`` payload from ``counts[trait][row][level]`` text counts.

    Each row holds its level fractions. A dimension's accuracy is the share
    of its conditional texts whose level matches the pinned polarity (Low
    under the low condition, High under the high one); the average is the
    mean over the five dimensions.
    """
    dimensions = {}
    for t in TRAITS:
        rows = counts[t]
        dim = {row: {lv: rows[row][lv] / max(1, sum(rows[row].values())) for lv in LEVELS}
               for row in _ROWS}
        conditional = sum(rows["low_condition"].values()) + sum(rows["high_condition"].values())
        dim["accuracy"] = ((rows["low_condition"][LOW] + rows["high_condition"][HIGH])
                           / max(1, conditional))
        dimensions[t] = dim
    return {
        "dimensions": dimensions,
        "average_accuracy": sum(dimensions[t]["accuracy"] for t in TRAITS) / len(TRAITS),
        "n_per_condition": n_per_condition,
    }


def render_table(report: dict) -> str:
    """Plain-text table of a ``report.json`` payload: one block per dimension."""
    lines = [
        f"{'Dimension':<18}{'Condition':<15}{'Low':>8}{'Medium':>9}{'High':>8}",
        "-" * 58,
    ]
    for t in TRAITS:
        dim = report["dimensions"][t]
        for i, (label, row) in enumerate(zip(_ROW_LABELS, _ROWS)):
            name = _TRAIT_NAMES[t] if i == 0 else ""
            f = dim[row]
            lines.append(
                f"{name:<18}{label:<15}"
                f"{f[LOW]:>7.2%} {f[MEDIUM]:>8.2%} {f[HIGH]:>7.2%}"
            )
        lines.append(f"{'':<18}accuracy: {dim['accuracy']:.2%}")
        lines.append("-" * 58)
    lines.append(f"average generation accuracy: {report['average_accuracy']:.2%}")
    return "\n".join(lines)


def evaluate_generation(
    model: LstmModel,
    baseline: LstmModel,
    lexicon: Lexicon,
    thresholds: LevelThresholds,
    n_per_condition: int,
    seed_pool: list[str],
    rng: Rng,
    *,
    temperature: float = EVAL_TEMPERATURE,
    max_len: int | None = None,
) -> tuple[dict, list[dict]]:
    """The ``report.json`` payload and one record per generated text.

    Text j of the batch for dimension d and polarity p uses the derived
    stream ``(d*2 + p) * n + j``; the shared unconditional pool uses
    streams ``10*n + j``. Results are therefore independent of evaluation
    order. The four unconstrained bits are redrawn uniformly per text.
    Records list the conditional texts first, then the unconditional ones.
    """
    if model.config.cond_dim != 5:
        raise TraitgenError("evaluation needs a conditional model (cond_dim 5)")
    if baseline.config.cond_dim != 0:
        raise TraitgenError("baseline model must be unconditional (cond_dim 0)")
    if n_per_condition < 1:
        raise TraitgenError(f"n_per_condition must be positive, got {n_per_condition}")

    counts = {t: {row: dict.fromkeys(LEVELS, 0) for row in _ROWS} for t in TRAITS}
    records: list[dict] = []

    def run(generator, slots, conditions, streams) -> None:
        """Generate, score and tally one batch; ``slots[i]`` is (trait or None, row)."""
        texts = generate(generator, conditions, seed_pool, streams,
                         temperature=temperature, max_len=max_len)
        for (trait, row), condition, tokens in zip(slots, conditions, texts):
            levels = assign_levels(score_tokens(tokens, lexicon), thresholds)
            for t in TRAITS if trait is None else (trait,):
                counts[t][row][levels[t]] += 1
            records.append({
                "dimension": trait,
                "condition": None if condition is None else condition.to_string(),
                "text": " ".join(tokens),
                "levels": levels,
            })

    slots, conditions, streams = [], [], []
    for di, trait in enumerate(TRAITS):
        for polarity in (0, 1):
            for j in range(n_per_condition):
                stream = rng.spawn((di * 2 + polarity) * n_per_condition + j)
                bits = [stream.coin() for _ in TRAITS]
                bits[di] = polarity
                slots.append((trait, _ROWS[polarity]))
                conditions.append(BfpCondition(*bits))
                streams.append(stream)
    run(model, slots, conditions, streams)
    run(baseline, [(None, "unconditional")] * n_per_condition, [None] * n_per_condition,
        [rng.spawn(_UNCONDITIONAL_STREAM_BASE * n_per_condition + j)
         for j in range(n_per_condition)])
    return _report(counts, n_per_condition), records
