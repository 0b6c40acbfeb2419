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

Document i draws only from ``rng.spawn(i)``. The documents of a block
draw in lockstep (:class:`~traitgen.numeric.Lockstep`), one token
position at a time: the marker and neutral branches are masks over the
documents, and marker-set sizes and successor counts are per-document
bounds, so each stream is consumed in the order a token-by-token loop
over that one document would consume it.

Evaluation mirrors the conditional-versus-unconditional protocol: for
each dimension and polarity, generate a batch of texts with that bit
pinned and the other four drawn uniformly per text, score them with the
lexicon, bucket against calibrated tertile thresholds, and tabulate the
level distribution next to a shared unconditional pool.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import TraitgenError
from .generator import LstmModel, generate
from .lexicon import (
    Category,
    LevelThresholds,
    Lexicon,
    assign_levels,
    score_tokens,
)
from .numeric import Lockstep, Rng
from .textproc import Document, config_from_payload, is_utf8, read_json, write_json
from .traits import HIGH, LEVELS, LOW, MEDIUM, TRAITS, format_condition

# Neutral-chain shape: each neutral token has up to this many successors,
# spaced by a fixed stride so small vocabularies still get a spread.
NEUTRAL_CHAIN_FANOUT = 16
_CHAIN_STRIDE = 17

# Decoding temperature used by the evaluation harness. Tertile thresholds
# calibrated on a balanced two-cluster reference cap a distribution-faithful
# generator at 2/3 consistency, so evaluation sharpens the conditional
# distribution slightly to read out the planted signal.
EVAL_TEMPERATURE = 0.7

# Longest document a spec may ask for; synth's time and memory grow with len_max.
MAX_DOC_TOKENS = 10_000
# Most texts a generate call, or evaluate per condition, decodes.
MAX_TEXTS = 10 ** 6
# Largest marker set: its halving-weight draw takes a bound of 2**size - 1,
# which must fit in 64 bits.
MAX_MARKER_SET = 64
# Most token slots (documents x len_max) synth_corpus draws at once. Every
# token position costs a fixed number of numpy calls over the block, so
# blocks stay wide enough to amortise them even at MAX_DOC_TOKENS.
SYNTH_BLOCK_ENTRIES = 1 << 20


@dataclass
class SynthSpec:
    """Parameters of the planted-signal corpus generator."""

    neutral_tokens: list[str]
    markers: dict[str, dict[str, list[str]]]  # trait -> {"high": [...], "low": [...]}
    pi: float = 0.3
    len_min: int = 30
    len_max: int = 50
    neutral_bigram_smoothing: float = 0.55  # weight of the uniform mixture component

    def marker_sets(self) -> list[tuple[str, list[str]]]:
        """The ten ``(name, tokens)`` marker sets, trait by trait, high before low.

        Set ``2 * trait + 1 - bit`` holds a trait's markers under latent bit ``bit``.
        """
        return [(f"{t}_{k}", self.markers[t][k]) for t in TRAITS for k in ("high", "low")]

    def validate(self) -> None:
        """Check every rule of a spec, the JSON type of every field included."""
        config_from_payload(SynthSpec, vars(self), "spec")  # each number's JSON type
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
        if not isinstance(self.markers, dict):
            raise TraitgenError(f"markers must be a JSON object, got {type(self.markers).__name__}")
        if set(self.markers) != set(TRAITS):
            raise TraitgenError(f"markers must cover exactly the traits {TRAITS}")
        for t, per_trait in self.markers.items():
            if not isinstance(per_trait, dict):
                raise TraitgenError(
                    f"markers.{t} must be a JSON object, got {type(per_trait).__name__}")
            if set(per_trait) != {"high", "low"}:
                raise TraitgenError(f"markers for trait {t} need 'high' and 'low' sets")
        seen: dict[str, str] = {}
        for name, tokens in [("neutral", self.neutral_tokens), *self.marker_sets()]:
            if not isinstance(tokens, list):  # a string would pass as a set of characters
                raise TraitgenError(
                    f"token set {name} must be a JSON list, got {type(tokens).__name__}")
            if not tokens:
                raise TraitgenError(f"token set {name} is empty")
            if name != "neutral" and len(tokens) > MAX_MARKER_SET:
                raise TraitgenError(f"token set {name} has {len(tokens)} tokens, "
                                    f"more than {MAX_MARKER_SET}")
            for tok in tokens:
                # a token must survive the corpus round trip: whitespace tokenization
                # and a UTF-8 file
                if not isinstance(tok, str) or tok.split() != [tok] or not is_utf8(tok):
                    raise TraitgenError(f"token set {name} contains invalid token {tok!r}")
                if tok in seen:
                    raise TraitgenError(f"token {tok!r} appears in both {seen[tok]} and {name}")
                seen[tok] = name

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path: str | Path) -> "SynthSpec":
        """Read and validate a spec file: every key a field, every number of its JSON type."""
        spec = config_from_payload(cls, read_json(path), "spec")
        spec.validate()
        return spec


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
    return list(dict.fromkeys((idx + 1 + _CHAIN_STRIDE * j) % n
                              for j in range(NEUTRAL_CHAIN_FANOUT)))


def matched_lexicon(spec: SynthSpec) -> Lexicon:
    """One category per marker set; set i weighs +1 (i even, high) or -1 on trait i // 2."""
    sets = spec.marker_sets()
    weights = [[0.0] * len(TRAITS) for _ in sets]
    for i, row in enumerate(weights):
        row[i // 2] = -1.0 if i % 2 else 1.0
    return Lexicon([Category(name=name, literals=frozenset(tokens), prefixes=())
                    for name, tokens in sets], weights)


class _Layout:
    """A spec's token ids: the neutral tokens, then each of :meth:`SynthSpec.marker_sets`.

    A marker set's members draw with halving weights via the bound
    ``2**size - 1`` (at most 2**64 - 1, since a set has at most 64 tokens).
    """

    def __init__(self, spec: SynthSpec):
        sets = [tokens for _, tokens in spec.marker_sets()]
        n_neutral = len(spec.neutral_tokens)
        self.tokens = np.array(spec.neutral_tokens + [tok for pool in sets for tok in pool],
                               dtype=object)
        self.set_size = np.array([len(pool) for pool in sets])
        self.set_offset = n_neutral + np.cumsum(self.set_size) - self.set_size
        self.set_bound = np.array([(1 << len(pool)) - 1 for pool in sets], dtype=np.uint64)
        chains = [_chain_successors(i, n_neutral) for i in range(n_neutral)]
        self.n_successors = np.array([len(chain) for chain in chains])
        self.successors = np.zeros((n_neutral, NEUTRAL_CHAIN_FANOUT), dtype=np.intp)
        for i, chain in enumerate(chains):
            self.successors[i, :len(chain)] = chain


def _bit_length(d: np.ndarray) -> np.ndarray:
    """Exact bit length of every entry of a uint64 array."""
    d = d.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        d |= d >> np.uint64(shift)
    return np.bitwise_count(d)


def _draw_block(spec: SynthSpec, layout: _Layout,
                streams: Lockstep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token ids, lengths and latent bits of one document per stream.

    Document j draws from stream j, in order: one coin per trait, its
    length, then per token a uniform that picks marker (below pi) or
    neutral. A marker draws its trait, then its index within the set its
    latent bit selects, token j of n with weight 2^(n-1-j). A neutral
    token after an earlier neutral one draws a uniform, and unless it
    falls below the smoothing weight it draws among the earlier one's
    chain successors; otherwise it draws uniformly from all neutral
    tokens. All documents step through token positions together;
    ``ids[j, length[j]:]`` is unset.
    """
    n = streams.state.shape[1]
    bits = np.stack([streams.coin() for _ in TRAITS], axis=1).astype(np.intp)
    lengths = spec.len_min + streams.randint(spec.len_max - spec.len_min + 1).astype(np.intp)
    ids = np.empty((n, spec.len_max), dtype=np.int32)
    prev = np.full(n, -1)  # each document's latest neutral token, -1 before the first
    n_neutral = len(spec.neutral_tokens)
    for pos in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > pos)
        marker = streams.random(rows) < spec.pi
        chained = ~marker & (prev[rows] >= 0)
        at = np.flatnonzero(chained)
        chained[at] = streams.random(rows[at]) >= spec.neutral_bigram_smoothing
        drawn = rows[marker]
        trait = streams.randint(len(TRAITS), drawn).astype(np.intp)
        pool = 2 * trait + 1 - bits[drawn, trait]
        # every token's last draw: an index into its marker set, its
        # predecessor's successors, or all neutral tokens
        bound = np.full(len(rows), n_neutral, dtype=np.uint64)
        bound[marker] = layout.set_bound[pool]
        before = prev[rows[chained]]
        bound[chained] = layout.n_successors[before]
        r = streams.randint(bound, rows)
        token = r.astype(np.intp)
        token[chained] = layout.successors[before, token[chained]]
        # r < 2^n - 2^(n-1-j) first holds at j = n - bit_length(2^n - 1 - r)
        spare = bound[marker] - r[marker]
        token[marker] = layout.set_offset[pool] + layout.set_size[pool] - _bit_length(spare)
        ids[rows, pos] = token
        prev[rows[~marker]] = token[~marker]
    return ids, lengths, bits


def synth_corpus(spec: SynthSpec, n_docs: int, rng: Rng) -> tuple[list[Document], Lexicon]:
    """Generate a labeled corpus plus its matched lexicon.

    Document i is drawn entirely from ``rng.spawn(i)``, so corpora are
    byte-identical across runs and independent of any parallel schedule.
    Documents are drawn in blocks of at most SYNTH_BLOCK_ENTRIES token slots.
    """
    spec.validate()
    if n_docs < 0:
        raise TraitgenError(f"n_docs must be non-negative, got {n_docs}")
    layout = _Layout(spec)
    per_block = max(1, SYNTH_BLOCK_ENTRIES // spec.len_max)
    docs = []
    for start in range(0, n_docs, per_block):
        streams = Lockstep.spawned(rng, start, min(per_block, n_docs - start))
        ids, lengths, bits = _draw_block(spec, layout, streams)
        for row, length, labels in zip(ids, lengths.tolist(), bits.tolist()):
            tokens = layout.tokens[row[:length]].tolist()
            docs.append(Document(raw_text=" ".join(tokens), tokens=tokens,
                                 labels=dict(zip(TRAITS, labels))))
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
    order. A conditional text's condition is its stream's first five
    coins, with bit d then pinned to p, so the four unconstrained bits are
    uniform per text. Records list the conditional texts first, then the
    unconditional ones.
    """
    if model.config.cond_dim != 5:
        raise TraitgenError("evaluation needs a conditional model (cond_dim 5)")
    if baseline.config.cond_dim != 0:
        raise TraitgenError("baseline model must be unconditional (cond_dim 0)")
    if not 1 <= n_per_condition <= MAX_TEXTS:
        raise TraitgenError(f"n_per_condition must be positive and at most {MAX_TEXTS}, "
                            f"got {n_per_condition}")

    counts = {t: {row: dict.fromkeys(LEVELS, 0) for row in _ROWS} for t in TRAITS}
    records: list[dict] = []

    def run(generator, slots, cond, streams) -> None:
        """Generate, score and tally one batch; ``slots[i]`` is (trait or None, row)."""
        texts = generate(generator, cond, seed_pool, streams,
                         temperature=temperature, max_len=max_len)
        bits = [None] * len(texts) if cond is None else cond.tolist()
        for (trait, row), text_bits, tokens in zip(slots, bits, texts):
            levels = assign_levels(score_tokens(tokens, lexicon), thresholds)
            for t in TRAITS if trait is None else (trait,):
                counts[t][row][levels[t]] += 1
            records.append({
                "dimension": trait,
                "condition": None if text_bits is None else format_condition(text_bits),
                "text": " ".join(tokens),
                "levels": levels,
            })

    n = n_per_condition
    n_conditional = 2 * len(TRAITS) * n  # column (2d + p) * n + j: text j of (d, p)
    streams = Lockstep.spawned(rng, 0, n_conditional)
    cond = np.stack([streams.coin() for _ in TRAITS], axis=1)
    slots = []
    for di, trait in enumerate(TRAITS):
        for polarity in (0, 1):
            block = (di * 2 + polarity) * n
            cond[block:block + n, di] = polarity
            slots += [(trait, _ROWS[polarity])] * n
    run(model, slots, cond, streams)
    run(baseline, [(None, "unconditional")] * n, None,
        Lockstep.spawned(rng, n_conditional, n))
    return _report(counts, n), records
