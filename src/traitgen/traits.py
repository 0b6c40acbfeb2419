"""Trait names, level names, and small shared helpers."""

from __future__ import annotations

from .errors import ValidationError

# Fixed trait order used everywhere: Extraversion, Agreeableness,
# Conscientiousness, Neuroticism, Openness.
TRAITS: tuple[str, ...] = ("E", "A", "C", "N", "O")

LOW = "low"
MEDIUM = "medium"
HIGH = "high"
LEVELS: tuple[str, ...] = (LOW, MEDIUM, HIGH)


def check_label_map(labels: dict) -> dict[str, int]:
    """Validate a trait->polarity map: exactly the five traits, values 0/1."""
    if not isinstance(labels, dict):
        raise ValidationError(f"labels must be an object keyed by trait, got {labels!r}")
    if set(labels) != set(TRAITS):
        raise ValidationError(
            f"labels must cover exactly the traits {TRAITS}, got {sorted(labels)}"
        )
    out = {}
    for t in TRAITS:
        v = labels[t]
        if v not in (0, 1):
            raise ValidationError(f"label for trait {t} must be 0 or 1, got {v!r}")
        out[t] = int(v)
    return out


def check_level_map(levels: dict) -> dict[str, str]:
    """Validate a trait->level map: exactly the five traits, known levels."""
    if not isinstance(levels, dict):
        raise ValidationError(f"levels must be an object keyed by trait, got {levels!r}")
    if set(levels) != set(TRAITS):
        raise ValidationError(
            f"levels must cover exactly the traits {TRAITS}, got {sorted(levels)}"
        )
    out = {}
    for t in TRAITS:
        v = levels[t]
        if v not in LEVELS:
            raise ValidationError(f"level for trait {t} must be one of {LEVELS}, got {v!r}")
        out[t] = v
    return out
