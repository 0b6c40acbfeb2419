"""Trait names, level names, and small shared helpers."""

from __future__ import annotations

from .errors import TraitgenError

# Fixed trait order used everywhere: Extraversion, Agreeableness,
# Conscientiousness, Neuroticism, Openness.
TRAITS: tuple[str, ...] = ("E", "A", "C", "N", "O")

LOW = "low"
MEDIUM = "medium"
HIGH = "high"
LEVELS: tuple[str, ...] = (LOW, MEDIUM, HIGH)


def check_trait_map(values: object, allowed: tuple, what: str) -> dict:
    """Validate a trait-keyed map: exactly the five traits, each value in ``allowed``.

    Each value comes back as its equal member of ``allowed``, so a JSON
    ``true`` label becomes ``1``. ``what`` names the map in the messages.
    """
    if not (isinstance(values, dict) and set(values) == set(TRAITS)):
        raise TraitgenError(f"{what} must be an object keyed by exactly the traits {TRAITS}, "
                            f"got {values!r}")
    for t in TRAITS:
        if values[t] not in allowed:
            raise TraitgenError(f"{what}.{t} must be one of {allowed}, got {values[t]!r}")
    return {t: allowed[allowed.index(values[t])] for t in TRAITS}
