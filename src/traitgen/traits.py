"""Trait names, level names, and small shared helpers."""

from __future__ import annotations

from typing import Sequence

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


def parse_condition(text: str) -> tuple[int, ...]:
    """Parse 'E=1,A=0,C=1,N=0,O=1' into its bits in TRAITS order; every trait exactly once."""
    seen: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if "=" not in part:
            raise TraitgenError(f"bad condition component {part!r}, expected TRAIT=0|1")
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if name not in TRAITS:
            raise TraitgenError(f"unknown trait {name!r}, expected one of {TRAITS}")
        if name in seen:
            raise TraitgenError(f"trait {name} given twice")
        if value not in ("0", "1"):
            raise TraitgenError(f"trait {name} polarity must be 0 or 1, got {value!r}")
        seen[name] = int(value)
    if set(seen) != set(TRAITS):
        missing = [t for t in TRAITS if t not in seen]
        raise TraitgenError(f"condition missing traits {missing}")
    return tuple(seen[t] for t in TRAITS)


def format_condition(bits: Sequence[int]) -> str:
    """'E=1,A=0,...' of five int bits in TRAITS order; the inverse of :func:`parse_condition`."""
    return ",".join(f"{t}={v}" for t, v in zip(TRAITS, bits))
