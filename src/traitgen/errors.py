"""Exception types raised across the package.

Everything user-facing derives from :class:`TraitgenError` so the CLI can
map library failures to exit code 2 while genuine bugs surface as exit 1.
"""


class TraitgenError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TraitgenError):
    """Array dimensions are invalid or do not agree."""


class EncodingError(TraitgenError):
    """Input text is not valid UTF-8 / contains undecodable data."""


class ValidationError(TraitgenError):
    """A document, lexicon, corpus spec, or checkpoint failed validation."""


class InvalidIdError(TraitgenError):
    """A token id is outside the vocabulary."""


class DegenerateMaskError(TraitgenError):
    """A loss mask selects no positions."""


class EmptyInputError(TraitgenError):
    """An operation received an empty input it cannot reduce."""


class InsufficientDataError(TraitgenError):
    """Not enough data for the requested computation."""


class DivergenceError(TraitgenError):
    """Training produced non-finite gradients or parameters."""


class ConditionError(TraitgenError):
    """A trait condition is malformed or does not match the model."""


class SeedPoolError(TraitgenError):
    """The seed-word pool is empty or contains out-of-vocabulary tokens."""


class MissingLabelError(TraitgenError):
    """A document lacks the trait labels required for conditional training."""


class ConfigError(TraitgenError):
    """Invalid command-line or config-file usage."""
