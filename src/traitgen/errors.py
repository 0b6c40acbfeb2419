"""The one exception type for user errors.

Every check on input from outside the program (a flag, a config value, a
file or its contents) raises :class:`TraitgenError` with a message that
says what is wrong. The CLI maps it, and ``OSError``, to exit code 2; any
other exception is a bug and exits 1.
"""


class TraitgenError(Exception):
    """An input the package cannot accept; the message says which and why."""
