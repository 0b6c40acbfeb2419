"""The package has one user-error type, ``traitgen.errors.TraitgenError``."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import traitgen

PACKAGE = Path(traitgen.__file__).parent


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _exception_classes() -> dict[str, list[str]]:
    """Module path -> names of the exception classes it defines, read with ``ast``."""
    classes = {}  # (module, class name) -> base names
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[module, node.name] = [_base_name(b) for b in node.bases]
    exception_names = {name for name in dir(builtins)
                       if isinstance(getattr(builtins, name), type)
                       and issubclass(getattr(builtins, name), BaseException)}
    found: dict[str, list[str]] = {}
    grew = True
    while grew:  # a subclass of a package exception is an exception too
        grew = False
        for (module, name), bases in classes.items():
            if name not in found.get(module, []) and exception_names & set(bases):
                found.setdefault(module, []).append(name)
                exception_names.add(name)
                grew = True
    return found


def test_errors_module_defines_the_only_exception_class() -> None:
    assert _exception_classes() == {"errors.py": ["TraitgenError"]}
