"""Every module-level function and class in the package is used.

A definition is used when package code outside ``__init__.py`` names it,
outside the definition itself.  An export alone does not count: a helper
that only ``flexcheck.__all__`` and the tests keep alive is dead, unless
``ALLOWLIST`` names it with the reason it stays.  Names count only as code
(``ast.Name`` or ``ast.Attribute``), not in docstrings or comments.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import flexcheck
from flexcheck.engine import NON_REDUCTIVE_MESSAGE

PACKAGE = Path(flexcheck.__file__).parent

ALLOWLIST = {
    "conjugation_limit": "NON_REDUCTIVE_MESSAGE, in the golden verdict bytes, tells users to call it",
    "correct_relator": "README-documented; ROADMAP items 5, 6 and 9 perturb images and correct them",
}


def _used_names(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions():
    """(module, name, definition node) of every top-level def and class, and all uses."""
    defs, used = [], Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used += _used_names(tree)
        defs += [(path.stem, node.name, node)
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return defs, used


def test_every_top_level_definition_is_used_or_exported():
    """Exported counts only for the allowlisted exports."""
    defs, used = _definitions()
    dead = [f"{module}.{name}" for module, name, node in defs
            if name not in ALLOWLIST and used[name] - _used_names(node)[name] <= 0]
    assert not dead, f"defined but named nowhere in the package: {dead}"


def test_every_export_is_used_or_allowlisted():
    _, used = _definitions()
    unused = [name for name in flexcheck.__all__ if name not in ALLOWLIST and not used[name]]
    assert not unused, f"exported but named nowhere in the package: {unused}"
    assert set(ALLOWLIST) <= set(flexcheck.__all__)


def test_the_non_reductive_message_names_an_export():
    named = re.search(r"apply (\w+)", NON_REDUCTIVE_MESSAGE).group(1)
    assert named in flexcheck.__all__ and callable(getattr(flexcheck, named))


def test_exports_resolve():
    for name in flexcheck.__all__:
        assert hasattr(flexcheck, name), name
