"""Every module-level function and class in the package is used or exported.

A helper that no package code names and ``flexcheck.__all__`` does not
list is dead: tests alone keep it alive.  Names count only as code
(``ast.Name`` or ``ast.Attribute``), not in docstrings or comments, and
not inside the definition itself.
"""

import ast
from collections import Counter
from pathlib import Path

import flexcheck

PACKAGE = Path(flexcheck.__file__).parent


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
        tree = ast.parse(path.read_text(), filename=str(path))
        used += _used_names(tree)
        defs += [(path.stem, node.name, node)
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return defs, used


def test_every_top_level_definition_is_used_or_exported():
    defs, used = _definitions()
    exported = set(flexcheck.__all__)
    dead = [f"{module}.{name}" for module, name, node in defs
            if name not in exported and used[name] - _used_names(node)[name] <= 0]
    assert not dead, f"defined but neither named in the package nor exported: {dead}"


def test_exports_resolve():
    for name in flexcheck.__all__:
        assert hasattr(flexcheck, name), name
