"""Every module-level function and class in the package is used, every
field, method and property of its classes is read, and config.py is the
only module that knows a numerical threshold.

A definition is used when package code outside ``__init__.py`` names it,
outside the definition itself.  An export alone does not count: a helper
that only ``flexcheck.__all__`` and the tests keep alive is dead, unless
``ALLOWLIST`` names it with the reason it stays.  Names count only as code
(``ast.Name`` or ``ast.Attribute``), not in docstrings or comments.  A
class member is read when package code loads an attribute of its name,
outside the member's own definition; ``MEMBER_ALLOWLIST`` names the ones
that stay unread, with the reason.
"""

import ast
import dataclasses
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import flexcheck
from flexcheck import config
from flexcheck.config import DEFAULT, FlexcheckError, Tolerances
from flexcheck.engine import NON_REDUCTIVE_MESSAGE, _phase1
from flexcheck.liealg import LieAlgebraModel
from flexcheck.surface import correct_relator

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


# ---------------------------------------------------------------------------
# Every field, method and property of a package class is read
# ---------------------------------------------------------------------------

# "Class" covers every member of the class, "Class.name" one of them
MEMBER_ALLOWLIST = {
    "RootSummary": "the verdict report writes out its fields through vars()",
    "FlexibilityReport.reductive_condition": "a margin for the report's diagnostics (ROADMAP item 8)",
    "RootFormReport.min_eig_separation": "a margin for the report's diagnostics (ROADMAP item 8)",
    "SurfaceRepresentation.relator_residual": "a margin for the report's diagnostics (ROADMAP item 8)",
}


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _class_members(tree: ast.Module):
    """(class, name, node) of every annotated field and non-dunder method or property."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id, node
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                yield cls.name, node.name, node


def _unread_members(trees: dict) -> list[str]:
    """``module.Class.name`` of each member that no attribute load names.

    Reads are matched by attribute name alone, so a read of ``x.dim`` counts
    for every class with a ``dim``: the guard can miss a dead member whose
    name another class shares, but never flags a read one.
    """
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}.{cls}.{name}"
            for module, tree in trees.items() for cls, name, node in _class_members(tree)
            if reads[name] - _attribute_reads(node)[name] <= 0]


def _package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _allowlisted(member: str) -> bool:
    cls, name = member.split(".")[1:]
    return cls in MEMBER_ALLOWLIST or f"{cls}.{name}" in MEMBER_ALLOWLIST


def test_every_class_member_is_read_or_allowlisted():
    unread = _unread_members(_package_trees())
    dead = [member for member in unread if not _allowlisted(member)]
    assert not dead, f"class members that no package code reads: {dead}"
    # each single-member entry still names an unread member
    named = {member.split(".", 1)[1] for member in unread}
    assert {key for key in MEMBER_ALLOWLIST if "." in key} <= named


def test_the_member_guard_catches():
    tree = ast.parse(
        "class A:\n"
        "    kept: int\n"
        "    dropped: int\n"
        "    def again(self):\n"
        "        return self.again()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def use(a, b):\n"
        "    b.dropped = a.kept\n"
        "    return A(dropped=1)\n")
    assert _unread_members({"m": tree}) == ["m.A.dropped", "m.A.again"]


def test_the_non_reductive_message_names_an_export():
    named = re.search(r"apply (\w+)", NON_REDUCTIVE_MESSAGE).group(1)
    assert named in flexcheck.__all__ and callable(getattr(flexcheck, named))


def test_exports_resolve():
    for name in flexcheck.__all__:
        assert hasattr(flexcheck, name), name


# ---------------------------------------------------------------------------
# One tolerance policy: config.py is the only module that knows a threshold
# ---------------------------------------------------------------------------

THRESHOLD_FIELDS = {f.name for f in dataclasses.fields(Tolerances)} - {"seed"}


def _numeric(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _product_chain(node: ast.AST) -> list[ast.AST]:
    """Operands of a chain of * and /, such as the three of ``tol.cocycle * scale * 10``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _product_chain(node.left) + _product_chain(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _product_chain(node.operand)
    return [node]


def _threshold_literals(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if _numeric(node) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3:
            found.append(f"line {node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            chain = _product_chain(node)
            fields_ = [op.attr for op in chain
                       if isinstance(op, ast.Attribute) and op.attr in THRESHOLD_FIELDS]
            if fields_ and any(_numeric(op) for op in chain):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_threshold_outside_config():
    """No small float literal, and no Tolerances field scaled by a literal, outside config.py."""
    found = [f"{path.name} {hit}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
             for hit in _threshold_literals(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, "thresholds belong in config.py:\n" + "\n".join(found)


@pytest.mark.parametrize("source", [
    "x = 1e-9 * scale",
    "bad = resid > tol.cocycle * scale * 10",
    "bad = resid > -(tol.membership / 10) * scale",
    "stop = 100 * DEFAULT.rank",
])
def test_the_threshold_guard_catches(source):
    assert _threshold_literals(ast.parse(source))


@pytest.mark.parametrize("source", [
    "x = tol.cocycle_check * scale",
    "x = tol.cluster ** 0.5 * max(scale, 1.0)",
    "x = 2.0 * scale",
    "x = root.dim * 10",
])
def test_the_threshold_guard_passes(source):
    assert not _threshold_literals(ast.parse(source))


# Each named threshold at DEFAULT, against the literal it replaced; the
# derived ones as the arithmetic they replaced, so the bits are the same.
PINNED = {
    "SIMPLEX_PIVOT": 1e-11,
    "SIMPLEX_FEASIBLE": 1e-9,
    "SIMPLEX_MULTIPLIERS": 1e-7,
    "SIMPLEX_SEPARATION": 1e-9,
    "MODEL_SPAN": 1e-8,
    "ADJOINT_SPAN": 1e-7,
    "CONJUGATION_SYMMETRY": 1e-10,
    "OCTAGON_NORMALIZER": 1e-9,
    "RELATOR_CORRECTION": 1e-12,
    "FORM_INVARIANCE": 1e-6,
    "MODEL_CLOSURE": 1e-9,
    "MODEL_JACOBI": 1e-10,
    "TOLERANCE_FLOOR": 100 * 2.0 ** -52,
}
PINNED_DERIVED = {
    "image_membership": 1e-8 * 100,
    "subspace_invariance": 1e-8 * 10,
    "cocycle_check": 1e-8 * 10,
}


def test_named_thresholds_keep_their_values():
    constants = {name: value for name, value in vars(config).items()
                 if name.isupper() and isinstance(value, float)}
    assert constants == PINNED
    derived = {name for name, value in vars(Tolerances).items() if isinstance(value, property)}
    assert derived == set(PINNED_DERIVED)
    for name, value in PINNED_DERIVED.items():
        assert getattr(config.DEFAULT, name) == value, name
    assert inspect.signature(LieAlgebraModel.coords).parameters["tol"].default == 1e-8
    assert inspect.signature(correct_relator).parameters["tol"].default == 1e-12


def test_tolerances_keep_their_fields_and_adjoint_takes_none():
    assert [f.name for f in dataclasses.fields(Tolerances)] == [
        "rank", "cluster", "closure", "membership", "relator", "cocycle", "gram", "seed"]
    assert list(inspect.signature(LieAlgebraModel.adjoint_group_matrix).parameters) == ["self", "g"]
    assert list(inspect.signature(_phase1).parameters) == ["a", "b"]


@pytest.mark.parametrize("kwargs", [
    {"rank": 1e-15}, {"cluster": 1e-20}, {"gram": 0.0}, {"cocycle": -1.0}, {"rank": float("nan")},
])
def test_tolerances_below_the_floor_raise(kwargs):
    with pytest.raises(FlexcheckError, match="below the floor"):
        Tolerances(**kwargs)
    with pytest.raises(FlexcheckError, match="below the floor"):
        dataclasses.replace(DEFAULT, **kwargs)


def test_the_floor_itself_is_a_valid_tolerance():
    assert Tolerances(rank=config.TOLERANCE_FLOOR).rank == config.TOLERANCE_FLOOR


def test_the_schema_states_the_floor():
    schema = json.loads((PACKAGE / "schema" / "problem_spec.schema.json").read_text())
    keys = schema["properties"]["tolerances"]["properties"]
    assert {k: v["minimum"] for k, v in keys.items()} == {
        "rank": config.TOLERANCE_FLOOR, "cluster": config.TOLERANCE_FLOOR}
