"""Every module-level function and class in the package is used, every
field, method and property of its classes is read, every top-level
import is used, config.py is the only module that knows a numerical
threshold, linalg.py the only one that states the residual scale and the
rank cut, and no numpy exception leaves a public function.

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
import importlib
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import flexcheck
from flexcheck import config
from flexcheck.catalog import build_case_representation
from flexcheck.liealg import subalgebra_from_matrices
from flexcheck.cli import _JSON_TYPES, _validate, build_parser
from flexcheck.config import DEFAULT, FlexcheckError, NumericalAbort, ParseError, Tolerances
from flexcheck.engine import NON_REDUCTIVE_MESSAGE, BalanceProblem, Pipeline, _phase1, balanced
from flexcheck.liealg import (LieAlgebraModel, SubalgebraHandle, build_classical, center_of,
                              centralizer, conjugation_limit, killing_restriction_nondegenerate)
from flexcheck.linalg import nullspace, orthonormal_columns, rank
from flexcheck.roots import check_in_g0, decompose
from flexcheck.scalars import Field, realify
from flexcheck.surface import (CohomologyWorkspace, adjoint_module, check_invariant_form,
                               check_module_relator, cohomology, correct_relator, cup_pairing,
                               fuchsian_genus2, relator_prefixes, restricted_module,
                               standard_presentation, surface_representation)
from flexcheck.toledo import lifted_toledo, root_form, standard_form

PACKAGE = Path(flexcheck.__file__).parent

ALLOWLIST = {
    "conjugation_limit": "NON_REDUCTIVE_MESSAGE, in the golden verdict bytes, tells users to call it",
    "correct_relator": "README-documented; ROADMAP items 5, 6 and 9 perturb images and correct them",
    "cohomology": "perfbench's Tracer.install getattr's it, and it is the tests' Fox-calculus oracle",
    "cup_pairing": "perfbench's Tracer.install getattr's it, and it is the tests' Fox-calculus oracle",
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
    "FlexibilityReport.reductive_condition": "a margin for the report's diagnostics (ROADMAP item 8)",
    "RootFormReport.lift_margin": "a margin for the report's diagnostics (ROADMAP item 8)",
    "CohomologyWorkspace.h1": "cohomology()'s H^1 basis; the tests' Fox-calculus oracle reads it",
    "CohomologyWorkspace.h0_dim": "cohomology()'s count; the tests' Fox-calculus oracle reads it",
    "CohomologyWorkspace.h2_dim": "cohomology()'s count; the tests' Fox-calculus oracle reads it",
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


# ---------------------------------------------------------------------------
# Every name a top-level import binds is used
# ---------------------------------------------------------------------------

def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            yield from (arg.annotation for arg in args if arg and arg.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(tree: ast.Module) -> list[str]:
    """``line n: name`` of each name that a top-level import binds and that
    neither code nor a string annotation names."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    strings = [sub.value for annotation in _annotations(tree) for sub in ast.walk(annotation)
               if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    used = {sub.id for code in [tree] + [ast.parse(s, mode="eval") for s in strings]
            for sub in ast.walk(code) if isinstance(sub, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_every_top_level_import_is_used():
    unused = [f"{stem}.py {hit}" for stem, tree in _package_trees().items()
              for hit in _unused_imports(tree)]
    assert not unused, f"imported but never used: {unused}"


def test_the_import_guard_catches():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b as c\n"
        "from x import y, z\n"
        "def f(v: 'list[z]') -> None:\n"
        "    return os.sep\n")
    assert _unused_imports(tree) == ["line 3: c", "line 4: y"]


def test_the_non_reductive_message_names_an_export():
    named = re.search(r"apply (\w+)", NON_REDUCTIVE_MESSAGE).group(1)
    assert named in flexcheck.__all__ and callable(getattr(flexcheck, named))


def test_exports_resolve():
    for name in flexcheck.__all__:
        assert hasattr(flexcheck, name), name


def test_the_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["out"].verdict == "rigid"
    assert namespace["rr"].toledo == 2 and namespace["rr"].definite


# ---------------------------------------------------------------------------
# The benchmark's tracing hooks name live package code
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _top_level_value(path: Path, name: str) -> ast.expr:
    """The expression assigned to ``name`` at the top of ``path``, read without importing it."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


# selftest.py bindings that the package dropped on purpose, with the reason
GONE_BINDINGS = {
    "toledo.cup_pairing": "ROADMAP item 4 drops selftest's cup-pairing probe",
}


def test_the_benchmark_hooks_resolve():
    # the tracer getattr's each SPANNED and COUNTED name; selftest.py checks
    # that the "flexcheck.<module>.<name>" bindings it names were wrapped
    spans = PERFBENCH / "spans.py"
    names = [f"{layer}.{fname}" for table in ("SPANNED", "COUNTED")
             for layer, fnames in ast.literal_eval(_top_level_value(spans, table)).items()
             for fname in fnames]
    selftest = ast.parse((PERFBENCH / "selftest.py").read_text())
    bindings = [node.value.removeprefix("flexcheck.") for node in ast.walk(selftest)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("flexcheck.")]
    assert {"engine.root_form", "cli.verdict"} <= set(bindings)
    # each gone binding is still named by selftest, so the entry fails once it is not
    assert set(GONE_BINDINGS) <= set(bindings)
    for name in names + bindings:
        module, _, attr = name.rpartition(".")
        home = importlib.import_module(".".join(filter(None, ("flexcheck", module))))
        found = getattr(home, attr, None)
        assert found is None if name in GONE_BINDINGS else callable(found), name


def test_the_benchmark_work_sizes_read_live_members():
    # each COMPUTED lambda reads members of a traced call's result
    pipe = Pipeline(build_case_representation("su21-cline"))
    results = {"surface.cohomology": cohomology(pipe.rep, pipe.adjoint),
               "toledo.root_form": pipe.forms[0]}
    computed = _top_level_value(PERFBENCH / "spans.py", "COMPUTED")
    assert {ast.literal_eval(key) for key in computed.keys} == set(results)
    for key, value in zip(computed.keys, computed.values):
        size = eval(compile(ast.Expression(value.elts[1]), "spans.py", "eval"))
        assert size(results[ast.literal_eval(key)]) > 0


def _definition(tree: ast.AST, *path: str) -> ast.AST:
    """The def or class at ``path`` (a top-level name, then names nested in it) of ``tree``."""
    for name in path:
        tree = next(node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
    return tree


def test_the_benchmark_library_checks_read_live_members():
    # a renamed verdict() member would otherwise fail only a benchmark run
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    root_keys = {call.args[1].value for call in ast.walk(_definition(workloads, "root_table"))
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                 and call.func.id == "get"}
    report_reads = {node.attr for node in ast.walk(_definition(workloads, "check_library_verdict"))
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "report"}
    replaced = {kw.arg for node in ast.walk(_definition(workloads, "LibraryWorkload", "plant_wrong"))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace" for kw in node.keywords}
    # the parse finds each read the benchmark makes today
    assert {"real_dim", "toledo", "h1_dim"} <= root_keys
    assert {"verdict", "centralizer_dim", "center_dim", "roots"} <= report_reads
    assert {"verdict"} <= replaced
    out = flexcheck.verdict(build_case_representation("sp21-cline"))
    assert len(out.roots) == 2
    missing = [name for name in report_reads if not hasattr(out, name)]
    missing += [f"roots[{i}].{key}" for i, root in enumerate(out.roots)
                for key in root_keys if not hasattr(root, key)]
    missing += [name for name in replaced if name not in {f.name for f in dataclasses.fields(out)}]
    assert not missing, f"the benchmark reads what verdict() no longer returns: {missing}"


# ---------------------------------------------------------------------------
# One tolerance policy: config.py is the only module that knows a threshold
# ---------------------------------------------------------------------------

THRESHOLD_FIELDS = {f.name for f in dataclasses.fields(Tolerances)}
# config's named thresholds, such as FORM_INVARIANCE: a literal may not scale them either
THRESHOLD_CONSTANTS = {name for name, value in vars(config).items()
                       if name.isupper() and isinstance(value, float)}


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
            named = [op for op in chain
                     if isinstance(op, ast.Attribute) and op.attr in THRESHOLD_FIELDS | THRESHOLD_CONSTANTS
                     or isinstance(op, ast.Name) and op.id in THRESHOLD_CONSTANTS]
            if named and any(_numeric(op) for op in chain):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_threshold_outside_config():
    """No small float literal, and no Tolerances field or config threshold scaled by a
    literal, outside config.py."""
    found = [f"{path.name} {hit}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
             for hit in _threshold_literals(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, "thresholds belong in config.py:\n" + "\n".join(found)


@pytest.mark.parametrize("source", [
    "x = 1e-9 * scale",
    "bad = resid > tol.rank * scale * 10",
    "bad = resid > -(RELATOR * 10) * scale",
    "stop = 100 * DEFAULT.rank",
    "x = config.FORM_INVARIANCE / 2",
])
def test_the_threshold_guard_catches(source):
    assert _threshold_literals(ast.parse(source))


@pytest.mark.parametrize("source", [
    "x = tol.cocycle_check * scale",
    "x = COCYCLE_CHECK * scale",
    "x = tol.cluster ** 0.5 * max(scale, 1.0)",
    "x = 2.0 * scale",
    "x = root.dim * 10",
])
def test_the_threshold_guard_passes(source):
    assert not _threshold_literals(ast.parse(source))


# Each named threshold against the literal it replaced; the derived ones
# as the arithmetic they replaced, so the bits are the same.
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
    "TOLEDO_LIFT": 1e-3,
    "MODEL_CLOSURE": 1e-12,
    "TOLERANCE_FLOOR": 100 * 2.0 ** -52,
    "SUBALGEBRA_CLOSURE": 1e-9,
    "MEMBERSHIP": 1e-8,
    "IMAGE_MEMBERSHIP": 1e-8 * 100,
    "SUBSPACE_INVARIANCE": 1e-8 * 10,
    "RELATOR": 1e-8,
    "COCYCLE_CHECK": 1e-8 * 10,
}


def test_named_thresholds_keep_their_values():
    constants = {name: value for name, value in vars(config).items()
                 if name.isupper() and isinstance(value, float)}
    assert constants == PINNED
    assert not [name for name, value in vars(Tolerances).items() if isinstance(value, property)]
    # coords projects at MODEL_SPAN itself, with no tolerance to pass
    assert list(inspect.signature(LieAlgebraModel.coords).parameters) == ["self", "mat"]
    # correct_relator stops at RELATOR_CORRECTION itself, with no stop, cap or sign to pass
    assert list(inspect.signature(correct_relator).parameters) == [
        "images", "presentation", "model"]


def test_tolerances_keep_their_fields_and_adjoint_takes_none():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank", "cluster"]
    # the fixed checks read config constants, and a handle carries its model
    for func in (surface_representation, restricted_module, check_module_relator, cup_pairing):
        assert "tol" not in inspect.signature(func).parameters, func.__name__
    for func in (decompose, killing_restriction_nondegenerate):
        assert "model" not in inspect.signature(func).parameters, func.__name__
    assert list(inspect.signature(LieAlgebraModel.adjoint_group_matrix).parameters) == ["self", "g"]
    assert list(inspect.signature(_phase1).parameters) == ["a", "b"]


@pytest.mark.parametrize("kwargs", [
    {"rank": 1e-15}, {"cluster": 1e-20}, {"cluster": 0.0}, {"rank": -1.0}, {"rank": float("nan")},
])
def test_tolerances_below_the_floor_raise(kwargs):
    with pytest.raises(FlexcheckError, match="below the floor"):
        Tolerances(**kwargs)
    with pytest.raises(FlexcheckError, match="below the floor"):
        dataclasses.replace(DEFAULT, **kwargs)


@pytest.mark.parametrize("name", sorted(THRESHOLD_FIELDS))
@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_infinite_tolerances_raise(name, value):
    # an infinite rank once passed, and verdict died in a reshape of an empty array
    with pytest.raises(FlexcheckError, match=f"tolerance {name} = -?inf must be a finite number"):
        Tolerances(**{name: value})


def test_the_floor_itself_is_a_valid_tolerance():
    assert Tolerances(rank=config.TOLERANCE_FLOOR).rank == config.TOLERANCE_FLOOR


def test_the_tolerances_are_the_schema_keys_and_the_cli_flags():
    schema = json.loads((PACKAGE / "schema" / "problem_spec.schema.json").read_text())
    keys = set(schema["properties"]["tolerances"]["properties"])
    (verdict_parser,) = [a.choices["verdict"] for a in build_parser()._actions if a.dest == "command"]
    flags = {s.removeprefix("--tol-") for a in verdict_parser._actions for s in a.option_strings
             if s.startswith("--tol-")}
    assert THRESHOLD_FIELDS == keys == flags == {"rank", "cluster"}


def test_the_schema_states_the_floor():
    schema = json.loads((PACKAGE / "schema" / "problem_spec.schema.json").read_text())
    keys = schema["properties"]["tolerances"]["properties"]
    assert {k: v["minimum"] for k, v in keys.items()} == {
        "rank": config.TOLERANCE_FLOOR, "cluster": config.TOLERANCE_FLOOR}


# ---------------------------------------------------------------------------
# linalg.py is the only module that states the residual scale and the rank cut
# ---------------------------------------------------------------------------

# "module.function" of each check that keeps a scale of the same shape as
# linalg.residual_scale, with the reason it is not a relative residual
SCALE_ALLOWLIST = {
    "liealg._finish_model": "the closure of brackets, quadratic in the basis: |basis|^2",
    "liealg.conjugation_limit": "eigenvalue gaps of u and growing entries of its limit",
    "engine._phase1": "the phase-1 objective is a sum of artificial variables, not a largest entry",
    "engine.balanced": "LP certificates: the multipliers' size mu multiplies the scale",
}


def _largest_abs(node: ast.AST) -> bool:
    """``np.abs(x).max(...)``, or ``float`` of it."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        node = node.args[0] if len(node.args) == 1 else node
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "max" and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "abs")


def _restatements(tree: ast.AST) -> list[str]:
    """``function: line n`` of each residual scale, ``max`` or ``np.maximum`` of a largest
    |entry| and 1, and of each rank cut, a product with a ``.rank`` tolerance."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and len(child.args) == 2 and (
                    getattr(child.func, "id", None) == "max"
                    or getattr(child.func, "attr", None) == "maximum"):
                one = [a for a in child.args if isinstance(a, ast.Constant) and a.value == 1]
                if one and any(_largest_abs(a) for a in child.args):
                    found.append(f"{where}: line {child.lineno} scale")
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult) and any(
                    isinstance(op, ast.Attribute) and op.attr == "rank"
                    for op in _product_chain(child)):
                found.append(f"{where}: line {child.lineno} rank cut")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if named else where)

    visit(tree, "")
    return found


def test_only_linalg_states_the_residual_scale_and_the_rank_cut():
    hits = {stem: _restatements(tree) for stem, tree in _package_trees().items()}
    assert [h.split(":")[0] for h in hits.pop("linalg")] == ["residual_scale"]
    kept = [f"{stem}.{hit}" for stem, found in hits.items() for hit in found]
    restated = [hit for hit in kept if hit.split(":")[0] not in SCALE_ALLOWLIST]
    assert not restated, f"use linalg.relative_residual or linalg.singular_rank: {restated}"
    # each entry still names a check with its own scale
    assert {hit.split(":")[0] for hit in kept} == set(SCALE_ALLOWLIST)


@pytest.mark.parametrize("source, found", [
    ("def f(x):\n    return np.maximum(np.abs(x).max(axis=1), 1.0)", ["f: line 2 scale"]),
    ("def f(x):\n    return max(float(np.abs(x).max()), 1.0)", ["f: line 2 scale"]),
    ("class A:\n    def f(self, x):\n        s = max(1.0, np.abs(x).max())", ["f: line 3 scale"]),
    ("def f(s, tol):\n    return s[-1] > tol.rank * s[0]", ["f: line 2 rank cut"]),
    ("s = np.maximum(norm ** 2, 1.0)", []),
    ("s = max(float(np.linalg.norm(x)), 1.0)", []),
    ("s = max(np.abs(x).max(), 2.0)", []),
    ("s = residual_scale(x)", []),
], ids=["maximum", "max-float", "method", "rank-cut", "norm-squared", "frobenius", "floor-2",
        "residual_scale"])
def test_the_scale_guard_catches(source, found):
    assert _restatements(ast.parse(source)) == found


# ---------------------------------------------------------------------------
# No numpy exception leaves a public function
# ---------------------------------------------------------------------------

def _sl2():
    return build_classical("sl", 2)


def _images(images):
    """A genus-2 representation into SL(2,R) from four generator images."""
    return surface_representation(standard_presentation(2), _sl2(), images)


def _octagon_cup(omega=((0.0, 1.0), (-1.0, 0.0)), u=None):
    """The cup pairing of the octagon group's standard module, H^1 against H^1 by default."""
    rep = fuchsian_genus2()
    ws = cohomology(rep, rep.images)
    return cup_pairing(ws, omega, ws.h1 if u is None else u, ws.h1)


_I2, _I3 = np.eye(2), np.eye(3)
_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# lifted_toledo's malformed input: a wrong stack, an odd module, a form of another size
LIFT_SHAPE_ERRORS = {
    "wrong-count": lambda: lifted_toledo([_I2] * 3, _J2, standard_presentation(2)),
    "odd-module": lambda: lifted_toledo([_I3] * 4, np.zeros((3, 3)), standard_presentation(2)),
    "mismatched-omega": lambda: lifted_toledo([_I2] * 4, np.zeros((4, 4)), standard_presentation(2)),
    "complex-omega": lambda: lifted_toledo([_I2] * 4, 1j * _J2, standard_presentation(2)),
}


def _octagon_workspace():
    rep = fuchsian_genus2()
    return cohomology(rep, rep.images)


def _su21_workspace():
    """The adjoint module of su21-cline: m = 8, cochains of length 2g m = 32."""
    rep = build_case_representation("su21-cline")
    return cohomology(rep, adjoint_module(rep))


def _su21_root_form_args():
    pipe = Pipeline(build_case_representation("su21-cline"))
    return pipe.rep, pipe.adjoint, pipe.decomposition.roots[0]


def _balanced_p(p):
    return balanced(BalanceProblem(3, (p,), ()))


def _balanced_n(n):
    return balanced(BalanceProblem(3, (), (n,)))


def _cup_args():
    return _octagon_workspace(), _J2, np.zeros(8), np.zeros(8)


# (public function, a valid call's arguments, the position of one array
# argument in them): MALFORMED puts each malformed array below there
ARRAY_ARGUMENTS = {
    "realify": (realify, lambda: (np.zeros((1, 1, 2)), Field.COMPLEX), 0),
    "rank": (rank, lambda: (_I2,), 0),
    "nullspace": (nullspace, lambda: (_I2,), 0),
    "orthonormal_columns": (orthonormal_columns, lambda: (_I2,), 0),
    "matrix": (LieAlgebraModel.matrix, lambda: (_sl2(), np.ones(3)), 1),
    "coords": (LieAlgebraModel.coords, lambda: (_sl2(), np.diag([1.0, -1.0])), 1),
    "ad": (LieAlgebraModel.ad, lambda: (_sl2(), np.ones(3)), 1),
    "adjoint_group_matrix": (LieAlgebraModel.adjoint_group_matrix, lambda: (_sl2(), _I2), 1),
    "group_membership_residual": (LieAlgebraModel.group_membership_residual,
                                  lambda: (_sl2(), _I2), 1),
    "SubalgebraHandle": (SubalgebraHandle, lambda: (_sl2(), _I3), 1),
    "subalgebra_from_matrices": (subalgebra_from_matrices, lambda: (_sl2(), [_J2]), 1),
    "centralizer": (centralizer, lambda: (_sl2(), _I3[None]), 1),
    "conjugation_limit": (conjugation_limit, lambda: (_I2, _I2), 0),
    "conjugation_limit-u": (conjugation_limit, lambda: (_I2, _I2), 1),
    "surface_representation": (surface_representation, lambda: (
        standard_presentation(2), _sl2(), fuchsian_genus2().images), 2),
    "correct_relator": (correct_relator, lambda: (
        fuchsian_genus2().images, standard_presentation(2), _sl2()), 0),
    "relator_prefixes": (relator_prefixes, lambda: (standard_presentation(2), [_I2] * 4), 1),
    "cohomology": (cohomology, lambda: (fuchsian_genus2(), fuchsian_genus2().images), 1),
    "restricted_module": (restricted_module, lambda: ([_I2] * 4, _I2), 0),
    "restricted_module-basis": (restricted_module, lambda: ([_I2] * 4, _I2), 1),
    "check_module_relator": (check_module_relator, lambda: ([_I2] * 9,), 0),
    "check_invariant_form": (check_invariant_form, lambda: ([_I2] * 4, _J2), 0),
    "check_invariant_form-omega": (check_invariant_form, lambda: ([_I2] * 4, _J2), 1),
    "cocycle_residual": (CohomologyWorkspace.cocycle_residual,
                         lambda: (_octagon_workspace(), np.zeros(8)), 1),
    "cup_pairing-omega": (cup_pairing, _cup_args, 1),
    "cup_pairing-u": (cup_pairing, _cup_args, 2),
    "cup_pairing-v": (cup_pairing, _cup_args, 3),
    "lifted_toledo": (lifted_toledo, lambda: ([_I2] * 4, _J2, standard_presentation(2)), 0),
    "lifted_toledo-omega": (lifted_toledo, lambda: ([_I2] * 4, _J2, standard_presentation(2)), 1),
    "standard_form": (standard_form, lambda: (fuchsian_genus2(), _J2), 1),
    "root_form": (root_form, _su21_root_form_args, 1),
    "balanced-P": (_balanced_p, lambda: (np.ones(3),), 0),
    "balanced-N": (_balanced_n, lambda: (np.ones(3),), 0),
}


@pytest.mark.parametrize("name", ARRAY_ARGUMENTS)
def test_the_array_probe_starts_from_valid_calls(name):
    # each probe call differs from a call that works in one argument only
    func, args, _ = ARRAY_ARGUMENTS[name]
    func(*args())


def _with(name: str, bad):
    """ARRAY_ARGUMENTS' call ``name`` with ``bad`` at its array argument's position."""
    func, args, position = ARRAY_ARGUMENTS[name]

    def call():
        values = list(args())
        values[position] = bad
        return func(*values)
    return call


_STRINGS = np.array(["a", "b", "c"])
_RAGGED = [[1.0, 2.0], [3.0]]
# malformed input that once let numpy's own exception out, or could: strings
# and a ragged nesting at every array argument of ARRAY_ARGUMENTS, then single finds
MALFORMED = {
    **{f"{name}-{kind}": _with(name, bad) for name in ARRAY_ARGUMENTS
       for kind, bad in (("strings", _STRINGS), ("ragged", _RAGGED))},
    "check_in_g0-two-models": lambda: check_in_g0(SubalgebraHandle(_sl2(), np.eye(3)[:1]),
                                                  SubalgebraHandle(build_classical("sl", 3),
                                                                   np.eye(8)[:1])),
    "balanced-negative-dim": lambda: balanced(BalanceProblem(-1, (), ())),
    "ad-wrong-length": lambda: _sl2().ad(np.ones(2)),
    "group_membership_residual-string": lambda: _sl2().group_membership_residual("a"),
    "centralizer-mixed-sizes": lambda: centralizer(build_classical("su", 2, 1),
                                                   [np.eye(8), np.eye(7)]),
    "centralizer-string-stack": lambda: centralizer(build_classical("su", 2, 1),
                                                    np.full((1, 8, 8), "a")),
    "restricted_module-string-basis": lambda: restricted_module(
        adjoint_module(build_case_representation("su21-cline")), np.full((8, 2), "a")),
    "balanced-string-vector": lambda: balanced(BalanceProblem(1, (np.array(["a"]),), ())),
    "cocycle_residual-string-cochain": lambda: _su21_workspace().cocycle_residual(
        np.full(32, "a")),
    "cup_pairing-string-omega": lambda: cup_pairing(ws := _su21_workspace(), np.full((8, 8), "a"),
                                                    ws.h1, ws.h1),
}

NUMPY_ERRORS = {
    "balanced-short-vector": lambda: balanced(BalanceProblem(2, (np.array([1.0]),), ())),
    "conjugation_limit-size-mismatch": lambda: conjugation_limit(np.eye(3), np.eye(2)),
    "build_classical-int-family": lambda: build_classical(3, 2),
    "adjoint_group_matrix-singular": lambda: _sl2().adjoint_group_matrix(np.zeros((2, 2))),
    "adjoint_group_matrix-wrong-size": lambda: _sl2().adjoint_group_matrix(np.eye(3)),
    "adjoint_group_matrix-nan": lambda: _sl2().adjoint_group_matrix(np.full((2, 2), np.nan)),
    "adjoint_group_matrix-inf": lambda: _sl2().adjoint_group_matrix(np.array([[np.inf, 0.0],
                                                                               [0.0, 1.0]])),
    "coords-nan": lambda: _sl2().coords(np.full((2, 2), np.nan)),
    "coords-inf": lambda: _sl2().coords(np.array([[np.inf, 0.0], [0.0, -np.inf]])),
    "nullspace-nan": lambda: nullspace(np.array([[np.nan, 1.0], [1.0, 1.0]])),
    "nullspace-inf": lambda: nullspace(np.array([[np.inf, 1.0], [1.0, 1.0]])),
    "rank-nan": lambda: rank(np.array([[np.nan, 1.0], [1.0, 1.0]])),
    "rank-inf": lambda: rank(np.array([[np.inf, 1.0], [1.0, 1.0]])),
    "decompose-wrong-width": lambda: decompose(SubalgebraHandle(_sl2(), np.ones((1, 2)))),
    "surface_representation-strings": lambda: _images([[["a", "b"], ["c", "d"]]] * 4),
    "surface_representation-ragged": lambda: _images([[[1.0, 0.0], [0.0]]] * 4),
    "surface_representation-complex": lambda: _images([np.eye(2) * 1j] * 4),
    "killing_restriction_nondegenerate-wrong-width": lambda: killing_restriction_nondegenerate(
        SubalgebraHandle(_sl2(), np.ones((1, 2)))),
    "centralizer-wrong-size": lambda: centralizer(_sl2(), np.zeros((2, 4, 4))),
    "coords-wrong-size": lambda: _sl2().coords(np.ones((3, 3))),
    "matrix-wrong-length": lambda: _sl2().matrix(np.ones(2)),
    "cup_pairing-wrong-omega": lambda: _octagon_cup(omega=np.eye(3)),
    "cup_pairing-wrong-cocycle-length": lambda: _octagon_cup(u=np.ones(3)),
    "rank-vector": lambda: rank(np.ones(3)),
    "orthonormal_columns-vector": lambda: orthonormal_columns(np.ones(3)),
    "correct_relator-too-few-images": lambda: correct_relator([np.eye(2)] * 3,
                                                              standard_presentation(2), _sl2()),
    "Tolerances-string": lambda: Tolerances(rank="a"),
    "surface_representation-int": lambda: surface_representation(standard_presentation(2),
                                                                 _sl2(), 5),
    "correct_relator-int": lambda: correct_relator(5, standard_presentation(2), _sl2()),
    "build_case_representation-int": lambda: build_case_representation(3),
    "subalgebra_from_matrices-wrong-size": lambda: subalgebra_from_matrices(_sl2(), [np.eye(3)]),
    "restricted_module-wrong-rows": lambda: restricted_module(fuchsian_genus2().images,
                                                              np.ones((3, 1))),
    "cocycle_residual-wrong-length": lambda: cohomology(
        fuchsian_genus2(), fuchsian_genus2().images).cocycle_residual(np.ones(3)),
    "cohomology-ragged-list": lambda: cohomology(fuchsian_genus2(), [_I2, _I3, _I2, _I2]),
    "cohomology-too-few-actions": lambda: cohomology(fuchsian_genus2(), [_I2] * 3),
    "restricted_module-ragged-list": lambda: restricted_module([_I2, _I3], _I2),
    "relator_prefixes-ragged-list": lambda: relator_prefixes(standard_presentation(2),
                                                             [_I2, _I3, _I2, _I2]),
    "subalgebra_from_matrices-ragged-list": lambda: subalgebra_from_matrices(_sl2(), [_I2, _I3]),
    **{f"lifted_toledo-{name}": call for name, call in LIFT_SHAPE_ERRORS.items()},
    **MALFORMED,
    "decompose-nan": lambda: decompose(SubalgebraHandle(_sl2(), [[np.nan, 0.0, 0.0]])),
    "decompose-inf": lambda: decompose(SubalgebraHandle(_sl2(), [[np.inf, 0.0, 0.0]])),
    "killing_restriction_nondegenerate-nan": lambda: killing_restriction_nondegenerate(
        SubalgebraHandle(_sl2(), [[np.nan, 0.0, 0.0]])),
    "Tolerances-bool": lambda: Tolerances(rank=True),
}

# Malformed input is an input error, not a numerical abort: a caller that
# maps NumericalAbort to exit 3 must not read these as numerical failures.
SHAPE_ERRORS = {
    "rank-vector": lambda: rank(np.ones(3)),
    "orthonormal_columns-vector": lambda: orthonormal_columns(np.ones(3)),
    "nullspace-vector": lambda: nullspace(np.ones(3)),
    "cohomology-non-square-actions": lambda: cohomology(fuchsian_genus2(), np.zeros((4, 2, 3))),
    **{f"lifted_toledo-{name}": call for name, call in LIFT_SHAPE_ERRORS.items()},
    **MALFORMED,
}


def test_lists_of_actions_are_stacks():
    # a list of equal square matrices is a module like the array it stacks into
    rep = fuchsian_genus2()
    listed, stacked = cohomology(rep, list(rep.images)), cohomology(rep, rep.images)
    assert (listed.h0_dim, listed.h1_dim, listed.h2_dim) == (0, 4, 0)
    assert np.array_equal(listed.h1, stacked.h1)
    assert np.array_equal(restricted_module([np.eye(2)] * 4, np.eye(2)), np.stack([np.eye(2)] * 4))
    # and a nested list of coordinates is a handle like the array it stacks into
    assert center_of(SubalgebraHandle(_sl2(), [[1.0, 0.0, 0.0]])).dim == 1


@pytest.mark.parametrize("call", NUMPY_ERRORS.values(), ids=NUMPY_ERRORS)
def test_no_numpy_exception_leaves_a_public_function(call):
    with pytest.raises(FlexcheckError):
        call()


@pytest.mark.parametrize("call", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS)
def test_shape_errors_are_not_numerical_aborts(call):
    with pytest.raises(FlexcheckError) as exc:
        call()
    assert not isinstance(exc.value, NumericalAbort), exc.value


# (schema, a value it takes, a value it rejects, the message) for each
# keyword the problem-file validator implements
KEYWORD_CASES = [
    ({"type": "integer"}, 2.0, 2.5, "x must be an integer, got 2.5"),
    ({"enum": ["a", "b"]}, "b", "B", "x must be one of 'a', 'b', got 'B'"),
    ({"minimum": 2}, 2, 1.5, "x must be at least 2, got 1.5"),
    ({"properties": {"k": {}}, "additionalProperties": False}, {"k": 1}, {"j": 1},
     "x: unknown key 'j'; known keys are k"),
    ({"required": ["k"]}, {"k": 1}, {}, "x needs the key 'k'"),
    ({"properties": {"k": {"type": "boolean"}}}, {"k": False}, {"k": 0},
     "x.k must be a boolean, got 0"),
    ({"items": {"type": "number"}}, [1, 2.5], [1, float("inf")],
     "x[1] must be a finite number, got inf"),
    ({"minItems": 1}, [0], [], "x must have at least 1 item(s), got 0"),
    ({"maxItems": 1}, [0], [0, 0], "x must have at most 1 item(s), got 2"),
]
VALIDATED = {keyword for schema, *_ in KEYWORD_CASES for keyword in schema}
ANNOTATIONS = {"$schema", "$id", "title", "description", "default"}


@pytest.mark.parametrize("schema, good, bad, says", KEYWORD_CASES)
def test_the_validator_enforces_each_keyword(schema, good, bad, says):
    _validate(good, schema, "x")
    with pytest.raises(ParseError) as exc:
        _validate(bad, schema, "x")
    assert str(exc.value) == says


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_the_schema_states_no_rule_the_validator_skips():
    schema = json.loads((PACKAGE / "schema" / "problem_spec.schema.json").read_text())
    for sub in _subschemas(schema):
        assert set(sub) <= VALIDATED | ANNOTATIONS, set(sub) - VALIDATED - ANNOTATIONS
        assert sub.get("type", "object") in _JSON_TYPES
        if sub.get("type") == "object":
            assert sub.get("additionalProperties") is False, sub
