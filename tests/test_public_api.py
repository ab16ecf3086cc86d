"""The package root binds modules only, every public name is reached, and README's
library example runs as written."""

import ast
import types
from collections import Counter
from pathlib import Path

import pytest

import pomtrans

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "pomtrans"
PERFBENCH = ROOT / "perfbench"

#: public names that no other code in src/ and nothing in perfbench/ reaches, each
#: with its reason to stay; any other such name fails, and so does a stale entry
UNREACHED_BY_DESIGN = {
    "analysis.kappa_ex2_threshold":
        "ROADMAP item 4 makes it the sign of the kappa_ex2 elasticity, or deletes it",
    "dynamics.enhancement_peak_value":
        "ROADMAP item 4 decides it; it pins enhancement_resonances and intra_ring_gain",
    "coupling.normalize_em": "ROADMAP item 6 decides the normalization the rates assume",
    "coupling.normalize_mech": "ROADMAP item 6 decides the normalization the rates assume",
    "coupling.effective_mass": "ROADMAP item 6 may normalize to the zero-point motion",
    "rings.coupled_fraction":
        "ROADMAP item 7's coupler-to-J oracle; it reaches CouplerGeometry and beat_length",
    "coupling.save_mode_field":
        "writes the mode-field files the coupling command reads; ROADMAP item 5 extends it",
    "sfg.graph_determinant": "oracle: the transducer graph's determinant is Eq. 3's denominator",
    "sfg.all_source_gains": "oracle: criterion 9 sums its port powers against passivity",
    "coupling.overlap_integral":
        "oracle: criterion 7's full-gradient overlap; the rates integrate slab by slab",
    "sfg.SignalFlowGraph.nodes": "oracle input: test_sfg builds its networkx graph from it",
    "sfg.SignalFlowGraph.edges": "oracle input: test_sfg builds its networkx graph from it",
}


def test_every_public_attribute_is_a_module():
    public = {name: getattr(pomtrans, name) for name in dir(pomtrans) if not name.startswith("_")}
    assert {"analysis", "coupling", "dynamics", "errors", "materials", "rings", "sfg",
            "sweep"} <= set(public)
    assert [name for name, value in public.items()
            if not isinstance(value, types.ModuleType)] == []


def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of ``tree``: prose such as ``:func:`name``` reaches nothing."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _strings(node, docstrings):
    """The identifiers that ``node``'s strings spell, split at dots.

    perfbench/spans.py names its targets as strings, some dotted: "sweep.SweepResult".
    """
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and id(sub) not in docstrings):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _attributes(node) -> Counter:
    """How often ``node`` reads each attribute name, as in ``x.name``."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _references(node, docstrings):
    """Every identifier ``node`` reads: names, attributes, imports and identifier strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
    yield from _strings(node, docstrings)


def _methods(module, tree) -> dict[str, ast.AST]:
    """``module.Class.name``: the definition of each public method and property of a public class."""
    return {f"{module}.{cls.name}.{fn.name}": fn for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")}


def _defined(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _unreached_names() -> set[str]:
    """``module.name`` of each public top-level name in ``SRC`` that nothing reaches, and
    ``module.Class.name`` of each such public method or property of a public class.

    A reference reaches a top-level name from another top-level statement of ``SRC`` (the
    name's own definition does not count) or from anywhere in ``PERFBENCH``.  A method
    is reached only by an attribute read (``x.name``) in ``SRC`` outside its own body or
    in ``PERFBENCH``, or by a ``PERFBENCH`` string: a local variable of its name is not.
    """
    statements = []  # (module, names defined, identifiers read) per top-level statement
    attributes, methods = Counter(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = _docstrings(tree)
        statements += [(path.stem, _defined(statement), set(_references(statement, docstrings)))
                       for statement in tree.body]
        attributes += _attributes(tree)
        methods.update(_methods(path.stem, tree))
    reached, strings = set(), set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached.update(_references(tree, _docstrings(tree)))
        strings.update(_strings(tree, _docstrings(tree)))
        attributes += _attributes(tree)
    names = {f"{module}.{name}"
             for k, (module, names, _) in enumerate(statements) for name in names
             if not name.startswith("_") and name not in reached
             and not any(name in read for j, (_, _, read) in enumerate(statements) if j != k)}
    return names | {qualified for qualified, definition in methods.items()
                    if (name := qualified.rsplit(".", 1)[1]) not in strings
                    and attributes[name] == _attributes(definition)[name]}


def test_every_public_name_is_reached():
    unreached = _unreached_names()
    assert sorted(unreached - UNREACHED_BY_DESIGN.keys()) == [], (
        "reached by nothing: call it from the CLI path, keep it as an oracle, or delete it")
    assert sorted(UNREACHED_BY_DESIGN.keys() - unreached) == [], (
        "reached now: drop its UNREACHED_BY_DESIGN entry")


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    eta, eta_sfg = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert 0 < eta <= 1
    assert eta_sfg == pytest.approx(eta, rel=1e-10)
    assert list(tmp_path.iterdir()) == []  # the example reads and writes no file
