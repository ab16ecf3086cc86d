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

#: public names that no live code in src/ and nothing in perfbench/ reaches, each
#: with its reason to stay; any other such name fails, and so does a stale entry.
#: A name that only these names reach is listed too: it goes with them.
UNREACHED_BY_DESIGN = {
    "analysis.kappa_ex2_threshold":
        "ROADMAP item 4 makes it the sign of the kappa_ex2 elasticity, or deletes it",
    "analysis.ThresholdResult": "kappa_ex2_threshold's result; ROADMAP item 4 decides both",
    "dynamics.enhancement_peak_value":
        "ROADMAP item 4 decides it; it pins enhancement_resonances and intra_ring_gain",
    "coupling.normalize_em": "ROADMAP item 6 decides the normalization the rates assume",
    "coupling.normalize_mech": "ROADMAP item 6 decides the normalization the rates assume",
    "coupling.effective_mass": "ROADMAP item 6 may normalize to the zero-point motion",
    "coupling.ModeField.scaled": "normalize_em and normalize_mech rescale a field with it",
    "rings.coupled_fraction":
        "ROADMAP item 7's coupler-to-J oracle; it reaches CouplerGeometry and beat_length",
    "rings.CouplerGeometry": "coupled_fraction's input, part of ROADMAP item 7's oracle",
    "rings.beat_length": "coupled_fraction's coupling length, part of ROADMAP item 7's oracle",
    "coupling.save_mode_field":
        "writes the mode-field files the coupling command reads; ROADMAP item 5 extends it",
    "sfg.graph_determinant": "oracle: the transducer graph's determinant is Eq. 3's denominator",
    "sfg.all_source_gains": "oracle: criterion 9 sums its port powers against passivity",
    "sfg.SourceGains": "all_source_gains' result, part of criterion 9's oracle",
    "sfg.SignalFlowGraph.source_ids": "the sources all_source_gains sums over, part of its oracle",
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


def _walk(node, skip=frozenset()):
    """``ast.walk(node)``, leaving out the subtrees whose ids are in ``skip``."""
    todo = [node]
    while todo:
        sub = todo.pop()
        if id(sub) not in skip:
            yield sub
            todo.extend(ast.iter_child_nodes(sub))


def _strings(node, skip):
    """The identifiers that ``node``'s strings spell, split at dots; ``skip`` holds docstrings.

    perfbench/spans.py names its targets as strings, some dotted: "sweep.SweepResult".
    """
    for sub in _walk(node, skip):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _attributes(node, skip=frozenset()) -> Counter:
    """How often ``node`` reads each attribute name, as in ``x.name``."""
    return Counter(sub.attr for sub in _walk(node, skip) if isinstance(sub, ast.Attribute))


def _references(node, skip):
    """Every identifier ``node`` reads: names, attributes, imports and identifier strings."""
    for sub in _walk(node, skip):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
    yield from _strings(node, skip)


def _methods(statement) -> list[ast.AST]:
    """The public methods and properties of ``statement``, if it defines a public class."""
    if not isinstance(statement, ast.ClassDef) or statement.name.startswith("_"):
        return []
    return [fn for fn in statement.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")]


def _defined(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _nodes(module, tree):
    """``(qualified names, binds, identifiers read, attributes read)`` per node of ``tree``.

    A node is a top-level statement, with each public method and property of a
    public class split out as a node of its own, and each name an import binds
    a node that reads what it imports and defines no name of its own.
    """
    docstrings = _docstrings(tree)
    for statement in tree.body:
        methods = _methods(statement)
        skip = docstrings | {id(fn) for fn in methods}
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                bound = (alias.asname or alias.name).split(".")[0]
                yield [], {bound}, set(_references(alias, skip)), Counter()
            continue
        defined = _defined(statement)
        yield ([f"{module}.{name}" for name in defined], set(defined),
               set(_references(statement, skip)), _attributes(statement, skip))
        for fn in methods:
            yield ([f"{module}.{statement.name}.{fn.name}"], {fn.name},
                   set(_references(fn, docstrings)), _attributes(fn))


def _unreached_names() -> set[str]:
    """``module.name`` of each public top-level name in ``SRC`` that nothing live reaches, and
    ``module.Class.name`` of each such public method or property of a public class.

    A node of ``SRC`` (see :func:`_nodes`) is live if it binds no name, such as an
    ``if __name__ == "__main__":`` block, or if a name it binds is reached.  A
    top-level name is reached by a reference from another live node, or from
    anywhere in ``PERFBENCH``.  A method is reached only by an attribute read
    (``x.name``) in another live node or in ``PERFBENCH``, or by a ``PERFBENCH``
    string: a local variable of its name is not.  So a name that only unreached
    names reach is unreached too; the walk adds live nodes until none is left to add.
    """
    nodes = []
    for path in sorted(SRC.glob("*.py")):
        nodes += _nodes(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    reached, strings, attributes = set(), set(), Counter()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached.update(_references(tree, _docstrings(tree)))
        strings.update(_strings(tree, _docstrings(tree)))
        attributes += _attributes(tree)

    def reaches(k, name, live_reads, live_attributes):
        """Whether live nodes other than ``k``, or ``PERFBENCH``, reach ``name`` of node ``k``."""
        _, _, read, attrs = nodes[k]
        own, short = k in live, name.rsplit(".", 1)[-1]
        if name.count(".") == 2:  # a method
            return (short in strings or attributes[short] > 0
                    or live_attributes[short] - (attrs[short] if own else 0) > 0)
        return short in reached or live_reads[short] - (own and short in read) > 0

    live = {k for k, (_, binds, _, _) in enumerate(nodes) if not binds}
    while True:
        live_reads, live_attributes = Counter(), Counter()
        for k in live:
            live_reads.update(nodes[k][2])
            live_attributes += nodes[k][3]
        grown = {k for k, (names, binds, _, _) in enumerate(nodes) if k not in live
                 and any(reaches(k, name, live_reads, live_attributes) for name in names or binds)}
        if not grown:
            break
        live |= grown
    return {name for k, (names, _, _, _) in enumerate(nodes) for name in names
            if not name.rsplit(".", 1)[1].startswith("_")
            and not reaches(k, name, live_reads, live_attributes)}


def test_every_public_name_is_reached():
    unreached = _unreached_names()
    assert sorted(unreached - UNREACHED_BY_DESIGN.keys()) == [], (
        "reached by nothing: call it from the CLI path, keep it as an oracle, or delete it")
    assert sorted(UNREACHED_BY_DESIGN.keys() - unreached) == [], (
        "reached now: drop its UNREACHED_BY_DESIGN entry")


def test_reach_is_transitive(tmp_path, monkeypatch):
    # root() runs from the __main__ block; oracle() is reached by nothing, so chain(),
    # the import of helper it uses, helper() and the methods only it calls are not either
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "from .n import helper, kept\n"
        "def root():\n    return used(), C().kept_method(), kept()\n"
        "def used():\n    return 1\n"
        "def oracle():\n    return chain()\n"
        "def chain():\n    return helper(), C().dead_method()\n"
        "class C:\n"
        "    def kept_method(self):\n        return 1\n"
        "    def dead_method(self):\n        return self.read()\n"
        "    def read(self):\n        return 1\n"
        "if __name__ == '__main__':\n    root()\n", encoding="utf-8")
    (src / "n.py").write_text("def helper():\n    return 2\n"
                              "def kept():\n    return 3\n"
                              "def benched():\n    return benched_too()\n"
                              "def benched_too():\n    return 4\n", encoding="utf-8")
    (bench / "run.py").write_text("from m import benched\n", encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", src)
    monkeypatch.setitem(globals(), "PERFBENCH", bench)
    assert sorted(_unreached_names()) == [
        "m.C.dead_method", "m.C.read", "m.chain", "m.oracle", "n.helper"]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    eta, eta_sfg = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert 0 < eta <= 1
    assert eta_sfg == pytest.approx(eta, rel=1e-10)
    assert list(tmp_path.iterdir()) == []  # the example reads and writes no file
