"""The package root binds modules only, and README's library example runs as written."""

import types
from pathlib import Path

import pytest

import pomtrans

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_attribute_is_a_module():
    public = {name: getattr(pomtrans, name) for name in dir(pomtrans) if not name.startswith("_")}
    assert {"analysis", "coupling", "dynamics", "errors", "materials", "rings", "sfg",
            "sweep"} <= set(public)
    assert [name for name, value in public.items()
            if not isinstance(value, types.ModuleType)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    eta, eta_sfg = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert 0 < eta <= 1
    assert eta_sfg == pytest.approx(eta, rel=1e-10)
    assert list(tmp_path.iterdir()) == []  # the example reads and writes no file
