"""The benchmark's span tracer must find every module attribute it wraps.

``perfbench/spans.py`` swaps named pomtrans functions for timing wrappers
while a traced benchmark op runs.  Building a ``Tracer`` resolves every
target without installing anything and raises if one is missing, so a
refactor that drops or renames a traced function fails here, not only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

from conftest import write_coupling_inputs

import pomtrans
import pomtrans.cli  # noqa: F401  (the tracer wraps cli.main)
from pomtrans import coupling

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    tracer = spans.Tracer(pomtrans)
    assert len(tracer._patches) == len(spans.TARGETS)
    assert pomtrans.cli.main is tracer._patches[0][2]  # constructing installs nothing


def test_coupling_op_runs_its_walks_inside_the_traced_spans(tmp_path, monkeypatch):
    # the benchmark reports coupling.mode_volume.s from these spans: a volume walked outside
    # them, say first inside a rate, would read as 0 s there without failing anything else
    tracer = _load_spans().Tracer(pomtrans)
    argv = ["coupling"] + write_coupling_inputs(tmp_path, piezo=True)
    monkeypatch.chdir(tmp_path)
    walked_in, intensity_integral = [], coupling._intensity_integral

    def walking(*args):
        walked_in.append(tracer.spans[tracer.stack[-1]][0])
        return intensity_integral(*args)

    monkeypatch.setattr(coupling, "_intensity_integral", walking)
    tracer.install(0)
    try:
        assert pomtrans.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert {name: tracer.calls[name] for name in (
        "coupling.load_mode_field", "coupling.mode_volume", "coupling.piezo_coupling_total",
        "coupling.optomech_coupling")} == {
        "coupling.load_mode_field": 2, "coupling.mode_volume": 2,
        "coupling.piezo_coupling_total": 1, "coupling.optomech_coupling": 1}
    assert walked_in == ["coupling.mode_volume"] * 3
