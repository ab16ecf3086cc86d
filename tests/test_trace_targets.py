"""The benchmark's span tracer must find every module attribute it wraps.

``perfbench/spans.py`` swaps named pomtrans functions for timing wrappers
while a traced benchmark op runs.  Building a ``Tracer`` resolves every
target without installing anything and raises if one is missing, so a
refactor that drops or renames a traced function fails here, not only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pomtrans
import pomtrans.cli  # noqa: F401  (the tracer wraps cli.main)

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
