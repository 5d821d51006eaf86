"""Every function and ZetaEngine method that the benchmark's traced run wraps
(benchmark/spans.py: FUNCTIONS, ENGINE_METHODS) still exists.  A missing
name would crash the traced run, so a deletion in zetasum fails here first.
spans.py is read and executed in a fresh namespace; no file under
benchmark/ is written."""

import importlib
import types
from pathlib import Path

from zetasum.zetafn import ZetaEngine

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_spans():
    module = types.ModuleType("benchmark_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_trace_target_exists():
    spans = load_spans()
    for layer, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"zetasum.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"zetasum.{layer}.{name}"
    for meth in spans.ENGINE_METHODS:
        assert meth in ZetaEngine.__dict__, f"ZetaEngine.{meth}"
