"""Every function and ZetaEngine method that the benchmark's traced run wraps
(benchmark/spans.py: FUNCTIONS, ENGINE_METHODS) still exists.  A missing
name would crash the traced run, so a deletion in zetasum fails here first.
spans.py is read and executed in a fresh namespace, and BENCHMARK.json is
checked against the benchmark code by benchmark/check_spec.py in its static
mode; no file under benchmark/ is written."""

import importlib
import subprocess
import sys
import types
from pathlib import Path

from zetasum.zetafn import ZetaEngine

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmark" / "spans.py"


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


def test_benchmark_spec_matches_code():
    proc = subprocess.run([sys.executable, "benchmark/check_spec.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
