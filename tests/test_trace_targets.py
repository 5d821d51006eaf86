"""Every function and ZetaEngine method that the benchmark's traced run wraps
(benchmark/spans.py: FUNCTIONS, ENGINE_METHODS) still exists.  A missing
name would crash the traced run, so a deletion in zetasum fails here first.
spans.py is read and executed in a fresh namespace, and BENCHMARK.json is
checked against the benchmark code by benchmark/check_spec.py in its static
mode; no file under benchmark/ is written.  The zetasum calls of
benchmark/reference.py, which no test runs, are read from its syntax tree
and bound to the signatures they call."""

import ast
import importlib
import inspect
import subprocess
import sys
import types
from pathlib import Path

from zetasum.numctx import NumericContext
from zetasum.zeros import export_zeros, import_zeros, locate_zeros
from zetasum.zetafn import ZetaEngine

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmark" / "spans.py"
REFERENCE = ROOT / "benchmark" / "reference.py"


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


def test_every_refinement_pass_is_a_traced_call(hardy_passes, monkeypatch, tmp_path):
    # each full-precision pass of Z is a call of a method in Z_EVALS, so the
    # traced run's Z counts see every pass of a zero run
    calls = []
    for name in load_spans().Z_EVALS:
        meth = name.split(".", 1)[1]

        def counted(self, *args, _meth=getattr(ZetaEngine, meth)):
            calls.append(self)
            return _meth(self, *args)

        monkeypatch.setattr(ZetaEngine, meth, counted)
    ctx = NumericContext(96)
    path = tmp_path / "zeros.txt"
    export_zeros(locate_zeros(3, ctx), path, ctx)
    import_zeros(path, ctx)
    assert len(calls) == len(hardy_passes) > 0


def test_benchmark_spec_matches_code():
    proc = subprocess.run([sys.executable, "benchmark/check_spec.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def reference_calls():
    """(dotted name, function, positional count, keyword names) of each call
    in reference.py of a function of a zetasum module it imports, made
    directly or through its timed(fn, *args, repeat=...) helper."""
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"zetasum.{alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "zetasum" for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = node.func, node.args, [k.arg for k in node.keywords]
        if isinstance(func, ast.Name) and func.id == "timed":
            func, args, keywords = args[0], args[1:], [k for k in keywords if k != "repeat"]
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            module = importlib.import_module(modules[func.value.id])
            yield (f"{func.value.id}.{func.attr}", getattr(module, func.attr), len(args),
                   keywords)


def test_reference_calls_still_bind():
    # reference.py passes engines positionally to pole_catalog and
    # numeric_residue; dropping or reordering a parameter fails here
    seen = set()
    for name, fn, positional, keywords in reference_calls():
        seen.add(name)
        inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
    assert {"sr.pole_catalog", "sr.numeric_residue"} <= seen
