"""The package's export lists and the traced benchmark harness keep
working against the package's API.

``benchmarks/tracing.py`` wraps package functions by name when a tracer is
entered.  A renamed or removed function makes entering fail, so this test
catches it before a traced benchmark run does.  A name deleted from a
module but left in its ``__all__`` or in the package's imports is caught
the same way.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np

import ddh2mor

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    tracing = load_tracing(monkeypatch)
    original = ddh2mor.solve_stein
    with tracing.Tracer() as tracer:
        assert ddh2mor.solve_stein is not original
        ddh2mor.solve_stein(np.array([[0.5]]), np.array([[0.75]]))
    assert ddh2mor.solve_stein is original
    layers = tracer.layers()
    assert set(map(tracing.span_name, tracing.SPANNED + tracing.COUNTED)) <= set(layers)
    assert layers["matequ.solve_stein"].calls == 1


def test_export_lists_name_what_exists():
    modules = {info.name: importlib.import_module(f"ddh2mor.{info.name}")
               for info in pkgutil.iter_modules(ddh2mor.__path__)}
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"ddh2mor.{name}.__all__ lists undefined {missing}"
    # the package re-exports only what each module declares public; a
    # module without __all__ declares every name without a leading underscore
    for node in ast.parse(Path(ddh2mor.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = modules[node.module]
            public = getattr(module, "__all__",
                             [n for n in vars(module) if not n.startswith("_")])
            unlisted = [a.name for a in node.names if a.name not in public]
            assert not unlisted, f"ddh2mor imports {unlisted} outside ddh2mor.{node.module}.__all__"
