"""The traced benchmark harness keeps working against the package's API.

``benchmarks/tracing.py`` wraps package functions by name when a tracer is
entered.  A renamed or removed function makes entering fail, so this test
catches it before a traced benchmark run does.
"""

import importlib.util
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
