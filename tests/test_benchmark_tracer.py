"""The benchmark's tracer finds every entry point it wraps.

perfbench/tracing.py wraps kortsolve's layer entry points by name from
outside the package, and a target it cannot find reads 0 in that layer's
per-layer metrics.  This loads the tracer read-only, installs it and checks
that every target resolves, so deleting or renaming a traced entry point
fails here as well as in the benchmark's own checks.
"""

import importlib.util
from pathlib import Path

import kortsolve.modes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    original = kortsolve.modes.solve_mode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert kortsolve.modes.solve_mode is not original
    finally:
        tracer.uninstall()
    assert kortsolve.modes.solve_mode is original
