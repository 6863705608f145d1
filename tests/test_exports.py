"""Names other code reaches by path: the package's exports and the benchmark's tracer targets."""
import importlib.util
from pathlib import Path

import momentropy

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_exported_name_resolves():
    for name in momentropy.__all__:
        assert getattr(momentropy, name) is not None, name


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/tracing.py rebinds these names from outside to time each layer;
    # a name that no longer resolves loses its per-layer metric
    spec = importlib.util.spec_from_file_location("momentropy_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for paths in tracing.TARGETS.values():
        for path in paths:
            try:
                tracing._resolve(path)
            except (ImportError, AttributeError):
                unresolved.append(path)
    assert unresolved == []
