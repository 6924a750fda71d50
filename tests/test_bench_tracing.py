"""The benchmark's tracer still finds every package function it wraps.

A traced benchmark run lists the functions it could not wrap only in its
result file; this test fails as soon as a wrapped function is renamed or
removed.
"""
import sys
from pathlib import Path

import treeshape.cli  # noqa: F401  (the tracer wraps functions of every module)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_tracer_wraps_every_listed_function():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
