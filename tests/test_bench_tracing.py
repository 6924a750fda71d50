"""The benchmark's tracer still finds every package function it wraps.

A traced benchmark run lists the functions it could not wrap only in its
result file; this test fails as soon as a wrapped function is renamed or
removed.  The registration building blocks must also be what ``register``
runs, or their spans read 0 calls.  Within one ``register`` the main-curve
DP runs once per distinct input, b's main under the sweep's rotation, so its
span counts the DPs that ran, not the sweeps.
"""
import sys
from pathlib import Path

import treeshape.cli  # noqa: F401  (the tracer wraps functions of every module)
from treeshape import Weights, registration
from treeshape.metric import PairOptions, prepare_pair

from conftest import smooth_tree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_tracer_wraps_every_listed_function():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_building_block_spans_count_every_sweep(rng):
    opts = PairOptions(n_main=30, n_lateral=10)
    Qa, Qb = prepare_pair(smooth_tree(rng, "a", 2), smooth_tree(rng, "b", 1), opts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reg = registration.register(Qa, Qb, Weights())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    sweeps = len(reg.cost_history) - 1
    assert summary["registration.register.calls"] == 1
    assert summary["registration.sweeps"] == sweeps >= 1
    for span in ("match_laterals", "optimal_rotation"):
        assert summary[f"registration.{span}.calls"] >= sweeps, span
    assert 1 <= summary["registration.optimal_reparam_main.calls"] < sweeps


def test_apply_registration_runs_transform_tree(rng):
    opts = PairOptions(n_main=30, n_lateral=10)
    Qa, Qb = prepare_pair(smooth_tree(rng, "a", 2), smooth_tree(rng, "b", 1), opts)
    reg = registration.register(Qa, Qb, Weights())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        registration.apply_registration(Qb, reg)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["registration.apply_registration.calls"] == 1
    assert summary["registration.transform_tree.calls"] == 1
    # the transform_tree span nests inside the apply_registration span
    names = [tracer.names[i] for i in tracer.span_name]
    apply = names.index("registration.apply_registration")
    assert tracer.span_parent[names.index("registration.transform_tree")] == apply
