"""The benchmark's tracer patches library names by module attribute.

Installing a Tracer must find every name in its PLAN and uninstalling it
must put each original binding back, so that renaming or deleting a name
the tracer wraps fails here and not only in the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_binding():
    tracing = _load_tracer()
    bindings = [(tracing._resolve(owner), attr) for owner, attr, _, _ in tracing.PLAN]
    before = [vars(owner)[attr] for owner, attr in bindings]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = [vars(owner)[attr] for owner, attr in bindings]
    finally:
        tracer.uninstall()
    after = [vars(owner)[attr] for owner, attr in bindings]
    assert all(new is not old for new, old in zip(during, before))
    assert all(new is old for new, old in zip(after, before))
