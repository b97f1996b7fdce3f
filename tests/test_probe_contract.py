"""The benchmark's tracer (perfbench/tracer.py) wraps crossemo functions by
their dotted names. A name it probes that no longer exists breaks every
traced benchmark run, so the suite resolves each one here. Nothing under
perfbench/ is changed."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    return importlib.import_module("tracer")


def test_every_traced_module_imports(tracer):
    for name in tracer.CROSSEMO_MODULES:
        importlib.import_module(name)


def test_every_probe_target_resolves(tracer):
    for name in tracer.CROSSEMO_MODULES:
        importlib.import_module(name)
    for probe in tracer.LAYER_PROBES:
        owner_path, _, attr = probe.target.rpartition(".")
        try:
            target = tracer._resolve(owner_path, attr)
        except (AttributeError, KeyError) as exc:
            pytest.fail(f"probe target {probe.target} does not resolve: {exc!r}")
        assert callable(target), probe.target
