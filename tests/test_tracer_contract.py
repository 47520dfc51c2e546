"""Every name the benchmark's tracer wraps is where ``install()`` looks for it.

``bench/tracer.py`` lists the traced entry points by name; a name that was
deleted or renamed makes a traced run (``bench/run.py --trace 1``) fail at
install time, so the lists are checked here against the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("modname, fname, span", TRACER.FUNCTIONS,
                         ids=[f"{m}.{f}" for m, f, _ in TRACER.FUNCTIONS])
def test_wrapped_function_is_a_module_attribute(modname, fname, span):
    assert callable(getattr(importlib.import_module(f"g0wb.{modname}"), fname))


@pytest.mark.parametrize("modname, cname, attr, span", TRACER.METHODS,
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in TRACER.METHODS])
def test_wrapped_method_is_in_the_class_dict(modname, cname, attr, span):
    cls = getattr(importlib.import_module(f"g0wb.{modname}"), cname)
    assert attr in cls.__dict__
