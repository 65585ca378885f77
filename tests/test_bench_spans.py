"""The benchmark's traced names must keep resolving to hilb3 functions.

bench/spans.py wraps every name in its TRACED table when a run asks for
per-layer metrics (--trace 1); a renamed or deleted function would make
that run fail.  The file is loaded by path and never edited here.
"""
import importlib
import importlib.util
import inspect
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = sorted(_load_spans().TRACED)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_function(name):
    mod, attr = name.split(".")
    fn = getattr(importlib.import_module(f"hilb3.{mod}"), attr, None)
    assert inspect.isfunction(fn), f"{name} no longer names a function in hilb3"

