"""The benchmark tracer wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module_name,attr",
    [
        (module_name, attr)
        for module_name, attrs in spans.SPANNED + spans.COUNTED
        for attr in attrs
    ],
)
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
