"""The benchmark tracer (perfbench/spans.py) wraps library names it looks up
by string. A name that no longer resolves breaks every traced benchmark
run, so check them all here; spans.py is only read, never changed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(short):
    return importlib.import_module(f"layerfield.{short}")


def test_traced_names_resolve():
    spans = _spans()
    for short in spans.MODULES:
        _module(short)
    for short, attr in spans.EXTRA_FUNCTIONS:
        assert callable(getattr(_module(short), attr, None)), (short, attr)
    for short, cls_name, meth in spans.EXTRA_METHODS:
        cls = getattr(_module(short), cls_name)
        # Tracer.install patches the class's own attribute
        assert inspect.isfunction(vars(cls).get(meth)), (short, cls_name, meth)
    for name in spans.HOOKS:
        short, attr = name.split(".")
        assert inspect.isfunction(getattr(_module(short), attr, None)), name
