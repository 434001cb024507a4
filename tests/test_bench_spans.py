"""The benchmark's span table names only things that exist in roeclass.

``bench/spans.py`` wraps each function or method that its ``SPANS`` table
names, and ``Tracer.install`` skips a name it cannot find without a word: a
renamed function would leave its per-layer metric at zero.  This test names
the entries that no longer resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolves(mod: str, attr: str) -> bool:
    """Whether ``attr`` is a callable of ``roeclass.<mod>``, or "Class.method"
    a method defined on that class itself (the tracer patches the class)."""
    module = importlib.import_module(f"roeclass.{mod}")
    owner, _, method = attr.partition(".")
    if method:
        return callable(vars(getattr(module, owner, object)).get(method))
    return callable(getattr(module, attr, None))


def test_every_span_resolves():
    spans = load_spans()
    assert len(spans) > 30
    missing = [name for name, (mod, attr) in spans.items() if not resolves(mod, attr)]
    assert missing == []
