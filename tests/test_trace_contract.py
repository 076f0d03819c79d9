"""The benchmark's tracer (perfbench/spans.py) wraps fogsim functions by
looking up attribute names in the modules that call them.  A refactor that
renames or stops importing one of those names breaks traced benchmark runs,
so every wrapped (module, attribute) pair must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # imports only the standard library
    assert spans.WRAPPED
    missing = [(module, attribute) for module, attribute, *_ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []
