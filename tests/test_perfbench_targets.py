"""Every function the layer tracer in perfbench/spans.py wraps exists in qrob."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = _load_spans()
    targets = [t for group in spans.TIMED.values() for t in group]
    targets += list(spans.COUNTED.values())
    assert targets
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"
