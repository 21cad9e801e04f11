"""Every library name the benchmark's span tracer wraps must still exist,
so that a refactor cannot turn a traced layer into an absent one unnoticed."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    missing = []
    for span, pairs in spans.TARGETS.items():
        for module, attr in pairs:
            obj = importlib.import_module(f"{spans.PACKAGE}.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{span}: {module}.{attr}")
    assert not missing, missing
