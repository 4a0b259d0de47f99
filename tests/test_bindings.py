"""The benchmark's traced run hooks into the program by name: every
(owner, attribute) it wraps must exist on that owner itself."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.program_bindings() if attr not in vars(owner)]
    assert missing == []
