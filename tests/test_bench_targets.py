"""Every engine callable the benchmark tracer wraps still exists.

`perfbench/spans.py` replaces each `TARGETS` attribute by name while it
traces a run. A deleted or renamed target fails only the benchmark's own
suite, which cannot share a pytest run with this one, so this test loads
the tracer module by file path and checks each target on its owner.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_tracer_target_is_defined_on_its_owner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []
