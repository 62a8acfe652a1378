"""The benchmark still runs against the engine.

`perfbench/spans.py` replaces each `TARGETS` attribute by name while it
traces a run. The benchmark's own suite cannot share a pytest run with
this one, so one test loads the tracer module by file path and names each
missing target, and another runs that suite in a subprocess, so an engine
change that breaks the workload builder, the gates or the tracer fails here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.skipif(not SPANS.parent.is_dir(), reason="no perfbench/ in this checkout")
def test_benchmark_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
