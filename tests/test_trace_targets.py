"""Every function the benchmark's tracer wraps must still exist in the library.

bench/tracing.py's Tracer.install looks each target up in its owner's
__dict__, so a renamed or deleted name breaks `bench/run.py --trace 1`.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    targets = importlib.import_module("tracing").TARGETS
    missing = []
    for module_name, attr_path, _, _ in targets:
        owner = importlib.import_module(f"crfidsim.{module_name}")
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []
