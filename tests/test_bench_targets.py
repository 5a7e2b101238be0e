"""Every call the benchmark's tracer wraps still exists under its name.

``bench/tracing.py`` times a run by replacing package attributes with
wrappers; a renamed or removed one would make the traced run fail or lose
its spans.  This imports the tracer from ``bench/`` without changing it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import rqcsim

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_program_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.program_targets(rqcsim)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets
               if not callable(vars(owner).get(attr))]
    assert not missing

