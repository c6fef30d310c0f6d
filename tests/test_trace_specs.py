"""The benchmark tracer's targets exist in the library.

``perfbench/tracer.py`` wraps the functions and methods named in its
``SPECS`` table by module and qualified name; a traced run
(``perfbench/run.py --trace 1``) fails if one of them is renamed or
deleted.  The tracer is loaded from its path and not installed, so this
runs without the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.SPECS
    missing = []
    for layer, qualname in tracer.SPECS:
        owner, _, method = qualname.partition(".")
        target = getattr(importlib.import_module(f"betticong.{layer}"), owner, None)
        if method:
            # The tracer reads methods from the class __dict__.
            target = getattr(target, "__dict__", {}).get(method)
        if target is None:
            missing.append(f"{layer}.{qualname}")
    assert missing == []
