"""The benchmark's wrapped names still exist in the library.

``bench/layers.py`` wraps library functions at the module attributes the
library calls them through, and the benchmark raises LookupError on a name
that no longer resolves. This imports that file as it stands and resolves
every name it lists, so a rename in ``src/`` fails here first.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_bench_wrapped_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    names = [name for name, _ in layers.CALL_NAMES] + list(layers.COMPARATOR_FACTORIES)
    missing = []
    for target in names:
        module_name, _, attr = target.rpartition(".")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(target)
    assert names
    assert missing == []
