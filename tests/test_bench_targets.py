"""Every function the benchmark tracer wraps is still where the tracer looks for it.

``bench/tracing.py`` patches each ``(module, path)`` of its ``TARGETS`` in place
and records a missing one as absent, so a rename in the package would only show
as a missing span in a benchmark run. This reads the list and changes nothing.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    from tracing import TARGETS
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("module_name,path", [(module, path) for module, path, _ in TARGETS],
                         ids=[name for _, _, name in TARGETS])
def test_tracer_target_resolves(module_name, path):
    # As bench/test_bench.py reads a target: a module attribute, or a class __dict__ entry.
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}.{path} is gone"
    assert callable(vars(owner)[attr])
