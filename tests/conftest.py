import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture(autouse=True)
def cold_trace_memos():
    """Start every test with every memo table of the trace routes empty, and
    the bridge cocycle's, so that a test counting enumerated block maps sees
    a full enumeration.  The trace tables are found by their ``cache_clear``,
    so a new table starts cold too."""
    from symtrace import cyclic

    trace = importlib.import_module("symtrace.trace")  # the package exports a function of that name
    for value in vars(trace).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    cyclic._beta_terms.cache_clear()
