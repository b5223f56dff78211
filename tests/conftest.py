import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture(autouse=True)
def cold_trace_memos():
    """Start every test with empty per-term memos of the cs and F routes and
    of the bridge cocycle, so that a test counting enumerated block maps sees
    a full enumeration."""
    from symtrace import cyclic

    trace = importlib.import_module("symtrace.trace")  # the package exports a function of that name
    trace._cs_terms.cache_clear()
    trace._F_terms.cache_clear()
    cyclic._beta_terms.cache_clear()
