"""The benchmark tracer's layer names still resolve in the package.

``perfbench/tracer.py`` wraps the functions named in its ``SPANS`` and
``COUNTED`` tables; a name that no longer resolves drops its per-layer metric
and fails ``perfbench/smoke.py``.  This reads the tables without installing
anything, so a rename shows here, not only at benchmark time.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TABLES = runpy.run_path(str(TRACER))
NAMES = [(layer, name) for table in (TABLES["SPANS"], TABLES["COUNTED"])
         for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,name", NAMES, ids=[f"{layer}.{name}" for layer, name in NAMES])
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"dnlslab.{layer}"), name, None))
