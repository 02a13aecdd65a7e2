"""The benchmark's layer trace names only attributes that exist, so a
refactor that drops a traced name fails here instead of reporting a count
of 0 in the trace."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

# Traced names whose code is already gone; the trace reports them as 0
# until the benchmark's layer list is next updated.
GONE = {"search._table_is_prime", "meansquare._l2_grid_refined",
        "expsums._t_grid_pass"}


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owners, attr, name, _ in tracing.LAYERS
               if name not in GONE and attr not in owners[0].__dict__]
    assert missing == []
