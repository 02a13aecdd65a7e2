from types import SimpleNamespace

import pytest

from primearcs import numutil
from primearcs.errors import PrecisionError


def test_float64_only_longdouble_rejected(monkeypatch):
    # a platform whose longdouble is a plain double (aarch64 macOS, Windows)
    monkeypatch.setattr(numutil.np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    with pytest.raises(PrecisionError, match="52-bit mantissa"):
        numutil.require_extended_longdouble()
