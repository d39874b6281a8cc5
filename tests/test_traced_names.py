"""Every name the traced benchmark run wraps resolves on the package.

``perfbench/tracing.py`` looks each ``LAYERS`` name up on its ``seqarea``
module and each ``QUADELEM_METHODS`` entry in ``QuadElem.__dict__``; a name
that no longer resolves breaks the traced run.  The file is read here as
it stands, without importing the package from the benchmark's side.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from seqarea.numerics import QuadElem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
FUNCTIONS = [name for name in tracing.LAYERS if not name.startswith("numerics.")]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_traced_function_resolves(name):
    home, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"seqarea.{home}"), attr))


@pytest.mark.parametrize("method", tracing.QUADELEM_METHODS)
def test_traced_quadelem_method_exists(method):
    assert method in QuadElem.__dict__
    assert f"numerics.QuadElem.{method}" in tracing.LAYERS
