"""The benchmark's span names still name plain functions of `phq`.

`perfbench/spans.py` wraps each name of `SPANS` by reading the attribute
from the module or from the class ``__dict__``; a rename, or a method that
becomes a property, breaks the traced benchmark run.
"""

import importlib
import types

import pytest

from spans import SPANS  # perfbench/, on the path through conftest


@pytest.mark.parametrize(
    "layer, qual", [(layer, qual) for layer, quals in SPANS.items() for qual in quals]
)
def test_span_is_a_plain_function(layer, qual):
    owner = importlib.import_module(f"phq.{layer}")
    *classes, attr = qual.split(".")
    for name in classes:
        owner = vars(owner)[name]
    assert isinstance(vars(owner).get(attr), types.FunctionType)
