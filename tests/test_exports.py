"""Every name the package and its modules export resolves, so a deletion
that leaves a stale ``__all__`` entry fails here."""

import importlib

import pytest

import qcollide


@pytest.mark.parametrize("name", ["qcollide", *(f"qcollide.{m}" for m in qcollide.__all__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
