"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import otbec

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(otbec.__path__, prefix="otbec.")
)


@pytest.mark.parametrize("module_name", ["otbec", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
