import importlib

import pytest

MODULES = ["cli", "dynamics", "homotopy", "labeling", "linear", "maps", "mapspec",
           "maxpreserving", "order", "scalarfn", "triangulation"]


@pytest.mark.parametrize("name", ["decaycert"] + [f"decaycert.{m}" for m in MODULES])
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []

