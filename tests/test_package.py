"""The package's export list, derived from the names its imports bind."""

from types import ModuleType

import flowrefine


def test_export_list_is_sorted_and_public():
    names = flowrefine.__all__
    assert names == sorted(names)
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(flowrefine, name), ModuleType)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from flowrefine import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == flowrefine.__all__


def test_only_submodules_are_public_modules():
    # A helper module bound at top level (say ``sys``) would be a public
    # attribute that the export list silently leaves out.
    for name, value in vars(flowrefine).items():
        if isinstance(value, ModuleType) and not name.startswith("_"):
            assert value.__name__ == "flowrefine." + name
