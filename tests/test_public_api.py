"""The package's star-export list names exactly its public attributes."""

import types

import metricopt


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from metricopt import *", namespace)
    assert set(metricopt.__all__) <= namespace.keys()


def test_all_lists_every_public_non_module_attribute():
    public = {
        name
        for name, value in vars(metricopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(metricopt.__all__) == public
    assert len(metricopt.__all__) == len(set(metricopt.__all__))
