import importlib

import pytest

import cwilf


@pytest.mark.parametrize("name", cwilf.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(cwilf, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("cwilf.")
    assert getattr(home, name) is obj


def test_dir_lists_every_public_name():
    assert set(cwilf.__all__) <= set(dir(cwilf))
    assert "__version__" in dir(cwilf)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cwilf import *", namespace)
    assert {name: namespace[name] for name in cwilf.__all__} == {
        name: getattr(cwilf, name) for name in cwilf.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'assemble_count'"):
        cwilf.assemble_count
    assert not hasattr(cwilf, "cluster_dp_")
