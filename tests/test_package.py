import importlib

import fogsim

MODULES = ("calibration", "config", "geometry", "model", "simulate", "stability")


def test_package_names_are_the_modules_names():
    """fogsim's public names are the union of its modules' ``__all__``, each
    declared once, and each is the same object in fogsim as in its module."""
    modules = [importlib.import_module(f"fogsim.{name}") for name in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert len(set(fogsim.__all__)) == len(fogsim.__all__)
    assert set(fogsim.__all__) == set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(fogsim, name) is getattr(module, name), (module.__name__, name)
