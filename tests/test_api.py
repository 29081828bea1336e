"""The flat ``vardrop`` namespace: exactly the modules' public names."""

import types

import vardrop
from vardrop import analysis, dataset, errors, model, reduction, spectral

MODULES = (dataset, spectral, reduction, model, analysis, errors)


def test_errors_exports_every_error_class():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.VardropError)
    }
    assert set(errors.__all__) == classes


def test_all_is_version_errors_and_module_exports():
    exported = vardrop.__all__
    assert len(exported) == len(set(exported))
    expected = {"__version__"}
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        expected |= set(module.__all__)
    assert set(exported) == expected


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(vardrop, name) is getattr(module, name), name
    assert isinstance(vardrop.__version__, str)


def test_every_public_attribute_is_a_submodule_or_exported():
    # a module without __all__ would leak its imports through the star import
    for name, obj in vars(vardrop).items():
        if name.startswith("_") or name in vardrop.__all__:
            continue
        assert isinstance(obj, types.ModuleType), name
        assert obj.__name__ == f"vardrop.{name}", name
