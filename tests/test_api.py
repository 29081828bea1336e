"""The flat ``vardrop`` namespace: exactly the modules' public names."""

import vardrop
from vardrop import analysis, dataset, errors, model, reduction, spectral

MODULES = (dataset, spectral, reduction, model, analysis)


def error_classes():
    return {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.VardropError)
    }


def test_all_is_version_errors_and_module_exports():
    exported = vardrop.__all__
    assert len(exported) == len(set(exported))
    expected = {"__version__"} | error_classes()
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        expected |= set(module.__all__)
    assert set(exported) == expected


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(vardrop, name) is getattr(module, name), name
    for name in error_classes():
        assert getattr(vardrop, name) is getattr(errors, name)
    assert isinstance(vardrop.__version__, str)
