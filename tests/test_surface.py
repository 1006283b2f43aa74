"""The package's public names: each declared once, in its module's ``__all__``."""

import pkgutil

import ouphase
from ouphase import analytics, detection, errors, estimators, experiment, stochastic

MODULES = (errors, stochastic, detection, estimators, analytics, experiment)


def test_all_is_the_version_and_each_module_all():
    # every module but the command-line front end is part of the library
    modules = {info.name for info in pkgutil.iter_modules(ouphase.__path__)}
    assert modules - {"cli"} == {m.__name__.removeprefix("ouphase.") for m in MODULES}
    assert ouphase.__all__ == ["__version__"] + [name for m in MODULES for name in m.__all__]


def test_each_name_once_and_each_name_resolves():
    assert len(set(ouphase.__all__)) == len(ouphase.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ouphase, name) is getattr(module, name), name


def test_test_only_helpers_are_gone():
    # EstimatorParams is the one type of the rates and weights, and its
    # combine method the one combination rule
    for module, name in ((estimators, "combine_smoothed"), (analytics, "TheoryPoint"),
                         (estimators, "check_rates_and_weights")):
        assert not hasattr(module, name), name
        assert name not in ouphase.__all__, name
    assert not hasattr(ouphase.SimGrid, "times")
