"""Every submodule of `specsyn` is reachable by its dotted name.

A package that binds a name of its own over a submodule's hides it:
`import specsyn.model.train as t` would give whatever `specsyn.model.train`
names, not the module.
"""

import importlib
import pkgutil

import pytest

import specsyn

SUBMODULES = sorted(info.name for info in pkgutil.walk_packages(specsyn.__path__, "specsyn."))


def test_walk_finds_the_model_package():
    assert {"specsyn.cli", "specsyn.model", "specsyn.model.train"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_attribute_access_gives_the_module(name):
    module = importlib.import_module(name)
    target = specsyn
    for part in name.split(".")[1:]:
        target = getattr(target, part)
    assert target is module, name
