"""The package's public names are those of its six submodules."""

import dforge
from dforge import algebra, dynamics, effective, parsing, scenario, spaces

MODULES = (algebra, dynamics, effective, parsing, scenario, spaces)


def test_public_names_are_the_submodule_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 41
    assert sorted(dforge.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dforge, name) is getattr(module, name), name
