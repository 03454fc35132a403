"""numpy, imported on its first attribute access.

``spaces`` and ``dynamics`` take ``np`` from here, so importing dforge loads
no numpy: a command that never touches an array (``derive``) runs without
it, and any numeric command pays the import at its first array.  This is the
``importlib.util.LazyLoader`` recipe of the standard library documentation.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, executed when one of its attributes is first read.

    An already-imported module is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
