"""Modules loaded on first attribute access.

``np = lazy_import("numpy")`` binds a module object whose code runs the
first time an attribute is read (``importlib.util.LazyLoader``,
PEP 451); from then on it is a plain module.  ``import scx`` and the
``scx matroid`` commands, which never touch numpy, never pay for it.

The first load is not thread-safe on Python 3.11: two threads reading
the first attribute at once could both run the module's code.  The
library starts no threads, so on its own the first access happens on
one; a program that calls it from several threads imports numpy before
scx, and then ``lazy_import`` returns the loaded module.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy_import(name: str) -> types.ModuleType:
    """The module ``name``, loaded when first used; an unknown name raises now."""
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
