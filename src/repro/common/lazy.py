"""Lazy package exports (PEP 562).

A package ``__init__`` that imports every submodule makes whoever needs
one name pay for all of them — a replica process, say, would load the
simulator's configuration and the coordinator's TCP server.  Instead it
declares ``_EXPORTS`` (public name -> defining module) and sets
``__getattr__ = lazy_exports(__name__, _EXPORTS)``.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """The module ``__getattr__`` of ``package``: a name of ``exports`` is
    imported from its module on first access and kept as a plain
    attribute after it; any other name is an ``AttributeError`` (which
    also lets ``from package import submodule`` import the submodule)."""

    def __getattr__(name):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
