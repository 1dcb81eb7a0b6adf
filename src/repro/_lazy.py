"""Lazy package exports (PEP 562): a name is imported when it is first read.

An emulated device's worker process imports ``repro.edge.runtime`` and
``repro.core.inference``; with eager ``__init__`` files that drags in
every sibling of every package on the way (the planner, the simulator,
training, the experiment harness).  A package that declares its exports
through :func:`lazy_exports` keeps the same public surface — ``__all__``,
``dir()``, ``from pkg import name`` and ``from pkg import *`` all work —
but importing it imports nothing else.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 submodules: Sequence[str] = ()):
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``exports`` maps a relative module (``".edvit"``) to the names it
    provides; ``submodules`` are child modules exported as themselves.  A
    resolved name is stored on the package, so it is looked up once.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    public = sorted([*origin, *submodules])

    def __getattr__(name: str):
        if name in origin:
            value = getattr(importlib.import_module(origin[name], package),
                            name)
        elif name in submodules:
            value = importlib.import_module("." + name, package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*public, *vars(sys.modules[package])})

    return __getattr__, __dir__, public
