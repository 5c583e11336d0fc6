"""Lazy package exports (PEP 562): a submodule loads when one of its names is first read.

A package declares each public name once, in a table from submodule to
names, and takes its ``__getattr__``, ``__dir__`` and ``__all__`` from
:func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".matrix": ("CommMatrix", "matrix_from_trace"),
        ".stats": ("TraceStats", "trace_stats"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``."""
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    # A name its submodule shares (``metrics.peers.peers``) is bound now:
    # importing the submodule binds the module object under that name, and
    # ``__getattr__`` never sees a name that is already bound.
    for name, module in origin.items():
        if module == "." + name:
            __getattr__(name)
    return __getattr__, __dir__, list(origin)
