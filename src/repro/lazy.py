"""Lazy package exports (PEP 562) for the ``__init__`` modules of ``repro``.

A package that re-exports its submodules' names eagerly makes every
``import repro.X`` pay for all of them.  :func:`lazy_exports` instead
gives the package a module ``__getattr__`` that imports a name's defining
module on first access and caches the value in the package namespace.
"""

import importlib
from typing import Callable, Dict, Iterable, Tuple


def lazy_exports(
    namespace: Dict[str, object], modules: Iterable[Tuple[str, Tuple[str, ...]]]
) -> Tuple[Callable[[str], object], Callable[[], list]]:
    """``(__getattr__, __dir__)`` for a package whose exports load on access.

    ``namespace`` is the package's ``globals()``; ``modules`` pairs each
    defining module with the names the package exports from it.
    """
    exports = {name: module for module, names in modules for name in names}

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
