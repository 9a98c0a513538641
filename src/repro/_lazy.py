"""Package re-exports that load on first use (PEP 562).

A package ``__init__`` that re-exports its subtree eagerly makes every
importer pay for all of it: the serving daemon would load the training
algorithms and the corpus generator only because they share a package.
A package that uses :func:`lazy_exports` instead names each public
symbol's defining module in one table, and the module holding the
symbol loads the first time the name is read — by attribute access,
``from package import name`` or ``from package import *``.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    re-exported name to the module that defines it.  A name in the
    table resolves to that module's attribute; any other name resolves
    to the package's submodule of that name, and raises
    :class:`AttributeError` when there is none.  An ``ImportError``
    raised while a module loads propagates unchanged.  A resolved name
    is stored in the package, so it is looked up once.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        submodule = f"{package}.{name}"
        if name in exports:
            value = getattr(importlib.import_module(exports[name]), name)
        elif name.isidentifier() and importlib.util.find_spec(submodule):
            value = importlib.import_module(submodule)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
