"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every one of them, and their dependencies, in every process
that imports anything under the package.  :func:`lazy_exports` builds the
module-level ``__getattr__`` and ``__dir__`` of such a package from one
``name -> module`` table: a name is imported from its module the first time
it is read and then bound in the package namespace like an eager import.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package with lazy re-exports.

    ``namespace`` is the package's ``globals()`` and ``exports`` maps each
    re-exported name to the module it is imported from.
    """

    def __getattr__(name: str) -> Any:
        """Import ``name`` from its module on first access and bind it."""
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        """The package's bound attributes plus every re-exported name."""
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
