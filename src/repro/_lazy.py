"""PEP 562 lazy exports for the package facades.

A facade ``__init__`` lists which module defines each public name;
the name's module is imported on first attribute access, so importing a
package costs only its own ``__init__``::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.results": ("RunResult",),
        "repro.chaos.hooks": ("hooks",),  # the submodule itself
    })

A name equal to the last component of its module path exports that
submodule. Each resolved name is cached in the package namespace, so
later lookups never reach ``__getattr__``.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """Module-level ``__getattr__`` and ``__dir__`` for a package whose
    ``namespace`` (its ``globals()``) exports each name of ``table``
    (``{module: names}``) from that module."""
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
