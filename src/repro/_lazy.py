"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package names each re-exported object with the submodule that defines
it; :func:`lazy_exports` returns the module-level ``__getattr__`` and
``__dir__`` that import that submodule on first access and bind the name
in the package, so later lookups are plain attribute reads.  ``__all__``,
``dir()`` and ``from package import *`` cover every name, loaded or not,
and a process loads only the submodules it uses.

A name that is also a submodule of its package is ambiguous: importing
the submodule binds the package attribute to the module, which then
shadows the lazy name (``repro.mining.apriori``).  Import such a name
eagerly where its value must not depend on import order.
"""

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package``, resolving ``exports``
    (public name -> defining module) on first access."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
