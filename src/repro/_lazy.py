"""Lazy package exports: a package imports a submodule on first use of a name.

Every ``repro`` package ``__init__`` declares which submodule defines each
of its public names and imports none of them::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "table1": ("reproduce_table1",),
        "table2": ("reproduce_table2", "Table2Row"),
    })

``import repro.analysis`` then runs no submodule, and ``from repro.analysis
import reproduce_table1`` runs only ``repro.analysis.table1`` (PEP 562).  A
name that no entry declares but that names a submodule
(``repro.analysis.paper_data``) imports that submodule.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]

#: per package, the exports named like the submodule that defines them
_SHADOWED: dict[str, frozenset[str]] = {}
#: names the lazy machinery adds to a package namespace, hidden from dir()
_MACHINERY = frozenset({"__getattr__", "__dir__", "lazy_exports", "_lazy"})


class _LazyPackage(types.ModuleType):
    """A package whose exports named like their own submodule stay exports.

    Importing ``repro.core.matching_pursuit`` binds the *module* as attribute
    ``matching_pursuit`` of ``repro.core``; an eager ``from .matching_pursuit
    import matching_pursuit`` in ``__init__`` would have rebound the function
    afterwards, so the package keeps the function here too.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (name in _SHADOWED.get(self.__name__, ()) and isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``'s lazy exports.

    ``exports`` maps a submodule path relative to ``package`` (``"table1"``,
    ``"core.ipcore"``) to the names it defines.  A resolved name is stored
    in the package namespace, so each one is looked up once.  ``dir()``
    lists the package's own names, its ``__all__`` and the submodules
    ``exports`` names, whether or not they are imported yet.
    """
    module = sys.modules[package]
    namespace = vars(module)
    origin = {name: path for path, names in exports.items() for name in names}
    _SHADOWED[package] = frozenset(name for name, path in origin.items() if name == path)
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> Any:
        path = origin.get(name)
        if path is not None:
            value = getattr(importlib.import_module(f"{package}.{path}"), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        submodules = {path.split(".")[0] for path in exports}
        public = set(namespace.get("__all__", ())) | set(origin) | submodules
        return sorted((set(namespace) - _MACHINERY) | public)

    return __getattr__, __dir__
