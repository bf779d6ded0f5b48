"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names with plain
imports loads every one of them, and their third-party dependencies,
whenever any one of them is imported: ``import repro.sim.engine`` would
pay for the whole package. :func:`lazy_exports` resolves a re-exported
name on first access instead, importing only the submodule that defines
it, so ``from repro import simulate`` and ``repro.simulate`` keep
working at the cost of what they use.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any],
    table: dict[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``namespace``.

    ``table`` maps each submodule, relative to the package, to the names
    it exports. A resolved name is stored in ``namespace``, so the
    package's ``__getattr__`` runs at most once per name.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
