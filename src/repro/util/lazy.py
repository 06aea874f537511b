"""Re-exports resolved on first access (PEP 562).

A package ``__init__`` lists its public names in one name -> defining
module table and hands it to :func:`lazy_exports`; importing the package
then imports none of those modules.  The first access to a name imports
its module and caches the value on the package, so later accesses are
plain attribute reads, as with an eager ``from module import name``.
A sweep then loads only what its engine runs: the agent engine never
pulls in numpy through a package ``__init__``.

    _EXPORTS = {"Simulation": "repro.sim.engine", ...}
    __all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for ``package`` re-exporting
    each name of ``exports`` from the module it maps to."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    return list(exports), __getattr__, __dir__
