"""Numerical laboratory for the semilinear wave equation

    u_tt - Lap(u) - b0 (1+t)^(-beta) Lap(u_t) = |u|^p

on periodic boxes: pseudo-spectral operators, an IMEX time stepper with an
energy ledger and finite-time blow-up detection, closed-form critical-exponent
calculators, weak-form power-law verification, scaling experiments, ODE
oracles, and reproducible parameter sweeps.

Each module's `__all__` is the list of its public names; all of them are
re-exported here, and they load on first use.  `import blowuplab` imports
no submodule; the first read of a package name (`blowuplab.Grid`, `from
blowuplab import stepper`, `dir()` or a star import) imports the eight
modules in the order of `_MODULES` and binds their public names here, as
star imports of them would.  So a program that reads any package name loads
the whole library, always in one order, and one that reads none, as
`blowuplab.cli` does, loads only the modules it imports itself.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("exponents", "grids", "model", "oracles", "stepper", "weakform", "scaling", "sweep")


def _load() -> None:
    names = globals()
    for short in _MODULES:
        module = importlib.import_module(f"{__name__}.{short}")
        names.update((public, getattr(module, public)) for public in module.__all__)
    names["__all__"] = [public for short in _MODULES for public in names[short].__all__]


def __getattr__(name: str):
    names = globals()
    if "__all__" not in names:
        _load()
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]


def __dir__() -> list:
    __getattr__("__all__")
    return sorted(globals())
