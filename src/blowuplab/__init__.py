"""Numerical laboratory for the semilinear wave equation

    u_tt - Lap(u) - b0 (1+t)^(-beta) Lap(u_t) = |u|^p

on periodic boxes: pseudo-spectral operators, an IMEX time stepper with an
energy ledger and finite-time blow-up detection, closed-form critical-exponent
calculators, weak-form power-law verification, scaling experiments, ODE
oracles, and reproducible parameter sweeps.

Each module's `__all__` is the list of its public names; all of them are
re-exported here.
"""

__version__ = "0.1.0"

from .exponents import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .stepper import *  # noqa: F401,F403
from .weakform import *  # noqa: F401,F403
from .scaling import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403
