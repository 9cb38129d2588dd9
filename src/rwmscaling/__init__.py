"""Exact and asymptotic optimal scaling for random walk Metropolis.

Tools for computing the expected acceptance rate and expected squared jump
distance of random walk Metropolis on spherically and elliptically
symmetric unimodal targets, optimizing the proposal scale, the
dimension-to-infinity limit theory with general radial mixing laws, and
Monte Carlo / full-chain validators for every analytic quantity.
"""

from . import (asymptotics, elliptical, engine, optimizer, quadrature,
               simulate, special, targets)
from .asymptotics import *
from .elliptical import *
from .engine import *
from .optimizer import *
from .quadrature import *
from .simulate import *
from .special import *
from .targets import *

__version__ = "0.1.0"

# Each library module's __all__ is the one list of its public names.
__all__ = [name for module in (asymptotics, elliptical, engine, optimizer,
                               quadrature, simulate, special, targets)
           for name in module.__all__]
