"""Entanglement from spatial overlap of partially distinguishable particles.

The package models N identical particles sent through a linear transformation
onto N detectors, keeps the outcomes where every detector fires exactly once,
and traces out whatever hidden degrees of freedom make the particles partially
distinguishable. The result is a spin-register density matrix plus the
postselection success probability, ready for witness checks, phase searches
and simulated tomography.

Each public name is declared once, in its module's ``__all__``; the package
re-exports those names and its own ``__all__`` is their concatenation.
"""

__version__ = "0.2.0"

from . import brute_force, density, entanglement, errors, reduction, tomography, transform
from .brute_force import *
from .density import *
from .entanglement import *
from .errors import *
from .reduction import *
from .tomography import *
from .transform import *

__all__ = ["__version__"] + [
    name
    for module in (brute_force, density, entanglement, errors, reduction, tomography, transform)
    for name in module.__all__
]
