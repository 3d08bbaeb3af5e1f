"""Three-qubit entanglement decay, decoupling, and tomography toolkit.

Conventions used throughout: qubit 1 is the leftmost tensor factor
(most significant bit of the computational index), angles are radians,
times are seconds, rates are rad/s. Density matrices are 8x8 numpy
arrays with unit trace, complex in general and float64 where a state
is kept exactly real.
"""

from . import analytic, core, ddseq, measures, noise, states, tomo
from .core import *
from .states import *
from .noise import *
from .analytic import *
from .measures import *
from .ddseq import *
from .tomo import *

__version__ = "0.1.0"

__all__ = [name for mod in (core, states, noise, analytic, measures, ddseq, tomo)
           for name in mod.__all__] + ["__version__"]
