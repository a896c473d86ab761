"""certquad: certified quadrature for vector-valued functions.

Approximates the integral of ``f: [a, b] -> X`` (X a finite-dimensional
normed space) by convex combinations of point values and returns rigorous
error certificates at three tightness levels, stated against the L1, Lp or
sup norm of the derivative.  Each module's ``__all__`` is its public
surface; the package re-exports all of them.
"""

from . import bounds, engine, functions, geometry, rules, seminorms, spaces
from .bounds import *  # noqa: F403
from .engine import *  # noqa: F403
from .functions import *  # noqa: F403
from .geometry import *  # noqa: F403
from .rules import *  # noqa: F403
from .seminorms import *  # noqa: F403
from .spaces import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (geometry, spaces, rules, seminorms, bounds, engine, functions)
           for name in module.__all__] + ["__version__"]
