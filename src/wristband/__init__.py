"""Wristband Gaussianization losses and their evaluation protocol.

The package maps point batches onto the product of the unit sphere and
the unit interval, scores uniformity there with reflected-kernel
repulsion (an exact pairwise path and a fast spectral path), calibrates
the components against a Monte-Carlo Gaussian null, optimizes point
clouds directly, and evaluates results with an exact-transport
barycentric z-score.

Every name in a module's ``__all__`` is re-exported here; `cli` lists none.
"""

__version__ = "0.1.0"

from .accelerators import *
from .baselines import *
from .calibration import *
from .errors import *
from .evaluation import *
from .generators import *
from .io import *
from .optimize import *
from .pairwise import *
from .parity import *
from .specfun import *
from .spectral import *
from .wristband_map import *
