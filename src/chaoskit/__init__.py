"""Numerical toolkit for second and higher Wiener chaos.

Finite-dimensional symmetric tensors stand in for L2 kernels; multiple
integrals become Hermite polynomial forms in i.i.d. standard Gaussians.
On top of that sit exact moment/contraction formulas, grid embeddings of
fractional Brownian motion and the Brownian sheet, the classical
quadratic functionals of those processes, and trend diagnostics for
Gaussian-limit behavior of kernel sequences.  The package exports each
module's __all__: a public name is declared once, in its module.
"""

__version__ = "0.1.0"

from . import chaos, diagnostics, embeddings, functionals, rng, tensors
from .chaos import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .embeddings import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .tensors import *  # noqa: F401,F403

__all__ = ["__version__", *tensors.__all__, *chaos.__all__,
           *embeddings.__all__, *functionals.__all__, *diagnostics.__all__,
           *rng.__all__]
