"""Zeta-polynomials from period polynomials.

Exact-arithmetic construction of zeta-polynomials via the
Rodriguez-Villegas transform, checkers for the Fricke and
Eichler-Shimura relations, verification of the associated functional
equations and convergent series identities, and a high-precision
pipeline building period polynomials from critical L-values.
"""

from zetapoly.polyspace import PolyX
from zetapoly.rv import ZetaPoly, rv_forward, rv_inverse

__all__ = ["PolyX", "ZetaPoly", "rv_forward", "rv_inverse"]

__version__ = "0.1.0"
