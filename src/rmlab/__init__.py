"""rmlab: a desk-scale laboratory for real quadratic singular moduli.

Exact kernels (rationals, real quadratic irrationalities, finite-precision
p-adic towers), quaternionic quadric splitting, RM points and automorphs,
divisor-valued cocycles with their intersection identities, Hecke actions,
Bruhat-Tits tree residues, weight-two modular symbols, and the truncated
antisymmetry experiment, all over exact arithmetic.
"""

__version__ = "0.1.0"

from .errors import RmlabError  # noqa: F401
from .exact import PTower, QuadIrr, Rat  # noqa: F401
from .rmpoints import QForm  # noqa: F401
