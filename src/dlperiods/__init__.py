"""Exact Deligne-Lusztig character values for small GL_n and U_n over finite
fields, the terms of their spherical periods.

Everything is computed in exact arithmetic: finite-field towers, cyclotomic
character values, integer Green polynomials and Deligne-Lusztig values
R_{T,theta}(g), checked against brute-force oracles.  Periods are not
computed yet; ROADMAP.md (Open item 5) plans them.
"""

from .cyclotomic import Cyclotomic, cyclo
from .ffield import FieldSpec, make_field

__all__ = [
    "Cyclotomic",
    "cyclo",
    "FieldSpec",
    "make_field",
]

__version__ = "0.1.0"
