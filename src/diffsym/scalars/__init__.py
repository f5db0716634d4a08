"""Exact scalar tower: Q < Q(w) < Q(w)(t) < Kummer extensions < monomial fields."""

from .cyclo import CycloElem, CycloField, cyclotomic_polynomial
from .kummer import KummerElem, KummerField
from .monomial import MonomialDiffField, PolyDiffElem, PolyDiffField
from .ode import OdeSolution, rational_ode_solve
from .polys import (
    Poly,
    poly_gcd,
    squarefree_decompose,
)
from .powers import (
    ReducibleRadicandError,
    cyclo_nth_root,
    echelon,
    is_prime,
    kummer_vahlen_certify,
    mth_power_up_to_constant,
    mth_root,
    rational_nth_root,
    valuations,
)
from .ratfunc import RatFunc, RatFuncField

__all__ = [
    "CycloElem",
    "CycloField",
    "KummerElem",
    "KummerField",
    "MonomialDiffField",
    "OdeSolution",
    "Poly",
    "PolyDiffElem",
    "PolyDiffField",
    "RatFunc",
    "RatFuncField",
    "ReducibleRadicandError",
    "cyclo_nth_root",
    "cyclotomic_polynomial",
    "echelon",
    "is_prime",
    "kummer_vahlen_certify",
    "mth_power_up_to_constant",
    "mth_root",
    "poly_gcd",
    "rational_nth_root",
    "rational_ode_solve",
    "squarefree_decompose",
    "valuations",
]
