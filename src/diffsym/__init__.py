"""Exact symbolic computation for differential symbol algebras of degree m.

Scalar towers Q < Q(w) < Q(w)(t) < Kummer/monomial extensions, the symbol
algebra (alpha, beta)_{k,w}, its derivations, matrix differential algebras,
and explicit differential splitting fields.

The package root exports the names of the README's Library example; every
other name is imported from its defining module (``diffsym.scalars``,
``diffsym.parser``, ``diffsym.split``, ...).
"""

from .deriv import decompose, inner_derivation, standard_derivation
from .split import split_standard
from .symalg import SymbolAlgebra

__version__ = "0.1.0"

__all__ = [
    "SymbolAlgebra",
    "decompose",
    "inner_derivation",
    "split_standard",
    "standard_derivation",
]
