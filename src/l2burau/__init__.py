"""Braid words, Burau maps over computable coefficient groups, and
Fuglede-Kadison determinant estimation.

The package computes reduced Burau matrices of braids with coefficients
twisted through a family of epimorphisms (:class:`Identity`,
:class:`TotalWinding`, or one :class:`AbelianImage` class for the
abelianization and custom abelian quotients; each family gives its
target group, its value on g-basis words and its twist, which is all the
Burau fold reads), estimates Fuglede-Kadison determinants over the three
computable target groups, evaluates the candidate Markov function
det^r(Burau - Id) / max(1,t)^n, and runs Markov-move experiments,
including the known counter-examples for the identity and abelianization
families.  The Markov-compatibility maps chi and sigma of the paper's
proof are checked by the tests, not carried by the families.

The determinant backends (:mod:`l2burau.fkdet`) are the only module that
imports numpy.  Importing the package does not load them: the names it
re-exports from there resolve on first access.
"""

from importlib import import_module as _import_module

from .braid import (
    BraidWord,
    braid_word,
    compose,
    conjugate,
    free_cancel,
    invert,
    is_knot_closure,
    parse_braid,
    permutation,
    stabilize,
)
from .epifamilies import (
    AbelianImage,
    Identity,
    TotalWinding,
    family_by_name,
    twist,
)
from .freegroup import (
    Basis,
    FreeWord,
    artin_act,
    change_of_basis,
    parse_word,
    winding,
    word,
)
from .groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
)
from .torsion import (
    BurauMatrix,
    Conjugate,
    FQValue,
    MarkovReport,
    Stabilize,
    alexander_polynomial,
    fq_value,
    markov_report,
    reduced_burau,
    render_poly,
)

_FKDET_NAMES = frozenset({
    "FKEstimate",
    "det_epsilon_reg",
    "det_free_abelian",
    "det_free_group",
    "det_integers",
    "epsilon_estimate",
    "fold_subgroup_basis",
    "quadrature_estimate",
    "roots_estimate",
    "series_estimate",
})


def __getattr__(name: str):
    """``fkdet`` and the names re-exported from it, loaded on first access."""
    if name != "fkdet" and name not in _FKDET_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fkdet = _import_module(".fkdet", __name__)
    return fkdet if name == "fkdet" else getattr(fkdet, name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} | _FKDET_NAMES | {"fkdet"})
__version__ = "0.1.0"
