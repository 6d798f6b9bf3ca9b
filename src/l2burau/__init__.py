"""Braid words, Burau maps over computable coefficient groups, and
Fuglede-Kadison determinant estimation.

The package computes reduced Burau matrices of braids with coefficients
twisted through a family of epimorphisms (:class:`Identity`,
:class:`TotalWinding`, or one :class:`AbelianImage` class for the
abelianization and custom abelian quotients; each family owns its twist
and its Markov compatibility maps chi and sigma), estimates Fuglede-Kadison
determinants over the three computable target groups, evaluates the
candidate Markov function det^r(Burau - Id) / max(1,t)^n, and runs
Markov-move experiments, including the known counter-examples for the
identity and abelianization families.
"""

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
    AdmissibilityReport,
    Identity,
    TotalWinding,
    check_admissibility,
    family_by_name,
    twist,
)
from .fkdet import (
    FKEstimate,
    det_epsilon_reg,
    det_free_abelian,
    det_free_group,
    det_integers,
    fold_subgroup_basis,
    epsilon_estimate,
    quadrature_estimate,
    roots_estimate,
    series_estimate,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
