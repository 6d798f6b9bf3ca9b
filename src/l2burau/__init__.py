"""Braid words, Burau maps over computable coefficient groups, and
Fuglede-Kadison determinant estimation.

The package computes reduced Burau matrices of braids with coefficients
twisted through a family of epimorphisms (identity, total winding,
abelianization, or a custom abelian quotient), estimates Fuglede-Kadison
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
    exponent_sum,
    free_cancel,
    invert,
    is_knot_closure,
    parse_braid,
    permutation,
    stabilize,
)
from .epifamilies import (
    AbelianImage,
    Abelianization,
    AdmissibilityReport,
    CustomAbelian,
    Identity,
    TotalWinding,
    check_admissibility,
    chi_map,
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
    quadrature_estimate,
    roots_estimate,
)
from .freegroup import (
    Basis,
    FreeWord,
    artin_act,
    augmentation,
    change_of_basis,
    fox_derivative,
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
    kappa,
    vn_trace,
)
from .torsion import (
    BurauMatrix,
    Conjugate,
    FQValue,
    MarkovReport,
    Stabilize,
    alexander_polynomial,
    conjugation_identity_check,
    fq_value,
    generator_matrix,
    markov_report,
    reduced_burau,
    render_poly,
    unreduced_burau,
    verify_block_triangularization,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
