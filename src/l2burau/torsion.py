"""Burau matrices over coefficient groups, the candidate Markov function,
Alexander polynomials, and the Markov-move experiments.

The reduced Burau matrix of a braid on n strands is the (n-1) x (n-1) Fox
jacobian of its free-group automorphism taken in the nested-loop basis
g_i = x_1..x_i, with every entry pushed through the t-twisting map kappa.
Matrices are stored in display layout, entry (i, j) = kappa(d h(g_j) / d g_i),
so printed generator matrices look exactly like their textbook form.  In
this layout the underlying operators compose by the standard index
pattern with entry products reversed, (A . B)[i][k] = sum_j B[j][k] A[i][j]
(for commutative targets this is just the ordinary product).

A reduced Burau matrix is assembled one way, by the rule
B(alpha beta) = B(alpha) . B_{phi o h_alpha}(beta): a fold of generator
matrices whose coefficient family is twisted one letter at a time.  A
generator matrix is the identity but for one column, the Fox derivatives
of the letter's entry in the braid-action table of
:mod:`l2burau.freegroup`, so the action is written down in one place.
This module builds the columns and twists the family; the column updates
and their encoding belong to ``groupring._fold_columns``.  On the integer
path (phi, and any target whose entries lie on one line) the fold is a
``groupring._LineMatrix``, E = Burau - Id is formed on its ints, and only
det(E) is decoded, into the flat dict the roots and quadrature backends
and the Alexander polynomial read; otherwise the fold's entries are flat
dicts.  The series and eps backends read the flat rows of E; only the
matrix ``reduced_burau`` returns (``burau`` output) is decoded into
group-ring elements.  The Fox jacobian and the proof-level identities
(block triangularization under stabilization, the conjugation identity)
are kept by the tests, as oracles the pipeline is checked against.

The dispatch of :func:`fq_value` is the one entry point into a
determinant backend: it loads :mod:`l2burau.fkdet`, and numpy with it, on
its first call, so ``reduced_burau`` and ``alexander_polynomial`` run on
the exact layers alone.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from itertools import combinations
from math import log
from typing import TYPE_CHECKING, Sequence

from . import braid as braidmod
from .braid import BraidWord
from .epifamilies import TotalWinding
from .freegroup import Basis, _fox_walk, _letter_image, winding
from .groupring import (
    FreeAbelian,
    GroupRingMatrix,
    Integers,
    _ascending,
    _at,
    _cyclic_quotient,
    _flat_add,
    _fold_columns,
    _laplace,
    _LineMatrix,
    _require_positive,
    _unflat,
)

if TYPE_CHECKING:
    from .fkdet import FKEstimate


@dataclasses.dataclass(frozen=True)
class BurauMatrix:
    """A Burau matrix together with the data it was built from."""

    matrix: GroupRingMatrix
    family: object
    braid: BraidWord
    basis: Basis

    def render(self) -> str:
        letter = "g" if self.basis is Basis.G else "x"
        return self.matrix.render(letter)

    def to_json_obj(self) -> dict:
        letter = "g" if self.basis is Basis.G else "x"
        out = self.matrix.to_json_obj(letter)
        out["strands"] = self.braid.strands
        out["braid"] = self.braid.render()
        out["basis"] = self.basis.value
        return out


@functools.lru_cache(maxsize=64)
def _generator_column(n: int, letter: int, family) -> dict[int, dict]:
    """Column |letter| of the Burau matrix of one Artin generator, as
    {row: flat entry}, cached, so a sweep over one family builds each of
    its 2(n-1) columns once; callers read it and never change it.

    Only g_i, i = |letter|, moves, so every other column is the
    identity's.  Row r of column i is kappa(d h(g_i) / d g_r), the Fox
    derivative of the image h(g_i) from the braid-action table
    (``freegroup._letter_image``), each term u sent to t^winding(u)
    family(u).  Rows come out in ascending order, and row n (the
    derivative by g_n) is not part of the reduced matrix.
    """
    column: dict[int, dict] = {}
    last = key = None
    for r, u, c in _fox_walk(_letter_image(letter, n)):
        if r < n:
            if u is not last:  # the family is applied once per prefix
                last, key = u, (family.apply(u, n), winding(u, Basis.G))
            _flat_add(column.setdefault(r, {}), {key: c})
    return dict(sorted(column.items()))


def _burau_fold(beta: BraidWord, family) -> _LineMatrix | list[list[dict]]:
    """Fold the generator matrices of beta with twisted families into the
    reduced Burau matrix (``groupring._fold_columns``): a
    ``groupring._LineMatrix`` on the integer path, else rows of flat
    entries {(group element, t exponent): coefficient}.

    Composing with a generator matrix (A . G, the rule of the module
    docstring) changes only column i, since every other column of G is the
    identity's: new[row][i] = sum_r col[r] * row[r] over the rows r of
    :func:`_generator_column`, each entry product reversed to col * row as
    the rule asks, so any target group works, and each letter costs O(n)
    entry products instead of the O(n^3) of a full matrix product.  Each
    distinct (letter, twisted family) column is looked up once, and
    twisted by its letter once, when another letter follows it, so a
    family that twists to itself (phi) builds one braid word per distinct
    column, not one per letter.
    """
    n = beta.strands
    built: dict = {}  # (letter, twisted family) -> [(i, rows, column), family after it]
    letters = []
    fam, last = family, None  # fam is twisted by the letters before this one
    for idx, letter in enumerate(beta.letters):
        if idx:
            if last[1] is None:
                last[1] = fam.twist(BraidWord(n, (beta.letters[idx - 1],)))
            fam = last[1]
        last = built.get((letter, fam))
        if last is None:
            col = _generator_column(n, letter, fam)
            column = (abs(letter) - 1, [r - 1 for r in col], list(col.values()))
            last = built[letter, fam] = [column, None]
        letters.append(last[0])
    return _fold_columns(family.target(n), n - 1, letters)


def reduced_burau(beta: BraidWord, family) -> BurauMatrix:
    """The reduced Burau matrix of a braid word over a coefficient family:
    the generator matrices folded with twisted families, one column
    update per letter (see :func:`_burau_fold`), decoded into elements."""
    grp = family.target(beta.strands)
    rows = [[_unflat(grp, d) for d in row] for row in _flat_burau(beta, family)]
    return BurauMatrix(GroupRingMatrix(grp, rows), family, beta, Basis.G)


# --- the candidate Markov function -------------------------------------------


@dataclasses.dataclass
class FQValue:
    """One evaluation of det^r(Burau - Id) / max(1, t)^n."""

    braid: BraidWord
    family_name: str
    t0: Fraction
    value: float
    error_bound: float
    normalization: str
    estimate: FKEstimate

    def to_json_obj(self) -> dict:
        return {
            "braid": self.braid.render(),
            "strands": self.braid.strands,
            "family": self.family_name,
            "t": str(self.t0),
            "value": self.value,
            "error_bound": self.error_bound,
            "normalization": self.normalization,
            "method": self.estimate.method,
            "diagnostics": self.estimate.diagnostics,
        }


# Everything before t = t0 is substituted depends only on (braid, family),
# so a t sweep folds the braid once: reduced_burau, E = Burau - Id and the
# symbolic determinant all read one cached fold, and alexander_polynomial
# reads the same determinant.  fq and markov_reports take every t of one
# braid in a row, so four entries cover their t loops at any chain length.
# Nothing that depends on t0, the grid or the series length (an estimate,
# a walk, a ball) is cached.
@functools.lru_cache(maxsize=4)
def _burau_rows(beta: BraidWord, family) -> _LineMatrix | list[list[dict]]:
    """The fold of :func:`_burau_fold`, cached; callers copy before they
    change a row.  Under phi every key is (k, k), so the fold's line
    generator must be (1, 1), or zero when every entry is constant."""
    rows = _burau_fold(beta, family)
    if isinstance(family, TotalWinding) and not (
        isinstance(rows, _LineMatrix) and rows.ring.u in ([1, 1], [0, 0])
    ):
        raise AssertionError("twisting inconsistency: t and z exponents differ under phi")
    return rows


def _flat_burau(beta: BraidWord, family) -> list[list[dict]]:
    """The rows of the fold as flat entries, decoded from the integer path
    on each call."""
    rows = _burau_rows(beta, family)
    return rows.flat_rows() if isinstance(rows, _LineMatrix) else rows


def _minus_identity(beta: BraidWord, family) -> list[list[dict]]:
    """The flat rows of E = Burau(beta) - Id; the cached rows of the fold
    are copied, never changed."""
    one = {(family.target(beta.strands).identity(), 0): 1}
    out = []
    for i, row in enumerate(_flat_burau(beta, family)):
        row = list(row)
        row[i] = dict(row[i])
        _flat_add(row[i], one, -1)
        out.append(row)
    return out


@functools.lru_cache(maxsize=4)
def _symbolic_det(beta: BraidWord, family) -> dict:
    """det(E), exact in t, as the flat dict {(group element, t exponent):
    coefficient} of ``groupring._laplace``; built only when a caller asks
    (roots, quad, the Alexander polynomial), who reads it and never
    changes it.  On the integer path E is formed on the fold's ints and
    only det(E) is decoded; otherwise ``_laplace`` reads E's flat rows."""
    rows = _burau_rows(beta, family)
    E = rows.minus_identity() if isinstance(rows, _LineMatrix) else _minus_identity(beta, family)
    return _laplace(family.target(beta.strands), E)


def fq_value(
    beta: BraidWord,
    family,
    t0,
    *,
    method: str | None = None,
    grid: int = 128,
    series_len: int = 30,
    accel: bool = True,
) -> FQValue:
    """Evaluate the candidate Markov function at one braid and one t > 0.

    The determinant backend follows the family's target group unless
    ``method`` forces one of roots | quad | series | eps.  Roots and quad
    read the symbolic determinant, series and eps the flat rows of E =
    Burau - Id; both read one fold cached by (beta, family), and the
    determinant is cached too, so calls that differ only in t share them.
    Under phi every t reads M(det(t .)) from one cached root solve, with
    the factor 1 + s + ... + s^(n-1) divided out exactly
    (``fkdet._winding_roots``).
    """
    t0 = _require_positive(t0)
    n = beta.strands
    _burau_rows(beta, family)  # assembly errors come before backend errors
    grp = family.target(n)
    if method is None:
        if isinstance(grp, Integers):
            method = "roots"
        elif isinstance(grp, FreeAbelian):
            method = "quad"
        else:
            method = "series"
    from . import fkdet  # the one entry into a backend, and into numpy

    try:
        if method == "roots":
            fkdet._require_integers(grp)  # before the determinant refuses a free group
            est = fkdet.roots_estimate(grp, _symbolic_det(beta, family), t0)
        elif method == "quad":
            fkdet._require_free_abelian(grp, grid)
            est = fkdet.quadrature_estimate(grp, _symbolic_det(beta, family), t0, grid=grid)
        elif method == "series":
            est = fkdet.series_estimate(grp, _minus_identity(beta, family), t0, series_len, accel)
        elif method == "eps":
            est = fkdet.epsilon_estimate(grp, _minus_identity(beta, family), t0)
        else:
            raise ValueError(f"unknown method {method!r}")
        x = max(Fraction(1), t0)
        norm = float(x) ** n
        # the other backends' bounds dwarf the rounding of est.value / norm
        rounding = abs(est.value) * fkdet._power_rounding(x, n) if est.method == "roots" else 0.0
    except OverflowError as exc:
        raise ValueError(f"F at t={t0} overflows a float") from exc
    return FQValue(
        braid=beta,
        family_name=getattr(family, "name", str(family)),
        t0=t0,
        value=est.value / norm,
        error_bound=(est.error_bound + rounding) / norm,
        normalization=f"divided by max(1,t)^{n}",
        estimate=est,
    )


# --- Alexander polynomials ----------------------------------------------------


def render_poly(coeffs: dict[int, Fraction], var: str = "s") -> str:
    if not coeffs:
        return "0"
    parts = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        mono = "1" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
    return " ".join([head] + parts[1:])


def alexander_polynomial(beta: BraidWord) -> dict[int, Fraction]:
    """Alexander polynomial of the closure of beta (knot closures only).

    Computed from the classical reduced Burau specialization: the
    determinant of (Burau - Id) under the total-winding family collapses
    to one variable, and dividing out 1 + s + ... + s^{n-1} exactly leaves
    the polynomial, normalized to lowest degree zero with positive leading
    coefficient.
    """
    if not braidmod.is_knot_closure(beta):
        raise ValueError("closure is not a knot; Alexander backend needs one cycle")
    # under total winding both t and z carry the same exponent, so t = 1
    # loses nothing: the z-polynomial is the one-variable specialization
    P = _at(_symbolic_det(beta, TotalWinding()), 1)
    if not P:
        raise AssertionError("vanishing determinant for a knot closure")
    q = _cyclic_quotient(_ascending(P), beta.strands)
    if q is None:
        raise AssertionError("det(Burau - Id) is not divisible by 1 + s + ... + s^(n-1)")
    out = {k: c for k, c in enumerate(q) if c}  # q[0] = P's lowest coefficient
    if out[max(out)] < 0:
        out = {k: -c for k, c in out.items()}
    delta_one = sum(out.values())
    if abs(delta_one) != 1:
        raise AssertionError("normalization failed: Delta(1) is not a unit")
    deg = max(out)
    for k in range(deg + 1):
        if out.get(k, Fraction(0)) != out.get(deg - k, Fraction(0)):
            raise AssertionError("Alexander polynomial is not palindromic")
    return out


# --- Markov-move experiments ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Conjugate:
    alpha: BraidWord

    def label(self) -> str:
        return f"conj:{self.alpha.render()}"


@dataclasses.dataclass(frozen=True)
class Stabilize:
    sign: int
    after: bool = False

    def label(self) -> str:
        return f"stab:{'+1' if self.sign > 0 else '-1'}"


Move = Conjugate | Stabilize


def apply_move(beta: BraidWord, move: Move) -> BraidWord:
    if isinstance(move, Conjugate):
        return braidmod.conjugate(beta, move.alpha)
    return braidmod.stabilize(beta, move.sign, move.after)


@dataclasses.dataclass
class MarkovStage:
    move: str
    braid: BraidWord
    fq: FQValue


# the fields of FQValue.to_json_obj a stage repeats, after its move
_STAGE_FIELDS = ("braid", "value", "error_bound", "method", "diagnostics")


@dataclasses.dataclass
class MarkovReport:
    braid: BraidWord
    family_name: str
    t0: Fraction
    stages: list[MarkovStage]
    verdict: str
    max_deviation: float

    def to_json_obj(self) -> dict:
        fqs = [s.fq.to_json_obj() for s in self.stages]
        return {
            "braid": self.braid.render(),
            "family": self.family_name,
            "t": str(self.t0),
            "stages": [
                {"move": s.move, **{k: fq[k] for k in _STAGE_FIELDS}}
                for s, fq in zip(self.stages, fqs)
            ],
            "verdict": self.verdict,
            "max_deviation": self.max_deviation,
        }


def _pair_deviation(v1: FQValue, v2: FQValue, t0: Fraction) -> float:
    """Deviation between two stage values modulo integer powers of t."""
    a, b = v1.value, v2.value
    if a <= 0.0 or b <= 0.0:
        return abs(a - b)
    if t0 == 1:
        return abs(a - b)
    lt = log(float(t0))
    m = round((log(a) - log(b)) / lt)
    return abs(a - b * float(t0) ** m)


def markov_reports(
    beta: BraidWord,
    moves: Sequence[Move],
    family,
    t_values: Sequence,
    *,
    tolerance: float = 1e-6,
    **fq_options,
) -> list[MarkovReport]:
    """Apply moves cumulatively and compare the function values, one
    report per t, in the order of ``t_values``.

    Each stage is evaluated at every t before the next stage is built, so
    its fold and determinant are read from the cache for every t after
    the first, however many stages the chain has.  At t = 1 values are
    compared directly; elsewhere each pair is compared after fitting the
    best integer power of t (the function is only defined up to
    monomials).
    """
    ts = [Fraction(t0) for t0 in t_values]
    braids = [beta]
    labels = ["start"]
    for mv in moves:
        braids.append(apply_move(braids[-1], mv))
        labels.append(mv.label())

    by_stage = [[fq_value(b, family, t0, **fq_options) for t0 in ts] for b in braids]

    name = getattr(family, "name", str(family))
    reports = []
    for t0, fqs in zip(ts, zip(*by_stage)):
        max_dev = 0.0
        violation = False
        for v1, v2 in combinations(fqs, 2):
            dev = _pair_deviation(v1, v2, t0)
            max_dev = max(max_dev, dev)
            violation |= dev > v1.error_bound + v2.error_bound + tolerance
        verdict = "violation" if violation else "invariant"
        stages = [MarkovStage(lab, b, f) for lab, b, f in zip(labels, braids, fqs)]
        reports.append(MarkovReport(beta, name, t0, stages, verdict, max_dev))
    return reports


def markov_report(
    beta: BraidWord,
    moves: Sequence[Move],
    family,
    t0,
    *,
    tolerance: float = 1e-6,
    **fq_options,
) -> MarkovReport:
    """:func:`markov_reports` at the one t = t0."""
    return markov_reports(beta, moves, family, [t0], tolerance=tolerance, **fq_options)[0]
