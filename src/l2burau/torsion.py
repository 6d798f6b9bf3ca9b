"""Burau matrices over coefficient groups, the candidate Markov function,
Alexander polynomials, and the Markov-move experiments.

The reduced Burau matrix of a braid on n strands is the (n-1) x (n-1) Fox
jacobian of its free-group automorphism taken in the nested-loop basis
g_i = x_1..x_i, with every entry pushed through the t-twisting map kappa.
Matrices are stored in display layout, entry (i, j) = kappa(d h(g_j) / d g_i),
so printed generator matrices look exactly like their textbook form.  In
this layout composition of the underlying operators is ``opposite_mul``:
standard index pattern, entry products reversed (for commutative targets
this is just the ordinary product).

A reduced Burau matrix is assembled one way, by the rule
B(alpha beta) = B(alpha) . B_{phi o h_alpha}(beta): a fold of generator
table matrices whose coefficient family is twisted one letter at a time.
The Fox jacobian remains for the unreduced matrix, and the tests compare
the fold against it.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import log
from typing import Sequence

from . import braid as braidmod
from .braid import BraidWord
from .epifamilies import TotalWinding
from .freegroup import Basis, FreeWord, artin_act
from .fkdet import (
    FKEstimate,
    _laurent_divide_exact,
    _require_free_abelian,
    _require_integers,
    det_epsilon_reg,
    det_free_group,
    det_integers,
    quadrature_estimate,
    roots_estimate,
)
from .groupring import (
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
    _flat,
    _flat_add,
    _flat_addmul,
    _keyed,
    _unflat,
    kappa,
)


@dataclasses.dataclass(frozen=True)
class BurauMatrix:
    """A Burau matrix together with the data it was built from."""

    matrix: GroupRingMatrix
    family: object
    braid: BraidWord
    basis: Basis

    @property
    def size(self) -> int:
        return self.matrix.rows

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


def _generator_images(family, n: int, basis: Basis):
    """Target images of the basis generators and their inverses."""
    imgs, invs = [None], [None]  # 1-indexed
    for g in range(1, n + 1):
        w = FreeWord.gen(n, g)
        imgs.append(family.apply(w, n, basis))
        invs.append(family.apply(w.inverse(), n, basis))
    return imgs, invs


def _fox_kappa_column(
    image: FreeWord, family, n: int, basis: Basis, nrows: int, imgs, invs
):
    """kappa of all Fox derivatives of one image word, in a single pass.

    Walks the word once, keeping the running prefix already mapped into
    the target group and its t-exponent, and adds one flat term
    (prefix, t-exponent) per letter to the row of its generator.
    """
    grp = family.target(n)
    acc: list[dict] = [{} for _ in range(nrows + 1)]  # 1-indexed rows
    prefix = grp.identity()
    tpow = 0
    for g, s in image.letters():
        weight = 1 if basis is Basis.X else g
        if s < 0:
            prefix = grp.mul(prefix, invs[g])
            tpow -= weight
        if g <= nrows:
            _flat_add(acc[g], {(prefix, tpow): s})
        if s > 0:
            prefix = grp.mul(prefix, imgs[g])
            tpow += weight
    return [_unflat(grp, d) for d in acc[1:]]


def _jacobian_matrix(beta: BraidWord, family, basis: Basis, nrows: int) -> GroupRingMatrix:
    n = beta.strands
    grp = family.target(n)
    imgs, invs = _generator_images(family, n, basis)
    cols = []
    for j in range(1, nrows + 1):
        image = artin_act(beta, FreeWord.gen(n, j), basis)
        cols.append(_fox_kappa_column(image, family, n, basis, nrows, imgs, invs))
    entries = [[cols[j][i] for j in range(nrows)] for i in range(nrows)]
    return GroupRingMatrix(grp, entries)


def _check_winding_consistency(matrix: GroupRingMatrix):
    """Over the total-winding family every term must satisfy t-exp == z-exp."""
    for row in matrix.entries:
        for e in row:
            for elem, tp in e.terms.items():
                for k in tp.coeffs:
                    if k != elem:
                        raise AssertionError(
                            f"twisting inconsistency: t^{k} against z^{elem}"
                        )


def _generator_column(n: int, i: int, sign: int, family) -> dict[int, GroupRingElement]:
    """Column i of the table matrix of sigma_i^sign, as {row: entry}.

    Only g_i moves under sigma_i^{+-1} in the nested basis: for the
    positive crossing the column reads (kappa(u), -kappa(u), 1) at rows
    (i-1, i, i+1) with u = g_{i+1} g_i^{-1}; for the negative crossing it
    reads (1, -kappa(u), kappa(u)) with u = g_{i-1} g_i^{-1} (g_0 = 1).
    Rows outside 1..n-1 are clipped.
    """
    one = GroupRingElement.one(family.target(n))
    if sign > 0:
        u = FreeWord(n, tuple(p for p in ((i + 1, 1), (i, -1)) if p[0] <= n))
        ku = kappa(u, family, n, Basis.G)
        column = {i - 1: ku, i: -ku, i + 1: one}
    else:
        u = FreeWord(n, tuple(p for p in ((i - 1, 1), (i, -1)) if p[0] >= 1))
        ku = kappa(u, family, n, Basis.G)
        column = {i - 1: one, i: -ku, i + 1: ku}
    return {r: val for r, val in column.items() if 1 <= r <= n - 1}


def generator_matrix(n: int, i: int, sign: int, family) -> BurauMatrix:
    """The (n-1) x (n-1) table matrix of one Artin generator: the identity
    with column i replaced by :func:`_generator_column`."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return reduced_burau(braidmod.braid_word([sign * i], n), family)


def _compose_matrix(beta: BraidWord, family) -> GroupRingMatrix:
    """Fold the generator matrices of beta with twisted families.

    Composing with a generator matrix (``opposite_mul``) changes only
    column i, since every other column of the generator is the identity's:
    new[row][i] = sum_r col[r] * row[r] over the rows r of
    :func:`_generator_column`, entry products kept in the order col * row
    that ``opposite_mul`` uses, so any target group works.  The rows live
    as flat-kernel dicts (see ``groupring._keyed``, which treats each
    letter's column as one factor), and each letter costs O(n) entry
    products instead of the O(n^3) of a full matrix product.
    """
    n = beta.strands
    grp = family.target(n)
    updates, columns = [], []  # per letter: (column, its rows), its entries
    fam = family  # twisted by the letters before this one
    for idx, letter in enumerate(beta.letters):
        if idx:
            fam = fam.twist(BraidWord(n, (beta.letters[idx - 1],)))
        col = _generator_column(n, abs(letter), 1 if letter > 0 else -1, fam)
        updates.append((abs(letter) - 1, [r - 1 for r in col]))
        columns.append([_flat(v) for v in col.values()])
    columns, mul, one, element = _keyed(grp, columns)
    rows = [[{one: 1} if r == c else {} for c in range(n - 1)] for r in range(n - 1)]
    for (i, where), col in zip(updates, columns):
        for row in rows:
            new: dict = {}
            for r, cf in zip(where, col):
                if row[r]:
                    _flat_addmul(new, cf, row[r], mul)
            row[i] = new
    return GroupRingMatrix(grp, [[element(d) for d in row] for row in rows])


def reduced_burau(beta: BraidWord, family) -> BurauMatrix:
    """The reduced Burau matrix of a braid word over a coefficient family:
    the per-generator table matrices folded with twisted families, one
    column update per letter (see :func:`_compose_matrix`)."""
    mat = _compose_matrix(beta, family)
    bm = BurauMatrix(mat, family, beta, Basis.G)
    if isinstance(family, TotalWinding):
        _check_winding_consistency(mat)
    return bm


def unreduced_burau(beta: BraidWord, family) -> BurauMatrix:
    """The n x n Fox jacobian in the puncture-loop basis."""
    mat = _jacobian_matrix(beta, family, Basis.X, beta.strands)
    return BurauMatrix(mat, family, beta, Basis.X)


# --- the candidate Markov function -------------------------------------------


@dataclasses.dataclass
class FQValue:
    """One evaluation of det^r(Burau - Id) / max(1, t)^n."""

    braid: BraidWord
    family_name: str
    t0: Fraction
    value: float
    error_bound: float | None
    normalization: str
    estimate: FKEstimate

    def to_json_obj(self) -> dict:
        return {
            "braid": self.braid.render(),
            "strands": self.braid.strands,
            "family": self.family_name,
            "t": str(self.t0),
            "value": self.value,
            "error_bound": (
                "unknown" if self.error_bound is None else self.error_bound
            ),
            "normalization": self.normalization,
            "method": self.estimate.method,
            "diagnostics": self.estimate.diagnostics,
        }


# Everything before t = t0 is substituted depends only on (braid, family),
# so a t sweep builds it once, and alexander_polynomial and
# verify_block_triangularization read the same entries.  Four entries
# cover the t loops of fq, markov and the CLI.  Nothing that depends on
# t0, the grid or the series length (an estimate, a walk, a ball) is
# cached.
@functools.lru_cache(maxsize=4)
def _minus_identity(beta: BraidWord, family) -> GroupRingMatrix:
    """E = Burau(beta) - Id."""
    bm = reduced_burau(beta, family)
    return bm.matrix - GroupRingMatrix.identity(bm.matrix.group, beta.strands - 1)


@functools.lru_cache(maxsize=4)
def _symbolic_det(beta: BraidWord, family) -> GroupRingElement:
    """det(E), exact in t; built only when a caller asks (roots, quad, the
    Alexander polynomial, the stabilization check)."""
    return _minus_identity(beta, family).determinant()


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
    ``method`` forces one of roots | quad | series | eps.  E = Burau - Id
    and, for roots and quad, its symbolic determinant come from caches
    keyed by (beta, family), so calls that differ only in t share them.
    """
    t0 = Fraction(t0)
    if t0 <= 0:
        raise ValueError("t must be positive")
    n = beta.strands
    E = _minus_identity(beta, family)
    grp = E.group
    if method is None:
        if isinstance(grp, Integers):
            method = "roots"
        elif isinstance(grp, FreeAbelian):
            method = "quad"
        else:
            method = "series"
    if method == "roots":
        _require_integers(grp)  # before the determinant refuses a free group
        est = roots_estimate(_symbolic_det(beta, family), t0)
    elif method == "quad":
        _require_free_abelian(grp, grid)
        est = quadrature_estimate(_symbolic_det(beta, family), t0, grid=grid)
    elif method == "series":
        est = det_free_group(E, t0, series_len=series_len, accel=accel)
    elif method == "eps":
        est = det_epsilon_reg(E, t0)
    else:
        raise ValueError(f"unknown method {method!r}")
    norm = float(max(Fraction(1), t0)) ** n
    value = est.value / norm
    err = None if est.error_bound is None else est.error_bound / norm
    return FQValue(
        braid=beta,
        family_name=getattr(family, "name", str(family)),
        t0=t0,
        value=value,
        error_bound=err,
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
    to one variable, and dividing out 1 + s + ... + s^{n-1} leaves the
    polynomial, normalized to lowest degree zero with positive leading
    coefficient.
    """
    if not braidmod.is_knot_closure(beta):
        raise ValueError("closure is not a knot; Alexander backend needs one cycle")
    n = beta.strands
    # under total winding both t and z carry the same exponent, so t = 1
    # loses nothing: the z-polynomial is the one-variable specialization
    P = _symbolic_det(beta, TotalWinding()).coefficients_at(1)
    cyclo = {k: Fraction(1) for k in range(n)}
    quotient = _laurent_divide_exact(P, cyclo)
    if not quotient:
        raise AssertionError("vanishing determinant for a knot closure")
    lo = min(quotient)
    out = {k - lo: c for k, c in quotient.items()}
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


@dataclasses.dataclass
class MarkovReport:
    braid: BraidWord
    family_name: str
    t0: Fraction
    stages: list[MarkovStage]
    verdict: str
    max_deviation: float

    def to_json_obj(self) -> dict:
        return {
            "braid": self.braid.render(),
            "family": self.family_name,
            "t": str(self.t0),
            "stages": [
                {
                    "move": s.move,
                    "braid": s.braid.render(),
                    "value": s.fq.value,
                    "error_bound": (
                        "unknown" if s.fq.error_bound is None else s.fq.error_bound
                    ),
                    "method": s.fq.estimate.method,
                    "diagnostics": s.fq.estimate.diagnostics,
                }
                for s in self.stages
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


def markov_report(
    beta: BraidWord,
    moves: Sequence[Move],
    family,
    t0,
    *,
    tolerance: float = 1e-6,
    **fq_options,
) -> MarkovReport:
    """Apply moves cumulatively and compare the function values.

    At t = 1 values are compared directly; elsewhere each pair is compared
    after fitting the best integer power of t (the function is only
    defined up to monomials).
    """
    t0 = Fraction(t0)
    braids = [beta]
    labels = ["start"]
    for mv in moves:
        braids.append(apply_move(braids[-1], mv))
        labels.append(mv.label())

    fqs = [fq_value(b, family, t0, **fq_options) for b in braids]

    stages = [MarkovStage(lab, b, f) for lab, b, f in zip(labels, braids, fqs)]
    max_dev = 0.0
    violation = False
    for i in range(len(fqs)):
        for j in range(i + 1, len(fqs)):
            dev = _pair_deviation(fqs[i], fqs[j], t0)
            max_dev = max(max_dev, dev)
            budget = (
                (fqs[i].error_bound or 0.0) + (fqs[j].error_bound or 0.0) + tolerance
            )
            if dev > budget:
                violation = True
    return MarkovReport(
        braid=beta,
        family_name=getattr(family, "name", str(family)),
        t0=t0,
        stages=stages,
        verdict="violation" if violation else "invariant",
        max_deviation=max_dev,
    )


# --- proof-level identity checks ------------------------------------------------


@dataclasses.dataclass
class BlockTriangReport:
    braid: BraidWord
    sign: int
    lower_left_zero: bool
    top_block_matches: bool
    corner_matches: bool
    determinant_identity_ok: bool
    determinant_residuals: dict

    @property
    def passed(self) -> bool:
        return (
            self.lower_left_zero
            and self.top_block_matches
            and self.corner_matches
            and self.determinant_identity_ok
        )


def verify_block_triangularization(
    beta: BraidWord, sign: int, t_checks: Sequence = (Fraction(1, 2), 1, 2)
) -> BlockTriangReport:
    """Check the stabilization bookkeeping behind the second Markov move.

    For w = stabilize(beta, sign) over the total-winding family, compose
    (Burau(w) - Id) on the left with the inverse generator matrix D and
    then with the fundamental-formula matrix G (identity rows except the
    last, which holds kappa(g_j) - 1).  The result must be block upper
    triangular with the original (Burau(beta) - Id) as its top-left block
    and a known corner entry.  Numerically, the determinants must satisfy
    max(1,t)^n * t * det(Burau(w) - Id) = max(1,t)^(n+1) * det(Burau(beta) - Id)
    for the negative crossing, and the same with t replaced by 1/t on both
    sides for the positive crossing.
    """
    n = beta.strands
    fam = TotalWinding()
    w = braidmod.stabilize(beta, sign)
    Ew, Eb = _minus_identity(w, fam), _minus_identity(beta, fam)
    grp = Ew.group
    size = n  # reduced size of a braid on n+1 strands

    # D undoes the stabilizing generator: the inverse table matrix
    D = generator_matrix(n + 1, n, -sign, fam).matrix
    # G carries the fundamental formula of Fox calculus in its last row
    rows = []
    for r in range(size):
        row = []
        for ccol in range(size):
            if r < size - 1:
                row.append(
                    GroupRingElement.one(grp)
                    if r == ccol
                    else GroupRingElement.zero(grp)
                )
            else:
                j = ccol + 1
                term = GroupRingElement(
                    grp, {j: TPoly.t_power(j), 0: TPoly.const(-1)}
                )
                row.append(term)
        rows.append(row)
    G = GroupRingMatrix(grp, rows)

    Y = G * (D * Ew)

    lower_left_zero = all(Y.entries[size - 1][j].is_zero() for j in range(size - 1))
    top_ok = all(
        Y.entries[i][j] == Eb.entries[i][j]
        for i in range(n - 1)
        for j in range(n - 1)
    )
    if sign < 0:
        expected_corner = GroupRingElement(
            grp, {n + 1: TPoly.t_power(n + 1), 0: TPoly.const(-1)}
        )
    else:
        expected_corner = GroupRingElement(
            grp, {n: TPoly.t_power(n), -1: TPoly.t_power(-1, -1)}
        )
    corner_ok = Y.entries[size - 1][size - 1] == expected_corner

    residuals = {}
    det_ok = True
    Dw, Db = _symbolic_det(w, fam), _symbolic_det(beta, fam)
    for t0 in t_checks:
        t0 = Fraction(t0)
        dw = roots_estimate(Dw, t0).value
        db = roots_estimate(Db, t0).value
        mx = float(max(Fraction(1), t0))
        tf = float(t0)
        if sign < 0:
            lhs = mx**n * tf * dw
            rhs = mx ** (n + 1) * db
        else:
            lhs = mx**n * (1.0 / tf) * dw
            rhs = (1.0 / tf) * mx ** (n + 1) * db
        resid = abs(lhs - rhs) / max(1.0, abs(rhs))
        residuals[str(t0)] = resid
        if resid > 1e-8:
            det_ok = False

    return BlockTriangReport(
        braid=beta,
        sign=sign,
        lower_left_zero=lower_left_zero,
        top_block_matches=top_ok,
        corner_matches=corner_ok,
        determinant_identity_ok=det_ok,
        determinant_residuals=residuals,
    )


@dataclasses.dataclass
class ConjugationReport:
    braid: BraidWord
    alpha: BraidWord
    family_name: str
    symbolic_equal: bool
    det_residual: float | None

    @property
    def passed(self) -> bool:
        return self.symbolic_equal


def conjugation_identity_check(
    beta: BraidWord, alpha: BraidWord, family
) -> ConjugationReport:
    """Exact matrix identity governing the first Markov move.

    Stated multiplicatively to avoid inverting a matrix over a
    noncommutative ring: with f = family o h_{alpha^-1} and
    g = family o h_{alpha^-1 beta},

        B_f(alpha) . B_family(alpha^-1 beta alpha) ==
        B_f(beta) . B_g(alpha)

    where . is operator composition (opposite_mul in display layout).
    For the total-winding family the determinants of both sides are also
    compared numerically at t = 2.
    """
    if beta.strands != alpha.strands:
        raise ValueError("beta and alpha must share a strand count")
    ainv = braidmod.invert(alpha)
    f = family.twist(ainv)
    g = family.twist(braidmod.compose(ainv, beta))
    conj = braidmod.conjugate(beta, alpha)
    lhs = reduced_burau(alpha, f).matrix.opposite_mul(reduced_burau(conj, family).matrix)
    rhs = reduced_burau(beta, f).matrix.opposite_mul(reduced_burau(alpha, g).matrix)
    equal = lhs == rhs
    det_resid = None
    if isinstance(family, TotalWinding):
        d1 = det_integers(lhs, 2).value
        d2 = det_integers(rhs, 2).value
        det_resid = abs(d1 - d2) / max(1.0, abs(d2))
    return ConjugationReport(
        braid=beta,
        alpha=alpha,
        family_name=getattr(family, "name", str(family)),
        symbolic_equal=equal,
        det_residual=det_resid,
    )
