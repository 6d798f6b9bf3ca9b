"""Reference constructions the tests compare the library against.

None of them is needed by the library itself.  The Fox jacobian, the
evaluation helpers and the Gaussian elimination below use plain dict and
Fraction arithmetic only, so they check the group-ring kernel and the
Burau fold without running through them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from l2burau.braid import BraidWord
from l2burau.freegroup import Basis, FreeWord, artin_act
from l2burau.groupring import (
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
    kappa,
)
from l2burau.torsion import BurauMatrix


def kappa_of_terms(
    terms: Mapping[FreeWord, Fraction | int], family, n: int, basis: Basis = Basis.G
) -> GroupRingElement:
    """Linear extension of kappa to {free word: rational} sums."""
    out = GroupRingElement.zero(family.target(n))
    for w, c in terms.items():
        out = out + kappa(w, family, n, basis, coeff=c)
    return out


def _generator_images(family, n: int, basis: Basis):
    """Target images of the basis generators and their inverses."""
    imgs, invs = [None], [None]  # 1-indexed
    for g in range(1, n + 1):
        w = FreeWord.gen(n, g)
        imgs.append(family.apply(w, n, basis))
        invs.append(family.apply(w.inverse(), n, basis))
    return imgs, invs


def _fox_kappa_column(image: FreeWord, family, n: int, basis: Basis, nrows: int, imgs, invs):
    """kappa of all Fox derivatives of one image word, in a single pass.

    Walks the word once, keeping the running prefix already mapped into
    the target group and its t-exponent, and adds one term
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
            coeffs = acc[g].setdefault(prefix, {})
            coeffs[tpow] = coeffs.get(tpow, 0) + s
        if s > 0:
            prefix = grp.mul(prefix, imgs[g])
            tpow += weight
    return [GroupRingElement(grp, {p: TPoly(cs) for p, cs in d.items()}) for d in acc[1:]]


def jacobian_matrix(beta: BraidWord, family, basis: Basis, nrows: int) -> GroupRingMatrix:
    """The Fox jacobian of beta pushed through kappa, in display layout:
    entry (i, j) = kappa(d h(b_j) / d b_i) for the generators b of basis."""
    n = beta.strands
    grp = family.target(n)
    imgs, invs = _generator_images(family, n, basis)
    cols = []
    for j in range(1, nrows + 1):
        image = artin_act(beta, FreeWord.gen(n, j), basis)
        cols.append(_fox_kappa_column(image, family, n, basis, nrows, imgs, invs))
    entries = [[cols[j][i] for j in range(nrows)] for i in range(nrows)]
    return GroupRingMatrix(grp, entries)


def unreduced_burau(beta: BraidWord, family) -> BurauMatrix:
    """The n x n Fox jacobian in the puncture-loop basis."""
    mat = jacobian_matrix(beta, family, Basis.X, beta.strands)
    return BurauMatrix(mat, family, beta, Basis.X)


def block_assemble(blocks: Sequence[Sequence[GroupRingMatrix]]) -> GroupRingMatrix:
    """Assemble a block grid; block shapes must tile consistently."""
    group = blocks[0][0].group
    rows: list[list[GroupRingElement]] = []
    for brow in blocks:
        height = brow[0].rows
        if any(b.rows != height for b in brow):
            raise ValueError("inconsistent block heights")
        for r in range(height):
            rows.append([e for b in brow for e in b.entries[r]])
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("inconsistent block widths")
    return GroupRingMatrix(group, rows)


def evaluate(e: GroupRingElement, z: Sequence[Fraction], t: Fraction) -> Fraction:
    """e at the rational point (z, t): z holds one value per coordinate of
    Z^d (one value for Z)."""
    total = Fraction(0)
    for g, tp in e.terms.items():
        coords = (g,) if isinstance(e.group, Integers) else g
        zg = Fraction(1)
        for zi, gi in zip(z, coords):
            zg *= zi**gi
        for k, c in tp.coeffs.items():
            total += c * zg * t**k
    return total


def gaussian_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a square Fraction matrix by elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def det_at(M: GroupRingMatrix, z: Sequence[Fraction], t: Fraction) -> Fraction:
    """det(M) at (z, t), from the evaluated entries, without the kernel."""
    if not isinstance(M.group, (Integers, FreeAbelian)):
        raise ValueError("evaluation needs a commutative coefficient group")
    return gaussian_det([[evaluate(e, z, t) for e in row] for row in M.entries])
